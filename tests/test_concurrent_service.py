"""Concurrency test harness: differential oracle for the serving layer.

The tentpole property of the concurrent query service is MVCC exactness
under races: N reader threads (each pinned to a committed snapshot version)
interleave arbitrarily with the single writer, while every query's index
work is serialized through the :class:`~repro.serve.scheduler.
ProgressiveScheduler`'s work lanes.  The oracle here is *serial replay*:
the writer records every committed operation, the test replays the same
history into plain NumPy arrays (one per committed version), and every
answer any reader observed — whatever the interleaving — must equal the
brute-force aggregate over the array of its pinned version.  No torn
reads, no phantom (uncommitted) deltas, exact sums and counts.

The harness runs across three algorithm families (progressive PQ, cracking
STD, full-index FI — covering lock-free converged reads, always-serialized
cracking, and the one-shot bulk build) times all three budget-policy
families (FixedDelta, TimeAdaptive, CostModelGreedy), pre- and
post-convergence.  Any unserialized index mutation would trip the
scheduler's mutation guard (:class:`~repro.errors.ConcurrencyError`) in
the offending reader thread and fail the run.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.policy import CostModelGreedy, FixedDelta, TimeAdaptive
from repro.engine.session import IndexingSession
from repro.engine.shared import SharedEngine
from repro.serve.server import QueryServer
from repro.serve.client import ServiceClient, ServiceError
from repro.storage.column import SNAPSHOT_CACHE_SIZE, Column

ROWS = 4_000
DOMAIN = 1_000_000

FAMILIES = ["PQ", "STD", "FI"]
POLICIES = {
    "fixed-delta": lambda: FixedDelta(0.25),
    "time-adaptive": lambda: TimeAdaptive(scan_fraction=0.2),
    "cost-greedy": lambda: CostModelGreedy(interactivity_budget=0.01),
}


def _base_data(seed: int = 11) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, DOMAIN, size=ROWS, dtype=np.int64)


def _brute(arr: np.ndarray, low, high):
    mask = (arr >= low) & (arr <= high)
    return int(arr[mask].sum()), int(mask.sum())


class _History:
    """The committed write history, as the serial-replay oracle sees it.

    The writer thread applies every operation both through the engine and
    to a plain NumPy array; each commit files a copy of the array under the
    resulting committed version.  Aggregate queries make row order
    irrelevant, so multiset-equivalent replay (delete = mask out,
    update = mask out + append substitutes) is exact.
    """

    def __init__(self, base: np.ndarray) -> None:
        self.arrays = {0: base.copy()}
        self._lock = threading.Lock()

    def record(self, version: int, arr: np.ndarray) -> None:
        with self._lock:
            self.arrays[version] = arr.copy()

    def at(self, version: int) -> np.ndarray:
        with self._lock:
            return self.arrays[version]


def _writer_loop(writer, base, history, errors, stop, seed, n_bursts=8):
    rng = np.random.default_rng(seed)
    arr = base.copy()
    try:
        for _ in range(n_bursts):
            for _ in range(int(rng.integers(1, 4))):
                kind = int(rng.integers(0, 3))
                if kind == 0:
                    values = rng.integers(
                        0, DOMAIN, size=int(rng.integers(1, 60))
                    ).astype(np.int64)
                    writer.insert(values)
                    arr = np.concatenate([arr, values])
                elif kind == 1:
                    low = int(rng.integers(0, DOMAIN))
                    high = low + int(rng.integers(0, DOMAIN // 20))
                    writer.delete("ra", low, high)
                    arr = arr[~((arr >= low) & (arr <= high))]
                else:
                    low = int(rng.integers(0, DOMAIN))
                    high = low + int(rng.integers(0, DOMAIN // 50))
                    value = int(rng.integers(0, DOMAIN))
                    writer.update("ra", low, high, value)
                    mask = (arr >= low) & (arr <= high)
                    arr = np.concatenate(
                        [arr[~mask], np.full(int(mask.sum()), value, dtype=np.int64)]
                    )
            versions = writer.commit()
            history.record(versions["ra"], arr)
            time.sleep(0.002)  # let readers interleave between bursts
    except Exception as exc:  # surfaced by the main thread
        errors.append(exc)
    finally:
        stop.set()


def _reader_loop(view, observations, errors, stop, seed):
    rng = np.random.default_rng(seed)

    def one_range():
        low = int(rng.integers(0, DOMAIN - DOMAIN // 10))
        return low, low + int(rng.integers(1, DOMAIN // 10))

    def step():
        kind = int(rng.integers(0, 10))
        if kind == 9:
            view.refresh()
            return
        pinned = view.snapshot_version("ra")
        if kind >= 7:  # vectorized batch — all answers must share one version
            bounds = [one_range() for _ in range(4)]
            lows = [b[0] for b in bounds]
            highs = [b[1] for b in bounds]
            sums, counts = view.search_many("ra", lows, highs)
            for (low, high), s, c in zip(bounds, sums, counts):
                observations.append((pinned, low, high, int(s), int(c)))
        else:
            low, high = one_range()
            result = view.between("ra", low, high)
            observations.append((pinned, low, high, int(result.value_sum), int(result.count)))

    try:
        while not stop.is_set():
            step()
        # Stale-pin tail: the structure keeps tracking newer committed
        # writes, so these exercise the backward version correction.
        for _ in range(5):
            step()
        view.refresh()
        for _ in range(10):
            step()
    except Exception as exc:
        errors.append(exc)


def _run_harness(method: str, budget_factory, n_readers: int = 3, seed: int = 101):
    base = _base_data()
    session = IndexingSession(Column(base.copy(), name="ra"))
    session.create_index("ra", method=method, budget=budget_factory())
    engine = SharedEngine(session)
    history = _History(base)
    errors: list = []
    observations: list = []
    stop = threading.Event()

    writer = engine.acquire_writer()
    threads = [
        threading.Thread(
            target=_writer_loop,
            args=(writer, base, history, errors, stop, seed),
        )
    ]
    views = [
        engine.reader("interactive" if i % 2 == 0 else "batch")
        for i in range(n_readers)
    ]
    threads += [
        threading.Thread(
            target=_reader_loop,
            args=(view, observations, errors, stop, seed + 100 + i),
        )
        for i, view in enumerate(views)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "harness thread hung"
    writer.release()
    return engine, history, observations, errors


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("method", FAMILIES)
def test_readers_match_serial_replay_oracle(method, policy_name):
    engine, history, observations, errors = _run_harness(
        method, POLICIES[policy_name]
    )
    assert not errors, f"harness thread failed: {errors[0]!r}"
    assert len(history.arrays) > 1, "the writer committed nothing"
    assert observations, "no reader observations collected"

    pinned_seen = set()
    for pinned, low, high, value_sum, count in observations:
        pinned_seen.add(pinned)
        expected_sum, expected_count = _brute(history.at(pinned), low, high)
        assert count == expected_count, (
            f"[{method}/{policy_name}] count at pinned v{pinned} "
            f"({low}..{high}): {count} != {expected_count}"
        )
        assert value_sum == expected_sum, (
            f"[{method}/{policy_name}] sum at pinned v{pinned} "
            f"({low}..{high}): {value_sum} != {expected_sum}"
        )
    # The interleavings must actually have spanned versions: at minimum the
    # initial pin and the post-stop refresh to the final commit.
    assert len(pinned_seen) >= 2, "readers never observed more than one version"


def test_converged_family_serves_lockfree_reads():
    """Post-convergence PQ answers through the shared (lock-free) lane."""
    engine, history, observations, errors = _run_harness("PQ", lambda: FixedDelta(0.5))
    assert not errors
    # Drive well past convergence single-threadedly, then read again.
    view = engine.reader("interactive")
    index = engine.session.index_for("ra")
    lane = engine.scheduler.lane_for(index)
    for _ in range(200):
        view.between("ra", 100_000, 300_000)
        if lane.lockfree_reads > 0:
            break
    assert lane.lockfree_reads > 0, (
        f"converged PQ never took the lock-free path: {engine.scheduler.stats()['lanes']}"
    )


def test_readers_never_see_a_torn_pending_state():
    """Readers loop while the writer thread absorbs (outside any lane, the
    way ``Database.checkpoint()`` does from the application thread) and
    their own serialized reads fold: every lock-free answer is built from
    one published (buffers, watermark) pair, so none may mix two."""
    rows = 40_000  # merge trigger 156: room to absorb many times before a fold
    base = np.random.default_rng(23).integers(0, DOMAIN, size=rows, dtype=np.int64)
    session = IndexingSession(Column(base.copy(), name="ra"))
    index = session.create_index("ra", method="PQ", budget=FixedDelta(0.5))
    while not index.converged:
        session.between("ra", 0, DOMAIN)
    engine = SharedEngine(session)
    lane = engine.scheduler.lane_for(index)
    history = _History(base)
    errors: list = []
    observations: list = []
    stop = threading.Event()
    writer = engine.acquire_writer()

    def write_absorb_fold():
        rng = np.random.default_rng(29)
        arr = base.copy()
        try:
            for burst in range(90):
                values = rng.integers(0, DOMAIN, size=int(rng.integers(1, 8))).astype(np.int64)
                writer.insert(values)
                arr = np.concatenate([arr, values])
                if burst % 3 == 0:
                    low = int(rng.integers(0, DOMAIN))
                    writer.delete("ra", low, low + 40)
                    arr = arr[~((arr >= low) & (arr <= low + 40))]
                history.record(writer.commit()["ra"], arr)
                # Below the trigger nobody else absorbs (readers stay on the
                # shared lane); past it the readers' serialized reads do.
                if not index.has_pending_merge():
                    index._absorb_raw()
        except Exception as exc:
            errors.append(exc)
        finally:
            stop.set()

    views = [engine.reader("interactive") for _ in range(3)]
    threads = [threading.Thread(target=write_absorb_fold)] + [
        threading.Thread(target=_reader_loop, args=(view, observations, errors, stop, 300 + i))
        for i, view in enumerate(views)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "harness thread hung"
    finally:
        sys.setswitchinterval(interval)
    writer.release()
    assert not errors, f"harness thread failed: {errors[0]!r}"
    stats = index.overlay_stats()
    assert stats["rows_absorbed"] > 0 and stats["folds_completed"] >= 1
    assert lane.lockfree_reads > 0 and len(observations) > 100
    for pinned, low, high, value_sum, count in observations:
        assert (value_sum, count) == _brute(history.at(pinned), low, high), (
            f"pinned v{pinned} ({low}..{high})")
    state = index._pending
    assert state.ins_cursor + state.del_cursor == state.absorbed_seq


def test_uncommitted_writes_are_invisible_to_readers():
    """No phantom deltas: only commit + refresh moves what a reader sees."""
    base = _base_data()
    session = IndexingSession(Column(base.copy(), name="ra"))
    session.create_index("ra", method="PQ", budget=FixedDelta(0.25))
    engine = SharedEngine(session)
    writer = engine.acquire_writer()

    sentinel = DOMAIN + 7
    before = engine.reader("interactive")
    writer.insert([sentinel] * 5)

    # Pinned before the write and pinned after the (uncommitted) write both
    # see the committed state only.
    after_write = engine.reader("interactive")
    for view in (before, after_write):
        assert view.equals("ra", sentinel).count == 0
        s, c = _brute(base, 0, DOMAIN)
        assert view.between("ra", 0, DOMAIN).count == c

    writer.commit()
    # Commit alone must not move an existing pin...
    assert before.equals("ra", sentinel).count == 0
    # ...until the reader re-pins.
    before.refresh()
    assert before.equals("ra", sentinel).count == 5
    writer.release()


def test_socket_service_end_to_end(tmp_path):
    """The differential contract holds over the wire too."""
    base = _base_data()
    session = IndexingSession(Column(base.copy(), name="ra"))
    session.create_index("ra", method="PQ", budget=FixedDelta(0.25))
    server = QueryServer(session=session, address=str(tmp_path / "svc.sock"))
    server.start()
    try:
        with ServiceClient(server.endpoint, role="writer") as writer:
            # Single-writer: a second writer hello is refused.
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(server.endpoint, role="writer")
            assert excinfo.value.code == "writer-busy"

            with ServiceClient(server.endpoint, role="reader") as reader:
                expected_sum, expected_count = _brute(base, 100, 600_000)
                answer = reader.between("ra", 100, 600_000)
                assert answer["count"] == expected_count
                assert answer["sum"] == expected_sum

                writer.insert([DOMAIN + 1] * 3)
                assert reader.equals("ra", DOMAIN + 1)["count"] == 0  # uncommitted
                writer.commit()
                assert reader.equals("ra", DOMAIN + 1)["count"] == 0  # still pinned
                reader.refresh()
                assert reader.equals("ra", DOMAIN + 1)["count"] == 3

                bounds = [[0, 250_000], [250_001, 500_000], [DOMAIN + 1, DOMAIN + 1]]
                batch = reader.batch("ra", bounds)
                live = np.concatenate([base, [DOMAIN + 1] * 3])
                for (low, high), s, c in zip(bounds, batch["sums"], batch["counts"]):
                    es, ec = _brute(live, low, high)
                    assert (s, c) == (es, ec)

                status = reader.status()
                assert "scheduler" in status and "ra" in status["indexes"]
        # The writer slot frees on disconnect: a new writer may attach.
        with ServiceClient(server.endpoint, role="writer") as writer2:
            writer2.insert([DOMAIN + 2])
            writer2.commit()
    finally:
        server.stop()


def test_writer_reattaches_right_after_bye(tmp_path, monkeypatch):
    """The server frees the writer slot before it acks ``bye``: a client that
    closes and re-attaches as the writer at once is never refused, however
    late the old connection's thread gets to close its socket."""
    from repro.serve.connection import ClientConnection

    teardown = ClientConnection._teardown

    def slow_teardown(self):
        time.sleep(0.002)
        teardown(self)

    monkeypatch.setattr(ClientConnection, "_teardown", slow_teardown)
    session = IndexingSession(Column(_base_data(), name="ra"))
    server = QueryServer(session=session, address=str(tmp_path / "svc.sock")).start()
    try:
        for _ in range(50):
            ServiceClient(server.endpoint, role="writer").close()
    finally:
        server.stop()


def test_refused_writer_closes_its_socket(tmp_path, monkeypatch):
    """A hello refused with writer-busy leaves no socket open for GC."""
    import gc
    import socket
    import warnings

    session = IndexingSession(Column(_base_data(), name="ra"))
    server = QueryServer(session=session, address=str(tmp_path / "svc.sock"))
    server.start()
    created = []

    class RecordingSocket(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    try:
        with ServiceClient(server.endpoint, role="writer"):
            monkeypatch.setattr(socket, "socket", RecordingSocket)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(ServiceError) as excinfo:
                    ServiceClient(server.endpoint, role="writer")
                monkeypatch.undo()
                assert excinfo.value.code == "writer-busy"
                # The client's socket exists before it connects, so before
                # the server accepts (and wraps) the other end.
                refused = created[0]
                assert refused.fileno() == -1
                del excinfo, refused
                created.clear()
                gc.collect()
            assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    finally:
        server.stop()


@pytest.mark.parametrize("address", ["unix", ("127.0.0.1", 0)], ids=["unix", "tcp"])
def test_stop_returns_promptly_after_serving_a_client(tmp_path, address):
    """Closing the listener does not wake a thread parked in accept(): once
    a connection had been accepted, stop() used to sit out its 5 s join."""
    session = IndexingSession(Column(_base_data(), name="ra"))
    session.create_index("ra", method="PQ", budget=FixedDelta(0.25))
    if address == "unix":
        address = str(tmp_path / "svc.sock")
    server = QueryServer(session=session, address=address).start()
    with ServiceClient(server.endpoint) as client:
        assert client.between("ra", 0, DOMAIN)["count"] == ROWS
    started = time.perf_counter()
    server.stop()
    assert time.perf_counter() - started < 0.5
    assert not server.running and not server._accept_thread.is_alive()


def test_snapshot_cache_is_thread_safe_under_hammer():
    """Regression: the per-column snapshot LRU races under concurrent readers.

    Before the cache got its lock, concurrent ``snapshot()`` calls corrupted
    the shared ``OrderedDict`` (``move_to_end``/evict racing lookup) and
    raised ``KeyError``/``RuntimeError``.  Hammer it from 8 threads across
    far more versions than ``SNAPSHOT_CACHE_SIZE`` keeps, so every hit path,
    miss path and eviction runs concurrently.
    """
    session = IndexingSession(Column(_base_data(), name="ra"))
    column = session.table.column("ra")
    rng = np.random.default_rng(5)
    versions = [0]
    expected = {0: (int(column.data.sum()), len(column))}
    for _ in range(6 * SNAPSHOT_CACHE_SIZE):
        session.insert(rng.integers(0, DOMAIN, size=3).astype(np.int64))
        session.commit_writes()
        version = column.version
        versions.append(version)
        snap = column.snapshot(version)
        expected[version] = (int(snap.data.sum()), len(snap.data))

    errors: list = []
    barrier = threading.Barrier(8)

    def hammer(seed):
        thread_rng = np.random.default_rng(seed)
        try:
            barrier.wait()
            for _ in range(400):
                version = versions[int(thread_rng.integers(0, len(versions)))]
                snap = column.snapshot(version)
                data = snap.data
                assert (int(data.sum()), len(data)) == expected[version]
                column.cached_snapshot_versions()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(31 + i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not errors, f"snapshot cache raced: {errors[0]!r}"
    assert len(column.cached_snapshot_versions()) <= SNAPSHOT_CACHE_SIZE

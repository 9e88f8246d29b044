"""The pending-delta read path: a converged read with writes not yet folded.

With a delta pending below the merge trigger, ``index.query`` is the clean
steady read plus one overlay correction — two reads of the sorted side
buffers (:class:`~repro.core.query.SortedLeaf`, published with the raw-window
cursors as one :class:`~repro.core.overlay.PendingState`) and a mask over the
small raw window — and still builds no per-query bookkeeping.  These tests
hold every facade against a list model through interleaved writes, commits,
checkpoints and restarts across the absorb threshold and the merge trigger,
recount the O(1) bookkeeping by brute force, and guard the allocations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, IndexingSession, SharedEngine, Table, obs
from repro.core.cost_model import CostBreakdown
from repro.core.index import QueryStats
from repro.core.overlay import DeltaOverlay
from repro.core.phase import IndexPhase
from repro.core.query import Predicate

FAMILIES = ("PQ", "PMSD", "PLSD", "PB", "FI")
DTYPES = (np.int64, np.float64)

#: Base rows: the merge trigger (rows / 256) sits well above the absorb
#: threshold, so a delta can be absorbed into the buffers without folding.
ROWS = 40_000
DOMAIN = 1_000_000
TRIGGER = max(DeltaOverlay.ABSORB_THRESHOLD, int(ROWS * DeltaOverlay.MERGE_TRIGGER_FRACTION))


def base_rows(dtype) -> np.ndarray:
    values = np.random.default_rng(13).integers(0, DOMAIN, size=ROWS)
    return values.astype(dtype) if dtype is np.int64 else values / 4.0


def model(rows, low, high):
    matching = [v for v in rows if low <= v <= high]
    return sum(matching), len(matching)


def agrees(got, want, dtype) -> bool:
    got_sum, got_count = got
    if int(got_count) != want[1]:
        return False
    if dtype is np.int64:
        return int(got_sum) == want[0]
    return abs(float(got_sum) - want[0]) <= 1e-9 * max(abs(want[0]), 1.0) * 1e3


def converge(index, probe: Predicate) -> None:
    for _ in range(400):
        if index.converged:
            return
        index.query(probe)
    raise AssertionError(f"{index.name} did not converge")


def recount(index) -> dict:
    """The overlay's bookkeeping, counted from the delta logs themselves."""
    delta = index.live_column.delta
    state = index._pending
    folded = index._folded_seq
    version = index.live_column.version
    if delta is None:
        return {"pending": 0, "raw": 0, "cursors": (0, 0)}
    return {
        "pending": int(delta.insert_window(folded, version).size
                       + delta.delete_window(folded, version).size),
        "raw": int(delta.insert_window(state.absorbed_seq, version).size
                   + delta.delete_window(state.absorbed_seq, version).size),
        "cursors": (int((delta._ins_seq.values <= state.absorbed_seq).sum()),
                    int((delta._del_seq.values <= state.absorbed_seq).sum())),
    }


def assert_bookkeeping(index) -> None:
    counted = recount(index)
    stats = index.overlay_stats()
    state = index._pending
    assert index.pending_delta_rows() == stats["pending_rows"] == counted["pending"]
    assert stats["raw_rows"] == counted["raw"]
    assert stats["buffered_rows"] + stats["spilled_rows"] + stats["raw_rows"] == counted["pending"]
    assert (state.ins_cursor, state.del_cursor) == counted["cursors"]
    assert stats["merge_trigger_rows"] == index.merge_trigger_rows()


# ----------------------------------------------------------------------
# Every facade, through writes, commits, checkpoints and restarts
# ----------------------------------------------------------------------
class Facades:
    """One column behind every read facade, and the list model beside it.

    ``db`` is read through ``index.query`` / ``search_many`` /
    ``session.between`` / ``Database.between`` and is the one checkpointed
    and restarted; ``served`` is its in-memory twin behind a
    ``SharedEngine`` (whose scheduler owns that index), read through a
    ``ReaderView`` that stays pinned until it is refreshed.
    """

    def __init__(self, directory, method: str, dtype) -> None:
        self.dtype = dtype
        self.directory = str(directory)
        data = base_rows(dtype)
        self.live = data.tolist()
        self.committed = list(self.live)
        self.pinned = list(self.live)
        probe = Predicate(data.min(), data.max())
        self.db = Database.create(self.directory, {"v": data.copy()})
        self.index = self.db.create_index("v", method=method, fixed_delta=0.25)
        converge(self.index, probe)
        served = IndexingSession(Table({"v": data.copy()}))
        converge(served.create_index("v", method=method, fixed_delta=0.25), probe)
        engine = SharedEngine(served)
        self.writer = engine.acquire_writer()
        self.reader = engine.reader()
        # What the index's own counters must read, counted here.
        self.executed = self.index.queries_executed
        self.per_phase = {phase: self.index.lifecycle.queries_in(phase) for phase in IndexPhase}
        self.phases_read = set()
        self.checkpoint()

    # -- writes --------------------------------------------------------
    def insert(self, values) -> None:
        values = np.asarray(values, dtype=self.dtype)
        self.live.extend(values.tolist())
        self.db.insert(values)
        self.writer.insert(values)

    def delete(self, low, high) -> None:
        if all(low <= v <= high for v in self.live):
            return  # a column keeps at least one row
        self.live = [v for v in self.live if not low <= v <= high]
        self.db.delete("v", low, high)
        self.writer.delete("v", low, high)

    def update(self, low, high, value) -> None:
        hit = sum(1 for v in self.live if low <= v <= high)
        self.live = [v for v in self.live if not low <= v <= high] + [value] * hit
        self.db.update("v", low, high, value)
        self.writer.update("v", low, high, value)

    def commit(self) -> None:
        self.db.commit()
        self.writer.commit()
        self.committed = list(self.live)

    def refresh(self) -> None:
        self.reader.refresh()
        self.pinned = list(self.committed)

    def checkpoint(self) -> None:
        self.commit()
        self.db.checkpoint()
        self.checkpointed = (self.executed, dict(self.per_phase))

    def restore(self) -> None:
        """Commit, close without a checkpoint, reopen: checkpoint + WAL tail."""
        self.commit()
        self.db.close(checkpoint=False)
        self.db = Database.open(self.directory)
        self.index = self.db.index_for("v")
        self.executed, per_phase = self.checkpointed
        self.per_phase = dict(per_phase)

    # -- reads ---------------------------------------------------------
    def counted(self, read):
        """Run one direct read and account it the way the index must."""
        self.per_phase[self.index.phase] += 1
        self.phases_read.add(self.index.phase)
        self.executed += 1
        return read()

    def check(self, low, high, what: str) -> None:
        want = model(self.live, low, high)
        index, db = self.index, self.db
        reads = {
            "index.query": lambda: self.counted(lambda: index.query(Predicate(low, high))),
            "session.between": lambda: self.counted(lambda: db.session.between("v", low, high)),
            "Database.between": lambda: self.counted(lambda: db.between("v", low, high)),
        }
        for where, read in reads.items():
            result = read()
            assert agrees((result.value_sum, result.count), want, self.dtype), (
                f"{what}: {where} [{low}, {high}] got {(result.value_sum, result.count)}, want {want}")
        sums, counts = index.search_many(np.array([low]), np.array([high]))
        assert agrees((sums[0], counts[0]), want, self.dtype), f"{what}: search_many"
        # The pinned view answers at its pin, whatever was written or committed since.
        want = model(self.pinned, low, high)
        result = self.reader.between("v", low, high)
        assert agrees((result.value_sum, result.count), want, self.dtype), (
            f"{what}: ReaderView.between [{low}, {high}] got "
            f"{(result.value_sum, result.count)}, want {want}")
        sums, counts = self.reader.search_many("v", [low], [high])
        assert agrees((sums[0], counts[0]), want, self.dtype), f"{what}: ReaderView.search_many"

    def assert_counters(self) -> None:
        index = self.index
        assert index.queries_executed == self.executed
        for phase in IndexPhase:
            assert index.lifecycle.queries_in(phase) == self.per_phase[phase], phase
        assert_bookkeeping(index)

    def close(self) -> None:
        self.writer.release()
        self.db.close(checkpoint=False)


def bounds(dtype):
    low = st.integers(0, DOMAIN)
    pair = st.tuples(low, st.integers(0, DOMAIN // 50)).map(lambda p: (p[0], p[0] + p[1]))
    if dtype is np.float64:
        return pair.map(lambda p: (p[0] / 4.0, p[1] / 4.0))
    return pair


def steps(dtype):
    value = st.integers(0, DOMAIN) if dtype is np.int64 else st.integers(0, DOMAIN).map(lambda v: v / 4.0)
    narrow = st.tuples(st.integers(0, DOMAIN), st.integers(0, 40)).map(
        lambda p: (p[0], p[0] + p[1]) if dtype is np.int64 else (p[0] / 4.0, (p[0] + p[1]) / 4.0))
    return st.lists(
        st.one_of(
            # Bursts on both sides of the absorb threshold (64) and, summed
            # over a few steps, of the merge trigger (156).
            st.tuples(st.just("insert"), st.lists(value, min_size=1, max_size=110)),
            st.tuples(st.just("delete"), narrow),
            st.tuples(st.just("update"), narrow, value),
            st.tuples(st.just("read"), bounds(dtype)),
            st.just(("commit",)), st.just(("refresh",)),
            st.just(("checkpoint",)), st.just(("restore",)),
        ),
        min_size=8, max_size=16,
    )


@pytest.mark.parametrize("dtype", DTYPES, ids=["int64", "float64"])
@pytest.mark.parametrize("method", FAMILIES)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_facade_matches_the_model_through_pending_writes(method, dtype, tmp_path_factory, data):
    facades = Facades(tmp_path_factory.mktemp("pending"), method, dtype)
    try:
        whole = (0, DOMAIN)
        for number, step in enumerate(data.draw(steps(dtype))):
            kind = step[0]
            if kind == "insert":
                facades.insert(step[1])
            elif kind == "delete":
                facades.delete(*step[1])
            elif kind == "update":
                facades.update(*step[1], step[2])
            elif kind == "read":
                facades.check(*step[1], f"step {number}")
            else:
                getattr(facades, kind)()
            # One whole-domain read per step keeps absorbs and merges moving.
            facades.check(*whole, f"step {number} ({kind}), whole domain")
            facades.assert_counters()
        # Whatever the draw did, end past the trigger and run the merge to
        # its fold: the answers hold throughout, mid-MERGE included.
        facades.insert(data.draw(st.lists(st.integers(0, DOMAIN), min_size=TRIGGER, max_size=TRIGGER)))
        assert facades.index.has_pending_merge()
        for _ in range(60):
            if facades.index.phase is IndexPhase.CONVERGED and not facades.index.has_pending_merge():
                break
            facades.check(*whole, "draining the merge")
            facades.assert_counters()
        assert IndexPhase.MERGE in facades.phases_read, "no read was checked mid-MERGE"
        assert facades.index.phase is IndexPhase.CONVERGED
        assert facades.index.pending_delta_rows() < TRIGGER
        assert facades.index.overlay_stats()["folds_completed"] >= 1
    finally:
        facades.close()


# ----------------------------------------------------------------------
# Restart in the middle of a MERGE, with a partly absorbed delta
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["PQ", "FI"])
def test_restore_mid_merge_recomputes_the_cursors(method, tmp_path):
    data = base_rows(np.int64)
    rows = data.tolist()
    db = Database.create(str(tmp_path), {"v": data.copy()})
    # A small fixed delta: the fold takes many queries to pay for.
    index = db.create_index("v", method=method, fixed_delta=0.02)
    converge(index, Predicate(0, DOMAIN))
    rng = np.random.default_rng(5)

    burst = rng.integers(0, DOMAIN, size=TRIGGER + 20)
    db.insert(burst)
    rows += burst.tolist()
    db.delete("v", 1_000, 3_000)
    rows = [v for v in rows if not 1_000 <= v <= 3_000]
    for _ in range(3):
        db.between("v", 0, DOMAIN)
    assert index.phase is IndexPhase.MERGE and index.overlay_stats()["buffered_rows"] > 0
    db.checkpoint()  # absorbs everything written so far
    absorbed = index._pending.absorbed_seq
    # The WAL tail: committed after the checkpoint, raw after the restart.
    tail = rng.integers(0, DOMAIN, size=30)
    db.insert(tail)
    rows += tail.tolist()
    db.update("v", 500_000, 500_400, 77)
    hit = sum(1 for v in rows if 500_000 <= v <= 500_400)
    rows = [v for v in rows if not 500_000 <= v <= 500_400] + [77] * hit
    db.commit()
    before = index.overlay_stats()
    db.close(checkpoint=False)

    db = Database.open(str(tmp_path))
    try:
        index = db.index_for("v")
        assert index.phase is IndexPhase.MERGE
        state = index._pending
        assert state.absorbed_seq == absorbed < index.live_column.version
        assert_bookkeeping(index)
        after = index.overlay_stats()
        for key in ("pending_rows", "raw_rows", "column_version", "folded_watermark"):
            assert after[key] == before[key], key
        assert after["raw_rows"] == 30 + 2 * hit and after["buffered_rows"] > 0
        for low, high in [(0, DOMAIN), (0, 100), (499_000, 501_000), (77, 77)]:
            result = db.between("v", low, high)
            assert (int(result.value_sum), result.count) == model(rows, low, high)
            sums, counts = index.search_many(np.array([low]), np.array([high]))
            assert (int(sums[0]), int(counts[0])) == model(rows, low, high)
            assert_bookkeeping(index)
        for _ in range(400):
            if index.phase is IndexPhase.CONVERGED:
                break
            db.between("v", 0, DOMAIN)
        assert index.phase is IndexPhase.CONVERGED and index.pending_delta_rows() == 0
        assert index.overlay_stats()["folds_completed"] >= 1
        result = db.between("v", 0, DOMAIN)
        assert (int(result.value_sum), result.count) == model(rows, 0, DOMAIN)
    finally:
        db.close(checkpoint=False)


# ----------------------------------------------------------------------
# The steady state with writes pending: counters exact, nothing allocated
# ----------------------------------------------------------------------
@pytest.fixture
def pending(request):
    data = base_rows(np.int64)
    session = IndexingSession(Table({"v": data}))
    index = session.create_index("v", method=request.param, fixed_delta=0.5)
    converge(index, Predicate(0, DOMAIN))
    # Past the absorb threshold, short of the trigger: buffers and raw window.
    written = np.random.default_rng(17).integers(0, DOMAIN, size=70)
    session.insert(written)
    session.between("v", 0, DOMAIN)
    session.insert(written[:20] + 1)
    session.delete("v", 10_000, 10_500)
    assert not index.has_pending_merge()
    stats = index.overlay_stats()
    assert stats["buffered_rows"] >= 70 and 0 < stats["raw_rows"] < DeltaOverlay.ABSORB_THRESHOLD
    return session, index


@pytest.mark.parametrize("pending", FAMILIES, indirect=True)
def test_pending_reads_allocate_no_bookkeeping(pending, monkeypatch):
    session, index = pending
    built = {"QueryStats": 0, "CostBreakdown": 0}
    for cls in (QueryStats, CostBreakdown):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assert not obs.tracer().enabled
    executed = index.queries_executed
    counted = index.lifecycle.queries_in(IndexPhase.CONVERGED)
    answers = [session.between("v", number * 900, number * 900 + 70_000) for number in range(1_000)]
    assert built == {"QueryStats": 0, "CostBreakdown": 0}
    assert index.queries_executed == executed + 1_000
    assert index.lifecycle.queries_in(IndexPhase.CONVERGED) == counted + 1_000
    assert index.phase is IndexPhase.CONVERGED and index.pending_delta_rows() > 0
    assert_bookkeeping(index)
    # last_stats still answers, from the structural match count.
    stats = index.last_stats
    assert stats.phase is IndexPhase.CONVERGED and stats.query_number == executed + 1_000
    # The same read with its wrappers on: tracing builds the bookkeeping (so
    # the counter does count), names the correction's rows, changes no answer.
    obs.configure(tracing=True)
    try:
        traced = [session.between("v", number * 900, number * 900 + 70_000) for number in range(50)]
        spans = [s for s in obs.tracer().recent() if s["name"] == "overlay.correct"]
    finally:
        obs.configure(tracing=False)
    assert built["QueryStats"] >= 50 and built["CostBreakdown"] >= 50
    assert traced == answers[:50]
    overlay = index.overlay_stats()
    assert spans and spans[-1]["attrs"]["buffer_rows"] == overlay["buffered_rows"]
    assert spans[-1]["attrs"]["raw_rows"] == overlay["raw_rows"]


def test_absorb_publishes_only_what_the_version_it_read_covers():
    """An absorb (a checkpoint's runs outside the work lane) beside an insert
    caught between its value append and its version bump: the published
    buffers, watermark and cursors describe the same rows."""
    session = IndexingSession(Table({"v": base_rows(np.int64)}))
    index = session.create_index("v", method="PQ", fixed_delta=0.5)
    converge(index, Predicate(0, DOMAIN))
    session.insert(np.arange(10, dtype=np.int64))
    session.delete("v", 10_000, 10_200)
    delta = index.live_column.delta
    logged = delta.version
    delta._ins_values.append(np.array([5, 6, 7], dtype=np.int64))  # not sequenced yet
    assert index._absorb_raw() == logged
    state = index._pending
    assert state.absorbed_seq == logged == state.ins_cursor + state.del_cursor
    assert state.ins_leaf.values.size == state.ins_cursor == 10
    assert state.del_leaf.values.size == state.del_cursor == logged - 10
    assert index._absorb_raw() == 0 and index._pending is state


def test_pending_rows_are_in_status_and_in_the_registry():
    session = IndexingSession(Table({"v": base_rows(np.int64)}))
    index = session.create_index("v", method="PQ", fixed_delta=0.5)
    converge(index, Predicate(0, DOMAIN))
    session.insert(np.arange(25))
    session.delete("v", 0, 3)
    writes = session.status()["v"]["writes"]
    pending = recount(index)["pending"]
    assert writes["pending_rows"] == pending >= 25
    assert writes["merge_trigger_rows"] == TRIGGER
    series = [s for s in obs.metrics().snapshot()["series"]
              if s["name"] == "index.overlay.pending.rows" and s["labels"].get("column") == "v"]
    assert series and series[-1]["value"] == pending

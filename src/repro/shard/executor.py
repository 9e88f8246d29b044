"""Per-shard query execution: in-process serial, or a persistent worker pool.

Both executors answer the same question — "run this (budget-capped) query /
batch against the per-shard progressive indexes of a sharded column" — with
the same semantics, so the :class:`~repro.shard.index.ShardedIndex` facade
and the differential tests treat them interchangeably:

* :class:`SerialShardExecutor` keeps the per-shard indexes in the parent
  process and loops over the touched shards.  Writes to the parent shard
  columns are visible to the indexes' delta overlays automatically.
* :class:`ParallelShardExecutor` owns a pool of persistent worker
  *processes*.  Shard ``s`` is pinned to worker ``s % n_workers``, which
  holds that shard's index state for the life of the pool — progressive
  construction accumulates worker-side across queries exactly as it would
  in-process.  The shard base arrays are never pickled: workers re-attach
  zero-copy from the tiny descriptors produced by
  :meth:`~repro.shard.column.ShardedColumn.ensure_shareable` (a
  ``multiprocessing.shared_memory`` segment name, or a column-file path
  mapped via :mod:`repro.persist.pager`).  Delta writes are forwarded to the
  owning workers as explicit small operations over the same FIFO pipes that
  carry queries, so a worker always applies a write before any later query.

Every answer of the parallel executor carries a small per-shard state echo
(:func:`shard_report`) — the only way worker-side phase, convergence and
pending-merge state reaches the parent.  The serial executor sends none:
its indexes live in the parent, where the facade reads them directly.

The per-shard interactivity cap is enforced here, worker-side, where the
index's cost model lives: :func:`execute_shard_query` turns the pooled
controller's per-shard total-time target ``τ_s`` into a
:class:`~repro.core.policy.CappedBudget` allowance ``max(0, τ_s -
predicted_base_cost)`` wrapped around the shard's own policy for the
duration of one query.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.index import BaseIndex
from repro.core.policy import CappedBudget, policy_from_state
from repro.core.query import Predicate
from repro.errors import ExperimentError
from repro.shard.partition import split_rows

#: Pipe receive timeout for worker replies, in seconds.  Generous: a worker
#: may legitimately spend a long time on a large construction step, but a
#: dead worker should not hang the parent forever.
REPLY_TIMEOUT_SECONDS = 600.0


# ----------------------------------------------------------------------
# Shared per-shard execution helpers (used by both executors and workers)
# ----------------------------------------------------------------------
def execute_shard_query(
    index: BaseIndex, predicate: Predicate, shard_budget: Optional[float]
) -> Tuple[object, float]:
    """Run one capped query against a shard index.

    ``shard_budget`` is the pooled controller's per-shard total-time target
    ``τ_s`` (``None`` = uncapped).  The cap is expressed as a
    :class:`~repro.core.policy.CappedBudget` allowance of indexing seconds
    — the shard's own policy keeps choosing (and learning) freely, it just
    cannot overdraw the pool.  Returns ``(result, granted_seconds)``.

    A converged shard with no merge due makes no budget decision at all, so
    it takes the index's steady read as is: nothing to cap, nothing granted.
    """
    if index.converged and not index.has_pending_merge():
        return index.query(predicate), 0.0
    if shard_budget is None or shard_budget == float("inf"):
        result = index.query(predicate)
        return result, float(index.last_stats.indexing_seconds)
    base = index.predict_cost(predicate)
    allowance = (
        float(shard_budget)
        if base is None
        else max(0.0, float(shard_budget) - float(base))
    )
    cap = CappedBudget(index.budget, allowance)
    previous = index.swap_budget(cap)
    try:
        result = index.query(predicate)
    finally:
        index.swap_budget(previous)
    return result, float(cap.granted_seconds)


def shard_report(index: BaseIndex) -> dict:
    """The small per-query state echo piggybacked on every shard answer."""
    return {
        "phase": index.phase.value,
        "converged": bool(index.converged),
        "pending_merge": bool(index.has_pending_merge()),
        "queries_executed": int(index.queries_executed),
    }


def shard_status(index: BaseIndex) -> dict:
    """Full per-shard status (mirrors one ``session.status()`` entry)."""
    return {
        "algorithm": index.name,
        "phase": index.phase.value,
        "converged": bool(index.converged),
        "queries_executed": int(index.queries_executed),
        "memory_bytes": int(index.memory_footprint()),
        "budget": index.budget.describe(),
        "phase_stats": index.lifecycle.snapshot(),
        "writes": index.overlay_stats(),
    }


def _run_shard_batch(index: BaseIndex, lows, highs) -> Tuple[list, list]:
    """Execute a per-shard sub-batch through the standard batch machinery.

    Reuses :class:`~repro.engine.batch.BatchExecutor` unchanged, so the
    per-shard pooled reservoir, the progressive front-loading and the
    vectorized ``search_many`` tail all behave exactly as they do on an
    unsharded index.
    """
    from repro.engine.batch import BatchExecutor

    predicates = [Predicate(low, high) for low, high in zip(lows, highs)]
    batch = BatchExecutor().execute(index, predicates)
    sums = [result.value_sum for result in batch.results]
    counts = [int(result.count) for result in batch.results]
    return sums, counts


# ----------------------------------------------------------------------
# Serial executor
# ----------------------------------------------------------------------
class SerialShardExecutor:
    """Loops over the touched shards in the parent process.

    The per-shard indexes are built over the parent's live shard columns, so
    delta-store writes are visible to their overlays without any forwarding.
    """

    parallelism = 1

    def __init__(self, indexes: Sequence[BaseIndex]) -> None:
        self._indexes = list(indexes)

    @property
    def indexes(self) -> List[BaseIndex]:
        """The per-shard indexes (exposed for tests and status)."""
        return self._indexes

    def query(
        self, shard_numbers: Sequence[int], predicate: Predicate,
        shard_budget: Optional[float], trace_ctx: Optional[dict] = None,
    ) -> tuple:
        """``(value_sum, count, granted_seconds, reports)`` over the shards.

        ``trace_ctx`` is accepted for signature parity with the parallel
        executor; in-process the tracer's ambient current span already
        parents the per-shard spans.
        """
        tracer = obs.tracer()
        tracing = tracer.enabled
        value_sum = count = 0
        granted = 0.0
        for shard_number in shard_numbers:
            index = self._indexes[shard_number]
            if tracing:
                with tracer.span("shard.query", shard=shard_number):
                    result, seconds = execute_shard_query(index, predicate, shard_budget)
            else:
                result, seconds = execute_shard_query(index, predicate, shard_budget)
            value_sum += result.value_sum
            count += result.count
            granted += seconds
        return value_sum, count, granted, {}

    def execute_batch(self, per_shard: Dict[int, tuple]) -> tuple:
        """``({shard: (sums, counts)}, reports)`` for per-shard sub-batches."""
        answers = {
            shard_number: _run_shard_batch(self._indexes[shard_number], lows, highs)
            for shard_number, (lows, highs) in per_shard.items()
        }
        return answers, {}

    def search_many(self, per_shard: Dict[int, tuple]) -> Dict[int, Optional[tuple]]:
        """Read-only vectorized lookups; ``None`` per shard that cannot yet."""
        return {
            shard_number: self._indexes[shard_number].search_many(lows, highs)
            for shard_number, (lows, highs) in per_shard.items()
        }

    def status(self) -> Dict[int, dict]:
        return {
            shard_number: shard_status(index)
            for shard_number, index in enumerate(self._indexes)
        }

    def close(self) -> None:
        """Nothing to release in-process."""

    def __enter__(self) -> "SerialShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _attach_shard_column(descriptor: dict, name: str):
    """Rebuild a shard's column zero-copy from its share descriptor.

    Returns ``(column, segment_or_None)``; the caller must keep the
    shared-memory segment referenced while the column is alive.
    """
    from repro.storage.column import Column

    if descriptor["kind"] == "file":
        return Column.from_file(descriptor["path"], name=name), None
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=descriptor["name"])
    # Attaching re-registers the segment name, but workers inherit the
    # parent's resource-tracker process, whose registry is a set — the
    # parent's create already holds the entry and its unlink (the
    # ShardedColumn finalizer) balances it, so no per-worker unregister
    # is needed (and an extra one would desync the tracker).
    array = np.ndarray(
        (int(descriptor["size"]),),
        dtype=np.dtype(descriptor["dtype"]),
        buffer=segment.buf,
    )
    return Column(array, name=name), segment


def _worker_main(connection, shard_numbers: List[int], spec: dict) -> None:
    """Entry point of one pool worker: build shard indexes, serve tasks.

    The worker owns the full index state of its shards; tasks arrive over a
    FIFO pipe so a forwarded write is always applied before any query sent
    after it.  Tasks that expect no reply (writes) defer their errors to the
    next replying task rather than dying silently.
    """
    from repro.engine.registry import create_index

    columns = {}
    segments = []
    indexes = {}
    for shard_number, descriptor in zip(shard_numbers, spec["descriptors"]):
        column, segment = _attach_shard_column(descriptor, spec["column_name"])
        columns[shard_number] = column
        if segment is not None:
            segments.append(segment)
        policy_state = spec.get("policy")
        indexes[shard_number] = create_index(
            spec["algorithm"],
            column,
            budget=(
                policy_from_state(policy_state)
                if policy_state is not None
                else None
            ),
            constants=spec.get("constants"),
            **spec.get("kwargs", {}),
        )

    deferred_error: Optional[str] = None
    while True:
        try:
            kind, payload = connection.recv()
        except (EOFError, OSError):
            break
        if kind == "close":
            connection.send(("ok", None))
            break
        expects_reply = kind not in ("insert", "delete")
        try:
            if deferred_error is not None:
                error, deferred_error = deferred_error, None
                raise ExperimentError(
                    f"a forwarded shard write failed in this worker:\n{error}"
                )
            if kind == "query":
                # The dispatch carries the parent's trace context (``None``
                # untraced); the worker activates it, captures every span
                # finished inside, and ships them back with the answers so
                # the parent's trace shows the per-shard children.
                tracer = obs.tracer()
                with tracer.collect(payload["trace"]) as captured:
                    answers = {}
                    for shard_number, low, high, shard_budget in payload["items"]:
                        index = indexes[shard_number]
                        with tracer.span("shard.query", shard=shard_number,
                                         worker_pid=os.getpid()):
                            result, granted = execute_shard_query(
                                index, Predicate(low, high), shard_budget
                            )
                        answers[shard_number] = (
                            result.value_sum, int(result.count), granted,
                            shard_report(index),
                        )
                reply = {"answers": answers, "spans": captured}
            elif kind == "batch":
                reply = {
                    shard_number: (
                        _run_shard_batch(indexes[shard_number], lows, highs),
                        shard_report(indexes[shard_number]),
                    )
                    for shard_number, lows, highs in payload
                }
            elif kind == "search":
                reply = {
                    shard_number: indexes[shard_number].search_many(lows, highs)
                    for shard_number, lows, highs in payload
                }
            elif kind == "insert":
                for shard_number, values in payload:
                    columns[shard_number].insert(values)
                continue
            elif kind == "delete":
                for shard_number, local_rids in payload:
                    columns[shard_number].delete_rows(local_rids)
                continue
            elif kind == "status":
                reply = {
                    shard_number: shard_status(index)
                    for shard_number, index in indexes.items()
                }
            else:
                raise ExperimentError(f"unknown shard-worker task {kind!r}")
        except Exception:
            message = traceback.format_exc()
            if expects_reply:
                connection.send(("err", message))
            else:
                deferred_error = message
            continue
        connection.send(("ok", reply))
    connection.close()


# ----------------------------------------------------------------------
# Parallel executor
# ----------------------------------------------------------------------
def _shutdown_workers(workers: list) -> None:
    """Best-effort pool teardown shared by close() and the GC finalizer."""
    for connection, process in workers:
        try:
            connection.send(("close", None))
        except (BrokenPipeError, OSError):
            pass
    for connection, process in workers:
        try:
            if connection.poll(1.0):
                connection.recv()
        except (EOFError, OSError):
            pass
        try:
            connection.close()
        except OSError:
            pass
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=5.0)
    workers.clear()


class ParallelShardExecutor:
    """A persistent worker pool owning the per-shard index state.

    Parameters
    ----------
    column:
        The sharded column; :meth:`~repro.shard.column.ShardedColumn.
        ensure_shareable` must be callable (no writes yet), and its write
        stream is mirrored into the workers from here on.
    algorithm:
        Registry acronym of the per-shard index family.
    policy_state:
        :func:`~repro.core.policy.policy_state_dict` of the per-shard budget
        policy (every shard rebuilds its own independent instance).
    constants:
        Optional :class:`~repro.core.calibration.CostConstants` shared by
        the shard indexes (small frozen dataclass, shipped by value).
    n_workers:
        Worker processes; clamped to the shard count.
    spill_dir:
        Forwarded to ``ensure_shareable``: write shard bases as mmap'd
        column files here instead of anonymous shared memory.
    index_kwargs:
        Extra keyword arguments for the per-shard index constructors.
    """

    def __init__(
        self,
        column,
        algorithm: str,
        policy_state: dict,
        constants=None,
        n_workers: int = 2,
        spill_dir: Optional[str] = None,
        index_kwargs: Optional[dict] = None,
    ) -> None:
        descriptors = column.ensure_shareable(spill_dir)
        n_shards = column.n_shards
        n_workers = max(1, min(int(n_workers), n_shards))
        self.parallelism = n_workers
        self._owner = [shard % n_workers for shard in range(n_shards)]
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: List[tuple] = []
        for worker_number in range(n_workers):
            owned = [
                shard for shard in range(n_shards)
                if self._owner[shard] == worker_number
            ]
            spec = {
                "descriptors": [descriptors[shard] for shard in owned],
                "column_name": column.name,
                "algorithm": str(algorithm),
                "policy": policy_state,
                "constants": constants,
                "kwargs": dict(index_kwargs or {}),
            }
            parent_connection, child_connection = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_connection, owned, spec),
                daemon=True,
                name=f"shard-worker-{worker_number}",
            )
            process.start()
            child_connection.close()
            self._workers.append((parent_connection, process))
        self._column = column
        self._listener = self._forward_write
        column.add_write_listener(self._listener)
        self._finalizer = weakref.finalize(self, _shutdown_workers, self._workers)

    # ------------------------------------------------------------------
    def _collect(self, tasks: Dict[int, tuple]) -> Dict[int, object]:
        """Send one task per worker, then gather the raw per-worker replies.

        ``tasks`` maps worker number to a ``(kind, payload)`` tuple.  Sends
        complete before any receive so the workers run concurrently.
        """
        for worker_number, message in tasks.items():
            self._workers[worker_number][0].send(message)
        replies: Dict[int, object] = {}
        for worker_number in tasks:
            connection = self._workers[worker_number][0]
            if not connection.poll(REPLY_TIMEOUT_SECONDS):
                raise ExperimentError(
                    f"shard worker {worker_number} did not reply within "
                    f"{REPLY_TIMEOUT_SECONDS:.0f}s"
                )
            status, payload = connection.recv()
            if status == "err":
                raise ExperimentError(
                    f"shard worker {worker_number} failed:\n{payload}"
                )
            replies[worker_number] = payload
        return replies

    def _dispatch(self, tasks: Dict[int, tuple]) -> Dict[int, object]:
        """Like :meth:`_collect`, but merges the per-shard reply dicts."""
        merged: Dict[int, object] = {}
        for payload in self._collect(tasks).values():
            merged.update(payload)
        return merged

    def _group(self, items) -> Dict[int, list]:
        """Group per-shard task items by owning worker."""
        grouped: Dict[int, list] = {}
        for item in items:
            grouped.setdefault(self._owner[int(item[0])], []).append(item)
        return grouped

    # ------------------------------------------------------------------
    def query(
        self, shard_numbers: Sequence[int], predicate: Predicate,
        shard_budget: Optional[float], trace_ctx: Optional[dict] = None,
    ) -> tuple:
        """``(value_sum, count, granted_seconds, {shard: report})``.

        ``trace_ctx`` rides along over the pipes; the workers' captured
        child spans are merged into this process's tracer.
        """
        items = [
            (int(shard_number), predicate.low, predicate.high, shard_budget)
            for shard_number in shard_numbers
        ]
        tasks = {
            worker: ("query", {"items": grouped, "trace": trace_ctx})
            for worker, grouped in self._group(items).items()
        }
        answers: Dict[int, tuple] = {}
        for payload in self._collect(tasks).values():
            answers.update(payload["answers"])
            obs.tracer().ingest(payload["spans"])
        value_sum = count = 0
        granted = 0.0
        reports = {}
        for shard_number in sorted(answers):
            shard_sum, shard_count, seconds, reports[shard_number] = answers[shard_number]
            value_sum += shard_sum
            count += shard_count
            granted += seconds
        return value_sum, count, granted, reports

    def _fan_out(self, kind: str, per_shard: Dict[int, tuple]) -> Dict[int, object]:
        """Send per-shard ``(lows, highs)`` sub-batches to the owning workers."""
        items = [
            (int(shard_number), np.asarray(lows), np.asarray(highs))
            for shard_number, (lows, highs) in per_shard.items()
        ]
        return self._dispatch({
            worker: (kind, grouped) for worker, grouped in self._group(items).items()
        })

    def execute_batch(self, per_shard: Dict[int, tuple]) -> tuple:
        """``({shard: (sums, counts)}, {shard: report})``."""
        replies = self._fan_out("batch", per_shard)
        return (
            {shard_number: reply[0] for shard_number, reply in replies.items()},
            {shard_number: reply[1] for shard_number, reply in replies.items()},
        )

    def search_many(self, per_shard: Dict[int, tuple]) -> Dict[int, Optional[tuple]]:
        return self._fan_out("search", per_shard)

    def status(self) -> Dict[int, dict]:
        tasks = {
            worker_number: ("status", None)
            for worker_number in range(len(self._workers))
        }
        return self._dispatch(tasks)

    # ------------------------------------------------------------------
    def _forward_write(self, op: dict) -> None:
        """Mirror a parent-side shard write into the owning workers."""
        if op.get("op") == "insert":
            values = np.asarray(op["values"])
            items = [
                (shard_number, values[positions])
                for shard_number, positions in split_rows(op["shard_ids"], self._column.n_shards)
            ]
            kind = "insert"
        elif op.get("op") == "delete":
            items = [
                (int(shard_number), local_rids)
                for shard_number, local_rids in op["per_shard"].items()
            ]
            kind = "delete"
        else:  # pragma: no cover - future op kinds
            return
        for worker_number, grouped in self._group(items).items():
            self._workers[worker_number][0].send((kind, grouped))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._listener is not None:
            self._column.remove_write_listener(self._listener)
            self._listener = None
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    def __enter__(self) -> "ParallelShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

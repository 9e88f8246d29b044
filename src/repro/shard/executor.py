"""Per-shard query execution: one in-process loop, threads for construction.

:class:`ShardExecutor` answers "run this (budget-capped) query / batch
against the per-shard progressive indexes of a sharded column".  The
indexes live in this process, built over the live shard columns, so
delta-store writes reach their overlays with no forwarding and the
:class:`~repro.shard.index.ShardedIndex` facade reads shard state from
the indexes directly.

A query walks the routed survivors in shard order.  A converged survivor
with no merge due is read inline.  When ``parallelism > 1`` and two or
more survivors still have construction work, those shards run on a
:class:`~concurrent.futures.ThreadPoolExecutor` while the caller reads the
rest; the compiled kernels are ``ctypes`` calls, which release the GIL, so
the construction steps of different shards overlap on different cores.
Each task runs under a copy of the caller's :mod:`contextvars` context, so
its ``shard.query`` span (and the ``kernel_us`` the kernels charge to it)
nests under the caller's ``shard.route`` span as it would inline.  Partial
answers are added in shard order after the join, so answers — float sums
included — are bit-identical to the serial loop.  A shard's index, its
budget controller's cap and its overlay are touched by that shard's task
alone.

The per-shard interactivity cap is enforced here, where the index's cost
model lives: :func:`execute_shard_query` turns the pooled controller's
per-shard total-time target ``τ_s`` into an allowance ``max(0, τ_s -
predicted_base_cost)`` and caps the shard's budget controller at it for
the duration of one query
(:meth:`~repro.core.policy.BudgetController.capped`).
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.index import BaseIndex
from repro.core.query import Predicate, _wrap64

#: The process-wide tracer (a stable singleton, cached for the read path).
_TR = obs.tracer()


def execute_shard_query(
    index: BaseIndex, predicate: Predicate, shard_budget: Optional[float]
) -> Tuple[object, float]:
    """Run one capped query against a shard index.

    ``shard_budget`` is the pooled controller's per-shard total-time target
    ``τ_s`` (``None`` = uncapped).  The cap is an allowance of indexing
    seconds on the shard's budget controller — the shard's own policy keeps
    choosing (and learning) freely, it just cannot overdraw the pool.
    Returns ``(result, granted_seconds)``.

    A converged shard with no merge due makes no budget decision at all, so
    it takes the index's steady read as is: nothing to cap, nothing granted.
    """
    if index.converged and not index.has_pending_merge():
        return index.query(predicate), 0.0
    if shard_budget is None or shard_budget == float("inf"):
        result = index.query(predicate)
        return result, float(index.last_stats.indexing_seconds)
    with index.controller.capped(shard_allowance(shard_budget, index.predict_cost(predicate))) as cap:
        result = index.query(predicate)
    return result, cap.granted_seconds


def shard_allowance(shard_budget: Optional[float], base_seconds: Optional[float]) -> float:
    """Indexing-seconds cap for one shard: ``τ_s`` less the shard's predicted
    no-indexing cost (all of ``τ_s`` for a shard without a cost model;
    uncapped without ``τ_s``)."""
    if shard_budget is None:
        return math.inf
    return float(shard_budget) if base_seconds is None else max(0.0, float(shard_budget) - float(base_seconds))


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


class ShardExecutor:
    """Runs per-shard queries over in-process shard indexes.

    ``dtype`` is the sharded column's (it fixes how partial sums add up).
    ``parallelism`` (clamped to the shard count) is the number of threads
    that may run construction work at once; ``1`` never starts a pool.
    """

    def __init__(
        self, indexes: Sequence[BaseIndex], dtype: np.dtype, parallelism: int = 1
    ) -> None:
        self._indexes = list(indexes)
        dtype = np.dtype(dtype)
        #: Lowest integer sum before wrapping; ``None`` for a float column.
        self._sum_floor = (
            None if dtype.kind not in "iu" else -(1 << 63) if dtype.kind == "i" else 0
        )
        self.parallelism = max(1, min(int(parallelism), len(self._indexes)))
        self._pool: Optional[ThreadPoolExecutor] = None

    @property
    def indexes(self) -> List[BaseIndex]:
        """The per-shard indexes (exposed for tests and status)."""
        return self._indexes

    def _answer(self, shard_number: int, predicate: Predicate,
                shard_budget: Optional[float]) -> Tuple[object, float]:
        """One shard's capped answer, under a ``shard.query`` span if tracing."""
        index = self._indexes[shard_number]
        if _TR.enabled:
            with _TR.span("shard.query", shard=shard_number):
                return execute_shard_query(index, predicate, shard_budget)
        return execute_shard_query(index, predicate, shard_budget)

    def _submit(self, function, *args) -> Future:
        """Start ``function(*args)`` on the pool, in a copy of this context."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.parallelism, thread_name_prefix="shard"
            )
        return self._pool.submit(contextvars.copy_context().run, function, *args)

    def query(
        self, shard_numbers: Sequence[int], predicate: Predicate,
        shard_budget: Optional[float],
    ) -> tuple:
        """``(value_sum, count, granted_seconds)`` over the given shards.

        Partial answers are added in ``shard_numbers`` order; integer sums
        wrap modulo 2**64 into the column's range, as ``ndarray.sum`` does.
        """
        indexes = self._indexes
        pending = inline = None
        if self.parallelism > 1:
            building = [
                shard_number for shard_number in shard_numbers
                if not indexes[shard_number].converged
                or indexes[shard_number].has_pending_merge()
            ]
            if len(building) > 1:
                pending = {
                    shard_number: self._submit(
                        self._answer, shard_number, predicate, shard_budget
                    )
                    for shard_number in building
                }
                # Read the other survivors while the pool builds.  Join every
                # task before anything can raise, so no task outlives this
                # call and a shard's index never has two users.
                try:
                    inline = {
                        shard_number: self._answer(shard_number, predicate, shard_budget)
                        for shard_number in shard_numbers if shard_number not in pending
                    }
                finally:
                    wait(pending.values())
        tracing = _TR.enabled
        floor = self._sum_floor
        value_sum = count = 0
        granted = 0.0
        for shard_number in shard_numbers:
            if pending is not None:
                answer = inline.get(shard_number) or pending[shard_number].result()
            elif tracing:
                answer = self._answer(shard_number, predicate, shard_budget)
            else:
                answer = execute_shard_query(indexes[shard_number], predicate, shard_budget)
            result, seconds = answer
            value_sum += result.value_sum if floor is None else int(result.value_sum)
            count += result.count
            granted += seconds
        if floor is not None and not floor <= value_sum < floor + (1 << 64):
            value_sum = _wrap64(value_sum, floor)
        return value_sum, count, granted

    def execute_batch(self, per_shard: Dict[int, tuple]) -> Dict[int, tuple]:
        """``{shard: (sums, counts)}`` for per-shard ``(lows, highs)`` sub-batches.

        With ``parallelism > 1`` and more than one sub-batch, every
        sub-batch runs on the pool.
        """
        if self.parallelism == 1 or len(per_shard) < 2:
            return {
                shard_number: _run_shard_batch(self._indexes[shard_number], lows, highs)
                for shard_number, (lows, highs) in per_shard.items()
            }
        futures = {
            shard_number: self._submit(
                _run_shard_batch, self._indexes[shard_number], lows, highs
            )
            for shard_number, (lows, highs) in per_shard.items()
        }
        wait(futures.values())  # as in query(): no task outlives the call
        return {shard_number: future.result() for shard_number, future in futures.items()}

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
        """Shut the thread pool down, if one was started (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

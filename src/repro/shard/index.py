"""The sharded-index facade: one logical progressive index over K shards.

:class:`ShardedIndex` glues the sharding layers together behind (a large
subset of) the :class:`~repro.core.index.BaseIndex` surface the engine
already speaks:

* the :class:`~repro.shard.router.ShardRouter` prunes shards whose
  delta-aware zone maps prove they hold no qualifying rows;
* the :class:`~repro.core.policy.PooledBudgetController` splits the logical
  query's interactivity budget τ across the surviving shards (pruned shards
  donate their slice);
* the :class:`~repro.shard.executor.ShardExecutor` runs the per-shard
  queries — on threads for shards with construction work, when built with
  ``parallel=True`` — and returns their summed ``(sum, count, granted)``.

A query takes one path: scalar route, one loop over the survivors, one
charge.  Per survivor the loop reads a converged shard with no merge due
through its own steady ``BaseIndex.query`` exit — same predicate object,
nothing capped, nothing granted — and sends any other shard through the
budget-capped query; the choice is the shard's state alone, so a logical
read over converged shards costs one index read per survivor plus the
route.  With tracing on the same loop runs under ``shard.route`` /
``shard.query`` spans.

Each shard's index progresses through its *own*
:class:`~repro.core.phase.IndexLifecycle`; the facade reports the merged
view (a logical phase, summed per-phase counters) so ``session.status()``
and the experiment reports keep their shape.  The shard indexes live in
this process and are asked for their state directly.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

from time import perf_counter

from repro import obs
from repro.core.phase import IndexPhase
from repro.core.policy import (
    BudgetPolicy,
    CostModelGreedy,
    PooledBudgetController,
    policy_from_state,
    policy_state_dict,
)
from repro.core.query import Predicate, QueryResult
from repro.errors import ExperimentError
from repro.shard.column import ShardedColumn, shard_column
from repro.shard.executor import ShardExecutor
from repro.shard.router import ShardRouter
from repro.storage.column import Column


#: The process-wide tracer (a stable singleton, cached for the read path).
_TR = obs.tracer()


def merge_phase(phases: List[IndexPhase]) -> IndexPhase:
    """The logical phase of a set of per-shard lifecycles.

    All shards converged → ``CONVERGED``; every unconverged shard merging →
    ``MERGE``; otherwise the earliest (least-advanced) active phase, so the
    facade never over-reports progress.
    """
    if all(phase is IndexPhase.CONVERGED for phase in phases):
        return IndexPhase.CONVERGED
    active = [phase for phase in phases if phase is not IndexPhase.CONVERGED]
    pending = [phase for phase in active if phase is not IndexPhase.MERGE]
    if not pending:
        return IndexPhase.MERGE
    return min(pending)


def merge_phase_snapshots(snapshots: List[dict]) -> Dict[str, dict]:
    """Sum per-shard :meth:`IndexLifecycle.snapshot` dicts phase by phase."""
    merged: Dict[str, dict] = {}
    for snapshot in snapshots:
        for phase_name, stats in snapshot.items():
            bucket = merged.setdefault(
                phase_name, {"queries": 0, "indexing_seconds": 0.0}
            )
            bucket["queries"] += int(stats.get("queries", 0))
            bucket["indexing_seconds"] += float(stats.get("indexing_seconds", 0.0))
    order = {phase.value: phase.order for phase in IndexPhase}
    return {
        name: merged[name] for name in sorted(merged, key=lambda n: order.get(n, 99))
    }


def merge_overlay_stats(stats: List[dict]) -> dict:
    """Merge per-shard overlay stats: booleans ``any()``, numbers summed."""
    merged: dict = {}
    for entry in stats:
        for key, value in entry.items():
            if isinstance(value, bool):
                merged[key] = bool(merged.get(key, False)) or value
            elif isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
            else:  # pragma: no cover - non-numeric stats pass through
                merged.setdefault(key, value)
    return merged


class _MergedLifecycle:
    """Read-only lifecycle facade summing the per-shard lifecycles."""

    def __init__(self, owner: "ShardedIndex") -> None:
        self._owner = owner

    @property
    def phase(self) -> IndexPhase:
        return self._owner.phase

    def snapshot(self) -> Dict[str, dict]:
        status = self._owner._collect_status()
        return merge_phase_snapshots(
            [entry["phase_stats"] for entry in status.values()]
        )


class ShardedIndex:
    """One logical progressive index over a :class:`ShardedColumn`.

    Speaks the engine-facing slice of the :class:`~repro.core.index.
    BaseIndex` protocol — ``query``, ``search_many``, ``phase``,
    ``converged``, ``lifecycle``, ``budget``, ``overlay_stats``,
    ``memory_footprint`` — plus :meth:`execute_batch`, which the batch
    executor delegates whole batches to (per-shard sub-batches reuse the
    standard pooled batch machinery inside each shard).
    """

    #: Batch-protocol hints (mirrors :class:`BaseIndex` class attributes).
    eager_batch = False
    concurrent_reads = False
    description = "sharded progressive index with zone-map routing"

    def __init__(
        self,
        column: ShardedColumn,
        router: ShardRouter,
        executor,
        controller: PooledBudgetController,
        algorithm: str,
    ) -> None:
        self._column = column
        self._router = router
        self._executor = executor
        self._controller = controller
        self._algorithm = str(algorithm).upper()
        self._n_shards = column.n_shards
        self._indexes = executor.indexes
        self._queries = 0
        self._lifecycle = _MergedLifecycle(self)
        self._status_cache: Optional[tuple] = None
        self._closed = False
        # The registry's end-to-end view of a sharded query (the per-shard
        # BaseIndex histograms time each shard's part alone).
        registry = obs.metrics()
        self._obs_query_seconds = registry.histogram(
            "shard.query.seconds",
            help="Routed sharded-query latency (routing + dispatch + merge)",
            algorithm=self._algorithm,
        )
        self._obs_pruned = registry.counter(
            "shard.pruned",
            help="Shards skipped by the zone-map router",
        )

    # ------------------------------------------------------------------
    # Identity / lifecycle surface
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Report as the per-shard algorithm so result tables stay keyed
        by the paper acronyms; :meth:`describe` carries the sharding."""
        return self._algorithm

    @property
    def column(self) -> ShardedColumn:
        return self._column

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def parallelism(self) -> int:
        return self._executor.parallelism

    @property
    def budget(self) -> PooledBudgetController:
        """The pooled τ controller (exposes ``describe()`` for status)."""
        return self._controller

    @property
    def lifecycle(self) -> _MergedLifecycle:
        return self._lifecycle

    @property
    def phase(self) -> IndexPhase:
        if self._queries == 0:
            return IndexPhase.INACTIVE
        return merge_phase([index.phase for index in self._indexes])

    @property
    def converged(self) -> bool:
        return all(index.converged for index in self._indexes)

    @property
    def queries_executed(self) -> int:
        """Logical queries answered through the facade."""
        return self._queries

    def describe(self) -> str:
        return (
            f"{self._algorithm}x{self.n_shards} "
            f"({self._column.layout.kind} shards, "
            f"parallelism={self.parallelism}): {self.description}"
        )

    def has_pending_merge(self) -> bool:
        return any(index.has_pending_merge() for index in self._indexes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, predicate: Predicate) -> QueryResult:
        """Answer one logical range query across the surviving shards."""
        hist = self._obs_query_seconds
        tracing = _TR.enabled
        if hist or tracing:
            started = perf_counter()
        span = None
        if tracing:
            span = _TR.start("shard.route", {
                "algorithm": self._algorithm, "n_shards": self.n_shards,
            })
        try:
            survivors = self._router._route(predicate.low, predicate.high)
            touched = len(survivors)
            self._queries += 1
            controller = self._controller
            if hist and touched < self._n_shards:
                self._obs_pruned.inc(self._n_shards - touched)
            if span is not None:
                span.set(survivors=touched, pruned=self._n_shards - touched)
            if not touched:
                controller.charge(0, 0.0)
                return QueryResult.empty()
            value_sum, count, granted = self._executor.query(
                survivors, predicate, controller.shard_budget(touched)
            )
            controller.charge(touched, granted)
            return QueryResult(value_sum, count)
        finally:
            if span is not None:
                span.end()
            if hist:
                hist.observe(perf_counter() - started)

    def _sub_batches(self, lows, highs) -> tuple:
        """Route a batch: ``({shard: rows}, {shard: (lows, highs)})``."""
        matrix = self._router.route_many(lows, highs)
        rows = {
            shard_number: np.flatnonzero(matrix[:, shard_number])
            for shard_number in np.flatnonzero(matrix.any(axis=0)).tolist()
        }
        per_shard = {
            shard_number: (lows[chosen], highs[chosen])
            for shard_number, chosen in rows.items()
        }
        return rows, per_shard

    def _gather(self, n_queries: int, rows: dict, answers: dict) -> tuple:
        """Scatter-add per-shard ``(sums, counts)`` back into batch order."""
        sum_dtype = np.int64 if self._column.dtype.kind in "iu" else np.float64
        sums = np.zeros(n_queries, dtype=sum_dtype)
        counts = np.zeros(n_queries, dtype=np.int64)
        for shard_number, (shard_sums, shard_counts) in answers.items():
            sums[rows[shard_number]] += np.asarray(shard_sums, dtype=sum_dtype)
            counts[rows[shard_number]] += np.asarray(shard_counts, dtype=np.int64)
        return sums, counts

    def execute_batch(self, lows, highs) -> List[QueryResult]:
        """Answer a whole batch, routed per query, sub-batched per shard.

        The batch executor delegates here instead of running its own
        per-query loop: each shard receives only the queries whose zone
        maps it survives, and runs them through the standard per-shard
        batch machinery (pooled reservoir, construction front-loading,
        vectorized converged tail).  Per-query answers are scatter-added
        back into batch order; queries pruned everywhere come back empty.
        """
        lows = np.atleast_1d(np.asarray(lows))
        highs = np.atleast_1d(np.asarray(highs))
        rows, per_shard = self._sub_batches(lows, highs)
        answers = self._executor.execute_batch(per_shard)
        sums, counts = self._gather(lows.size, rows, answers)
        touched = sum(chosen.size for chosen in rows.values())
        self._controller.charge(touched, 0.0, queries=lows.size)
        self._queries += lows.size
        return [QueryResult(value_sum, int(count)) for value_sum, count in zip(sums, counts)]

    def search_many(self, lows, highs):
        """Vectorized read-only lookups; ``None`` until every touched
        shard can answer without further indexing work."""
        lows = np.atleast_1d(np.asarray(lows))
        highs = np.atleast_1d(np.asarray(highs))
        rows, per_shard = self._sub_batches(lows, highs)
        answers = self._executor.search_many(per_shard)
        if any(answer is None for answer in answers.values()):
            return None
        return self._gather(lows.size, rows, answers)

    def predict_cost(self, predicate: Predicate):
        """No unified cost model across shards (per-shard models live with
        the shard indexes); the engine treats ``None`` as unknown."""
        return None

    def predicted_cost(self, predicate: Predicate, delta: float):
        return None

    def swap_budget(self, budget: BudgetPolicy):
        raise ExperimentError(
            "sharded indexes pool their budget internally (each shard's "
            "controller capped under the PooledBudgetController); install the "
            "policy on the per-shard indexes at creation time instead"
        )

    # ------------------------------------------------------------------
    # Status / accounting
    # ------------------------------------------------------------------
    def _collect_status(self) -> Dict[int, dict]:
        """Per-shard status dicts, cached per (queries, column version)."""
        key = (self._queries, self._column.version)
        if self._status_cache is not None and self._status_cache[0] == key:
            return self._status_cache[1]
        status = self._executor.status()
        self._status_cache = (key, status)
        return status

    def memory_footprint(self) -> int:
        status = self._collect_status()
        return int(sum(entry["memory_bytes"] for entry in status.values()))

    def overlay_stats(self) -> dict:
        status = self._collect_status()
        return merge_overlay_stats([entry["writes"] for entry in status.values()])

    def shard_status(self) -> dict:
        """The ``sharding`` block of a ``session.status()`` entry."""
        status = self._collect_status()
        return {
            "layout": self._column.layout.describe(),
            "router": self._router.describe(),
            "pool": self._controller.snapshot(),
            "parallelism": self.parallelism,
            "shards": {
                int(shard_number): entry for shard_number, entry in status.items()
            },
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the executor's thread pool; idempotent."""
        if not self._closed:
            self._executor.close()
            self._closed = True

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedIndex({self._algorithm!r}, shards={self.n_shards}, "
            f"parallelism={self.parallelism}, queries={self._queries})"
        )


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def build_sharded_index(
    column,
    algorithm: str,
    *,
    shards: int = 4,
    kind: str = "range",
    parallel: bool = False,
    workers: Optional[int] = None,
    budget: Optional[BudgetPolicy] = None,
    interactivity_budget: Optional[float] = None,
    constants=None,
    router_bins: bool = False,
    **kwargs,
) -> ShardedIndex:
    """Build a :class:`ShardedIndex` over a column.

    Parameters
    ----------
    column:
        A :class:`~repro.shard.column.ShardedColumn` (pre-partitioned, e.g.
        by ``shard_table``; ``shards``/``kind`` are then ignored), a plain
        :class:`~repro.storage.column.Column`, or raw array data.
    algorithm:
        Registry acronym of the per-shard index family (``PQ``, ``STD``, …).
    shards:
        Partition count K when ``column`` is not yet sharded.
    kind:
        ``"range"`` (zone-map routable) or ``"hash"`` partitioning.
    parallel:
        Run the construction work of the shards a query touches on a
        thread pool (the compiled kernels release the GIL).
    workers:
        Threads of that pool (default: CPU count, clamped to K).
    budget / interactivity_budget:
        The per-shard budget policy (every shard gets an independent clone)
        — at most one of the two; ``interactivity_budget`` is sugar for
        :class:`~repro.core.policy.CostModelGreedy` and additionally arms
        the pooled τ controller so pruned shards donate their slice.
    constants:
        Optional calibrated cost constants shared by the shard indexes.
    router_bins:
        Build per-shard bin-occupancy bitmaps on top of the min/max zone
        maps (extra pruning for hash layouts).
    kwargs:
        Extra keyword arguments for the per-shard index constructors.
    """
    if not isinstance(column, ShardedColumn):
        if not isinstance(column, Column):
            column = Column(np.asarray(column))
        column = shard_column(column, shards, kind=kind)

    if interactivity_budget is not None:
        if budget is not None:
            raise ExperimentError(
                "provide at most one of budget or interactivity_budget"
            )
        budget = CostModelGreedy(interactivity_budget=interactivity_budget)
    tau = getattr(budget, "interactivity_budget", None)
    policy_state = policy_state_dict(budget) if budget is not None else None

    def clone_policy() -> Optional[BudgetPolicy]:
        return policy_from_state(policy_state) if policy_state is not None else None

    from repro.engine.registry import create_index

    executor = ShardExecutor(
        [
            create_index(
                str(algorithm),
                shard,
                budget=clone_policy(),
                constants=constants,
                **kwargs,
            )
            for shard in column.shards
        ],
        column.dtype,
        parallelism=(
            (workers if workers is not None else os.cpu_count() or 1)
            if parallel else 1
        ),
    )
    router = ShardRouter(column, bin_bits=router_bins)
    controller = PooledBudgetController(
        interactivity_budget=tau,
        n_shards=column.n_shards,
        parallelism=executor.parallelism,
    )
    return ShardedIndex(column, router, executor, controller, algorithm)

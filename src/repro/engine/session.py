"""High-level user-facing API: index a table column and query it.

:class:`IndexingSession` is the entry point a downstream user of the library
interacts with: register a table, create a (progressive) index on one of its
columns — either by naming an algorithm or by letting the Figure 11 decision
tree choose — and run range / point queries.  Every query transparently
advances the index construction within the configured budget.

Beyond single queries, the session speaks two workload-level dialects:

* :meth:`IndexingSession.execute_batch` answers a whole vector of queries at
  once through the :class:`~repro.engine.batch.BatchExecutor` — progressive
  refinement is interleaved across the batch under one pooled budget and the
  converged tail is answered with vectorized lookups;
* :meth:`IndexingSession.where` answers a multi-column conjunctive predicate
  (``WHERE ra BETWEEN ... AND dec BETWEEN ...``) by driving the most
  selective indexed column and post-filtering the remaining columns with
  vectorized masks.

The session also speaks the mutable substrate's write dialect:
:meth:`IndexingSession.insert` / :meth:`IndexingSession.delete` /
:meth:`IndexingSession.update` land rows in the columns' append-only delta
stores (row-aligned across the table), every read answers over base ∪ delta
exactly, and the indexes absorb the writes progressively under their budget
policies instead of being rebuilt.  :meth:`IndexingSession.status` surfaces
the write/merge counters in a JSON-serializable form.

Example
-------
>>> import numpy as np
>>> from repro import IndexingSession, Table
>>> table = Table({"ra": np.random.default_rng(0).integers(0, 1000, 10_000)})
>>> session = IndexingSession(table)
>>> session.create_index("ra", method="PQ", budget_fraction=0.2)
>>> result = session.between("ra", 100, 200)
>>> result.count > 0
True
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import kernels, obs
from repro.baselines.full_scan import FullScan
from repro.core.policy import BudgetPolicy, CostModelGreedy, FixedDelta, TimeAdaptive
from repro.core.calibration import CostConstants
from repro.core.index import BaseIndex
from repro.core.query import ConjunctionResult, Predicate, QueryResult
from repro.engine.batch import BatchExecutor
from repro.engine.decision_tree import recommend_index
from repro.engine.registry import create_index
from repro.errors import ExperimentError, IndexStateError, PendingDeltaError
from repro.storage.column import Column
from repro.storage.membudget import MemoryBudget
from repro.storage.table import Table
from repro.workloads.workload import Workload


def _json_safe(value):
    """Recursively coerce NumPy scalars/arrays so ``json.dumps`` accepts it."""
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(item) for item in value.tolist()]
    return value


class IndexingSession:
    """Manages progressive indexes over the columns of one table.

    Parameters
    ----------
    table:
        The table whose columns can be indexed.  A bare :class:`Column` (or
        NumPy array) is also accepted and wrapped into a single-column table.
    constants:
        Optional cost-model constants shared by all indexes created in this
        session (calibrate once, reuse everywhere).
    memory_budget:
        Optional byte allowance (or :class:`~repro.storage.membudget.MemoryBudget`)
        for everything the session holds resident: it is attached to every
        column that does not already carry one, switching construction
        kernels, delta logs and overlay buffers to their streaming /
        spilling out-of-core paths.  ``None`` (the default) keeps the
        in-memory engine unchanged.
    """

    def __init__(
        self,
        table,
        constants: CostConstants | None = None,
        memory_budget=None,
    ) -> None:
        if isinstance(table, Table):
            self._table = table
        elif isinstance(table, Column):
            self._table = Table({table.name: table})
        else:
            self._table = Table({"value": Column(table)})
        self._constants = constants
        self.memory_budget = MemoryBudget.coerce(memory_budget)
        if self.memory_budget is not None:
            for name in self._table.column_names:
                column = self._table.column(name)
                if getattr(column, "memory_budget", None) is None:
                    column.memory_budget = self.memory_budget
        self._indexes: Dict[str, BaseIndex] = {}
        # Lazily created FullScan handles for batches on unindexed columns;
        # FullScan.search_many caches its sorted scratch copy, so repeated
        # batches only pay the O(N log N) preparation once per column.
        self._scan_handles: Dict[str, FullScan] = {}
        registry = obs.metrics()
        self._obs_where_seconds = registry.histogram(
            "session.where.seconds",
            help="Conjunctive where() latency (planning + driving index + masks)",
        )
        self._obs_batch_seconds = registry.histogram(
            "session.batch.seconds",
            help="execute_batch() latency for one whole batch",
        )
        self._obs_batch_queries = registry.counter(
            "session.batch.queries",
            help="Individual predicates answered through execute_batch()",
        )
        registry.register_pull(
            "kernels.backend", kernels,
            lambda k, resolved=kernels.backend(): int(k.backend() == resolved), kind="gauge",
            help="1 while the construction kernels run on the labelled backend",
            backend=kernels.backend(),
        )

    def _register_index_obs(self, column_name: str, index) -> None:
        """Pull series for an index's own counters (no hot-path cost)."""
        registry = obs.metrics()
        registry.register_pull(
            "index.queries", index, lambda i: i.queries_executed,
            help="Queries answered by this index",
            column=column_name, algorithm=index.name,
        )
        registry.register_pull(
            "index.phase", index, lambda i: i.phase.order, kind="gauge",
            help="Life-cycle phase ordinal (0=inactive .. 4=converged)",
            column=column_name,
        )
        registry.register_pull(
            "index.memory.bytes", index, lambda i: i.memory_footprint(),
            kind="gauge", help="Index structure footprint",
            column=column_name,
        )
        registry.register_pull(
            "index.overlay.pending.rows", index,
            lambda i: i.pending_delta_rows(), kind="gauge",
            help="Delta rows not yet folded into the index (a fold starts at "
                 "status()[column]['writes']['merge_trigger_rows'])",
            column=column_name,
        )

    # ------------------------------------------------------------------
    @property
    def table(self) -> Table:
        """The session's table."""
        return self._table

    def indexes(self) -> Dict[str, BaseIndex]:
        """The indexes created so far, keyed by column name."""
        return dict(self._indexes)

    def index_for(self, column_name: str) -> BaseIndex:
        """The index on ``column_name`` (raises if none was created)."""
        try:
            return self._indexes[column_name]
        except KeyError:
            raise IndexStateError(
                f"no index was created on column {column_name!r}; "
                "call create_index() first"
            ) from None

    def live_index_for(self, column_name: str) -> Optional[BaseIndex]:
        """The index on ``column_name`` iff it tracks the live column.

        The concurrent serving layer (:mod:`repro.engine.shared`) answers
        pinned-version reads through the index only when the index's delta
        overlay follows this table's live column — an index pinned to a
        detached frozen snapshot cannot be version-corrected and is ignored
        in favour of a direct snapshot scan.  Returns ``None`` when the
        column is unindexed or its index is detached.
        """
        index = self._indexes.get(column_name)
        if index is None:
            return None
        if getattr(index, "live_column", None) is not self._table.column(column_name):
            return None
        return index

    # ------------------------------------------------------------------
    def create_index(
        self,
        column_name: str,
        method: Optional[str] = None,
        budget: Optional[BudgetPolicy] = None,
        budget_fraction: Optional[float] = None,
        fixed_delta: Optional[float] = None,
        interactivity_budget: Optional[float] = None,
        point_query_workload: bool = False,
        skewed_data: bool = False,
        **kwargs,
    ) -> BaseIndex:
        """Create a progressive index on ``column_name``.

        Parameters
        ----------
        column_name:
            Which column of the table to index.
        method:
            Algorithm acronym (``"PQ"``, ``"PMSD"``, ``"PLSD"``, ``"PB"``, or
            a baseline).  When omitted the Figure 11 decision tree picks one
            based on ``point_query_workload`` and ``skewed_data``.
        budget:
            Explicit budget policy; overrides the convenience parameters.
        budget_fraction:
            Time-adaptive indexing budget as a fraction of the scan cost
            (the paper's default experiments use ``0.2``).
        fixed_delta:
            Fixed fraction of the column indexed per query.
        interactivity_budget:
            Interactivity threshold τ in seconds: every query should take
            about this long in total until the index converges.  Installs
            the cost-model-greedy policy, which solves the per-phase cost
            model for the delta that lands each query on τ.
        kwargs:
            Extra keyword arguments forwarded to the index constructor.
        """
        if column_name in self._indexes:
            raise ExperimentError(f"column {column_name!r} is already indexed")
        column = self._table.column(column_name)
        if column.delta is not None:
            foreign = column.delta.foreign_handles(self)
            if foreign:
                raise PendingDeltaError(
                    f"column {column_name!r} has pending uncommitted deltas from "
                    f"{len(foreign)} other write handle(s); the writing session "
                    "must call commit_writes() before another handle may index "
                    "this column"
                )
        budget = self._resolve_budget(
            budget, budget_fraction, fixed_delta, interactivity_budget
        )
        if method is None:
            recommendation = recommend_index(
                point_query_workload=point_query_workload, skewed_data=skewed_data
            )
            index = recommendation.create(
                column, budget=budget, constants=self._constants, **kwargs
            )
        else:
            index = create_index(
                method, column, budget=budget, constants=self._constants, **kwargs
            )
        self._indexes[column_name] = index
        self._register_index_obs(column_name, index)
        return index

    @staticmethod
    def _resolve_budget(
        budget: Optional[BudgetPolicy],
        budget_fraction: Optional[float],
        fixed_delta: Optional[float],
        interactivity_budget: Optional[float],
    ) -> BudgetPolicy:
        """Collapse the convenience budget parameters into one policy."""
        provided = [
            value
            for value in (budget, budget_fraction, fixed_delta, interactivity_budget)
            if value is not None
        ]
        if len(provided) > 1:
            raise ExperimentError(
                "provide at most one of budget, budget_fraction, fixed_delta "
                "or interactivity_budget"
            )
        if budget is not None:
            return budget
        if fixed_delta is not None:
            return FixedDelta(fixed_delta)
        if interactivity_budget is not None:
            return CostModelGreedy(interactivity_budget=interactivity_budget)
        return TimeAdaptive(scan_fraction=budget_fraction or 0.2)

    def create_sharded_index(
        self,
        column_name: str,
        method: Optional[str] = None,
        shards: int = 4,
        parallel: bool = False,
        workers: Optional[int] = None,
        kind: str = "range",
        budget: Optional[BudgetPolicy] = None,
        budget_fraction: Optional[float] = None,
        fixed_delta: Optional[float] = None,
        interactivity_budget: Optional[float] = None,
        point_query_workload: bool = False,
        skewed_data: bool = False,
        router_bins: bool = False,
        **kwargs,
    ):
        """Create a sharded (optionally thread-parallel) index.

        Converts **every** column of the table to a
        :class:`~repro.shard.column.ShardedColumn` under one shared layout
        (rows stay aligned across columns, so ``where()`` conjunctions keep
        composing), then fronts ``column_name``'s K per-shard progressive
        indexes with a zone-map router and a pooled interactivity budget.

        Parameters mirror :meth:`create_index` plus:

        shards:
            Partition count K.  A table already sharded by a previous call
            reuses its layout (``shards`` must then agree).
        parallel / workers:
            Run the construction work of the shards a query touches on a
            thread pool of ``workers`` threads (default: the CPU count,
            clamped to K).
        kind:
            ``"range"`` partitioning (zone-map routable — the default) or
            ``"hash"``.
        router_bins:
            Add per-shard bin-occupancy bitmaps for extra pruning (useful
            for hash layouts).
        """
        from repro.shard import ShardedColumn, ShardedIndex, shard_table
        from repro.shard.index import build_sharded_index

        if column_name in self._indexes:
            raise ExperimentError(f"column {column_name!r} is already indexed")
        stale = [
            name
            for name, index in self._indexes.items()
            if not isinstance(index, ShardedIndex)
        ]
        if stale:
            raise ExperimentError(
                f"cannot shard the table while unsharded indexes exist on "
                f"{sorted(stale)}: sharding permutes the row-id space those "
                "indexes answer over; drop them first"
            )
        column = self._table.column(column_name)
        if isinstance(column, ShardedColumn):
            if int(shards) != column.n_shards:
                raise ExperimentError(
                    f"table is already sharded into {column.n_shards} "
                    f"partitions; requested {shards} — sibling columns must "
                    "share one layout"
                )
        else:
            shard_table(self._table, column_name, int(shards), kind=kind)
            column = self._table.column(column_name)
            # Any cached batched-scan handle saw the pre-shard row order.
            self._scan_handles.clear()
        budget = self._resolve_budget(
            budget, budget_fraction, fixed_delta, interactivity_budget
        )
        if method is None:
            method = recommend_index(
                point_query_workload=point_query_workload, skewed_data=skewed_data
            ).acronym
        index = build_sharded_index(
            column,
            method,
            parallel=parallel,
            workers=workers,
            budget=budget,
            constants=self._constants,
            router_bins=router_bins,
            **kwargs,
        )
        self._indexes[column_name] = index
        self._register_index_obs(column_name, index)
        return index

    def drop_index(self, column_name: str) -> None:
        """Remove the index on ``column_name`` (no error if absent).

        Sharded indexes shut down their thread pool on the way out.
        """
        index = self._indexes.pop(column_name, None)
        close = getattr(index, "close", None)
        if close is not None:
            close()

    def attach_index(self, column_name: str, index: BaseIndex) -> BaseIndex:
        """Register an externally constructed index for ``column_name``.

        The recovery path of :class:`~repro.persist.database.Database` uses
        this to install indexes restored from a checkpoint; the index must
        answer for the named column of this session's table.
        """
        if column_name not in self._table:
            raise ExperimentError(
                f"cannot attach an index for unknown column {column_name!r}; "
                f"available: {sorted(self._table.column_names)}"
            )
        if column_name in self._indexes:
            raise ExperimentError(f"column {column_name!r} is already indexed")
        if not isinstance(index, BaseIndex):
            raise ExperimentError(
                f"attach_index() expects a BaseIndex, got {type(index).__name__}"
            )
        self._indexes[column_name] = index
        self._register_index_obs(column_name, index)
        return index

    # ------------------------------------------------------------------
    # Writes (delta-store; indexes absorb them via budget-priced merging)
    # ------------------------------------------------------------------
    def insert(self, values, column_name: Optional[str] = None) -> np.ndarray:
        """Insert rows; returns the stable row ids of the new rows.

        Two forms are accepted:

        * a mapping ``{"col": values, ...}`` covering **every** column of
          the table (full rows — the only alignment-safe form for
          multi-column tables);
        * a bare value or sequence, targeting ``column_name`` (defaults to
          the table's only column).

        The rows land in the column delta stores immediately — every
        subsequent query sees them — and existing indexes absorb them
        progressively under their budget policies (the ``MERGE`` phase)
        instead of being rebuilt.
        """
        if isinstance(values, Mapping):
            return self._table.insert_rows(values, handle=self)
        target = column_name or self._single_column_for_write("insert")
        self._table.column(target)  # raises UnknownColumnError when absent
        return self._table.insert_rows({target: values}, handle=self)

    def delete(self, column_name: str, low, high=None) -> int:
        """Delete every row whose ``column_name`` value lies in ``[low, high]``.

        ``high`` defaults to ``low`` (point delete).  Returns the number of
        rows deleted.  The deletion applies to the whole row: every column
        of the table tombstones the same stable rids, keeping multi-column
        conjunctions consistent.
        """
        if high is None:
            high = low
        return self._table.delete_where(column_name, low, high, handle=self)

    def update(self, column_name: str, low, high, value) -> int:
        """Set ``column_name`` to ``value`` for every row in ``[low, high]``.

        Implemented as delete + insert (the classic column-store write
        path): the matching rows are tombstoned and re-inserted with the
        target column substituted, all other column values preserved.
        Returns the number of rows updated.
        """
        return self._table.update_where(column_name, low, high, value, handle=self)

    def commit_writes(self) -> None:
        """Mark this session's pending writes committed.

        Other sessions may not ``create_index`` on a column while this
        session has uncommitted deltas on it
        (:class:`~repro.errors.PendingDeltaError`).
        """
        for name in self._table.column_names:
            delta = self._table.column(name).delta
            if delta is not None:
                delta.commit(self)

    def execute_operations(
        self, workload: Workload, column_name: Optional[str] = None
    ) -> List[Optional[QueryResult]]:
        """Replay a (possibly mixed read/write) workload in order.

        Reads go through :meth:`between` (advancing index construction and
        delta merging within the budget); writes go through
        :meth:`insert`/:meth:`delete`/:meth:`update`.  Returns one entry per
        operation: a :class:`~repro.core.query.QueryResult` for reads,
        ``None`` for writes.
        """
        target = column_name or self._default_column()
        operations = workload.operations
        if operations is None:
            operations = list(workload.predicates)
        results: List[Optional[QueryResult]] = []
        for operation in operations:
            if isinstance(operation, Predicate):
                results.append(self.between(target, operation.low, operation.high))
            else:
                operation.apply(self, target)
                results.append(None)
        return results

    def _single_column_for_write(self, operation: str) -> str:
        names = list(self._table.column_names)
        if len(names) == 1:
            return names[0]
        raise ExperimentError(
            f"{operation}() without a column mapping requires a single-column "
            f"table; this table has {len(names)} columns — pass a "
            "{column: values} mapping covering all of them"
        )

    # ------------------------------------------------------------------
    def between(self, column_name: str, low, high) -> QueryResult:
        """``SELECT SUM(col), COUNT(*) WHERE col BETWEEN low AND high``.

        Uses the column's index when one exists, otherwise a predicated full
        scan.  An inverted range (``low > high``) selects nothing: the empty
        result is returned directly, without advancing any index.
        """
        if low > high:
            return QueryResult.empty()
        predicate = Predicate(low, high)
        if column_name in self._indexes:
            return self._indexes[column_name].query(predicate)
        column = self._table.column(column_name)
        value_sum, count = column.scan_range(low, high)
        return QueryResult(value_sum, count)

    def equals(self, column_name: str, value) -> QueryResult:
        """Point-query variant of :meth:`between`."""
        return self.between(column_name, value, value)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        queries,
        column_name: Optional[str] = None,
        executor: Optional[BatchExecutor] = None,
    ) -> List[QueryResult]:
        """Answer a whole batch of range queries at once.

        The batch is grouped per column/index and handed to the
        :class:`~repro.engine.batch.BatchExecutor`: per-query progressive
        refinement is interleaved across the batch under one pooled
        :class:`~repro.core.policy.BatchPool` (sized to what the same
        queries would have spent sequentially) and, as soon as an index can,
        the remainder of its group is answered with NumPy-vectorized piece
        lookups.  Answers are exact at every point, so the returned results
        are identical to issuing the same queries sequentially.

        Parameters
        ----------
        queries:
            One of: a :class:`~repro.workloads.workload.Workload`, a sequence
            of :class:`~repro.core.query.Predicate` objects or ``(low,
            high)`` pairs (all against ``column_name``), or a sequence of
            ``(column_name, predicate)`` pairs for a multi-column batch.
        column_name:
            Target column for the single-column input forms.  Defaults to
            the only column of the table (or the only indexed column).
        executor:
            Optional pre-configured :class:`~repro.engine.batch.BatchExecutor`.

        Returns
        -------
        list of :class:`~repro.core.query.QueryResult`
            One result per query, in submission order.  Inverted ranges
            (``low > high``) yield empty results, matching :meth:`between`.
        """
        hist = self._obs_batch_seconds
        tracer = obs.tracer()
        if hist or tracer.enabled:
            batch_started = perf_counter()
        executor = executor or BatchExecutor()
        pairs = self._normalize_batch(queries, column_name)
        span = tracer.start("session.batch", {"queries": len(pairs)}) if tracer.enabled else None
        try:
            # Inverted ranges select nothing; answer them directly (the same
            # leniency as between()) and hand only valid predicates downstream.
            valid = [(number, pair) for number, pair in enumerate(pairs) if pair[1] is not None]
            results: List[QueryResult] = [QueryResult.empty() for _ in pairs]
            if valid:
                valid_pairs = [pair for _, pair in valid]
                columns = {name: self._table.column(name) for name, _ in valid_pairs}
                indexes = {name: self._batch_handle(name, column) for name, column in columns.items()}
                answers = executor.execute_grouped(indexes, valid_pairs, columns)
                for (number, _), answer in zip(valid, answers):
                    results[number] = answer
        finally:
            if span is not None:
                span.end()
        if hist:
            hist.observe(perf_counter() - batch_started)
            self._obs_batch_queries.inc(len(pairs))
        return results

    def _batch_handle(self, column_name: str, column: Column) -> BaseIndex:
        """The index answering batches on ``column_name``.

        Indexed columns use their index; unindexed columns get a cached
        :class:`~repro.baselines.full_scan.FullScan` handle so repeated
        batches amortize the batched-scan preparation.
        """
        index = self._indexes.get(column_name)
        if index is not None:
            return index
        handle = self._scan_handles.get(column_name)
        if handle is None:
            handle = FullScan(column, constants=self._constants)
            self._scan_handles[column_name] = handle
        return handle

    def _normalize_batch(self, queries, column_name: Optional[str]):
        """Coerce any accepted batch form into ``(column, Predicate)`` pairs.

        Inverted ``(low, high)`` pairs map to ``(column, None)`` — a
        provably empty query answered without touching any index.
        """
        if isinstance(queries, Workload):
            target = column_name or self._default_column()
            return [(target, predicate) for predicate in queries]
        items = list(queries)
        if not items:
            return []
        first = items[0]
        if isinstance(first, tuple) and len(first) == 2 and isinstance(first[0], str):
            pairs = []
            for name, predicate in items:
                if name not in self._table:
                    raise ExperimentError(
                        f"batch references unknown column {name!r}; "
                        f"available: {sorted(self._table.column_names)}"
                    )
                pairs.append((name, self._coerce_predicate(predicate)))
            return pairs
        target = column_name or self._default_column()
        return [(target, self._coerce_predicate(item)) for item in items]

    @staticmethod
    def _coerce_predicate(predicate) -> Optional[Predicate]:
        if isinstance(predicate, Predicate):
            return predicate
        low, high = predicate
        if low > high:
            return None
        return Predicate(low, high)

    def _default_column(self) -> str:
        names = list(self._table.column_names)
        if len(names) == 1:
            return names[0]
        if len(self._indexes) == 1:
            return next(iter(self._indexes))
        raise ExperimentError(
            "the batch does not name a column and the table has "
            f"{len(names)} columns; pass column_name= or submit "
            "(column_name, predicate) pairs"
        )

    # ------------------------------------------------------------------
    # Multi-column conjunctions
    # ------------------------------------------------------------------
    def where(self, predicates: Mapping[str, Sequence]) -> ConjunctionResult:
        """Answer a multi-column conjunctive range predicate.

        ``session.where({"ra": (lo, hi), "dec": (lo, hi)})`` answers::

            SELECT COUNT(*), SUM(ra), SUM(dec)
            WHERE ra BETWEEN lo AND hi AND dec BETWEEN lo AND hi

        The planner picks the indexed column with the lowest estimated
        selectivity as the *driving* column: its (progressive) index answers
        the single-column predicate first — transparently advancing index
        construction within the budget — and short-circuits the conjunction
        when nothing matches.  A single-column conjunction is answered by
        the driving index alone (equivalent to :meth:`between`); for
        multi-column conjunctions the row-level intersection is then
        computed with vectorized NumPy masks over the base data of every
        referenced column (the indexes store values, not row identifiers,
        so the driving index contributes planning, construction progress and
        the empty-result short-circuit rather than the row set itself).

        Parameters
        ----------
        predicates:
            Mapping from column name to an inclusive ``(low, high)`` pair.
            An inverted range (``low > high``) selects nothing.

        Returns
        -------
        :class:`~repro.core.query.ConjunctionResult`
            Matching-row count plus the per-column sums over matching rows.
        """
        if not predicates:
            raise ExperimentError("where() requires at least one column predicate")
        hist = self._obs_where_seconds
        tracer = obs.tracer()
        if hist or tracer.enabled:
            started = perf_counter()
        if tracer.enabled:
            with tracer.span("session.where", columns=sorted(predicates)) as span:
                result = self._where_impl(predicates)
                span.set(count=int(result.count), driving=result.driving_column)
        else:
            result = self._where_impl(predicates)
        if hist:
            hist.observe(perf_counter() - started)
        return result

    def _where_impl(self, predicates: Mapping[str, Sequence]) -> ConjunctionResult:
        bounds: Dict[str, tuple] = {}
        for column_name, pair in predicates.items():
            column = self._table.column(column_name)  # validates the name
            low, high = pair
            if low > high:
                return ConjunctionResult.empty(predicates.keys())
            bounds[column_name] = (low, high, column)

        driving = self._plan_driving_column(bounds)
        if len(bounds) == 1:
            # Single-column conjunction: the index answer IS the result — no
            # row-level mask needed.
            ((column_name, (low, high, _)),) = bounds.items()
            single = self.between(column_name, low, high)
            return ConjunctionResult(
                single.count, {column_name: single.value_sum}, driving
            )
        if driving is not None:
            low, high, _ = bounds[driving]
            driven = self._indexes[driving].query(Predicate(low, high))
            if driven.count == 0:
                return ConjunctionResult.empty(predicates.keys(), driving)

        mask: Optional[np.ndarray] = None
        order = [driving] if driving is not None else []
        order += [name for name in bounds if name != driving]
        for column_name in order:
            low, high, column = bounds[column_name]
            column_mask = (column.data >= low) & (column.data <= high)
            mask = column_mask if mask is None else (mask & column_mask)
            if not mask.any():
                return ConjunctionResult.empty(predicates.keys(), driving)
        count = int(np.count_nonzero(mask))
        value_sums = {
            name: bounds[name][2].data[mask].sum() for name in bounds
        }
        return ConjunctionResult(count, value_sums, driving)

    def _plan_driving_column(self, bounds: Mapping[str, tuple]) -> Optional[str]:
        """The indexed column with the lowest estimated selectivity."""
        best_name = None
        best_selectivity = None
        for column_name, (low, high, column) in bounds.items():
            if column_name not in self._indexes:
                continue
            selectivity = Predicate(low, high).selectivity(
                float(column.min()), float(column.max())
            )
            if best_selectivity is None or selectivity < best_selectivity:
                best_name = column_name
                best_selectivity = selectivity
        return best_name

    def memory_status(self) -> Optional[dict]:
        """The active memory budget's derived allowances and live counters.

        ``None`` when the session runs without a budget (the in-memory
        engine).  With one, reports the total allowance, the per-component
        caps, and — once the components exist — scratch-spill and
        block-cache hit/miss/eviction counters (JSON-serializable).
        """
        if self.memory_budget is None:
            return None
        return _json_safe(self.memory_budget.stats())

    def status(self) -> Dict[str, dict]:
        """Per-index construction and write/merge status.

        ``phase_stats`` summarises every visited life-cycle phase: how many
        queries it answered and how much indexing budget (model seconds) was
        spent in it, as accounted by the shared
        :class:`~repro.core.phase.IndexLifecycle` driver.  ``writes``
        reports the mutable-substrate counters of the column and the
        index's delta overlay (pending / absorbed / folded rows, merge
        budget spent).

        The returned structure is fully JSON-serializable — NumPy scalars
        are coerced to native Python types — so external monitors can ship
        it as-is (``json.dumps(session.status())``).
        """
        report = {}
        for column_name, index in self._indexes.items():
            column = self._table.column(column_name)
            entry = {
                "algorithm": index.name,
                "phase": index.phase.value,
                "queries_executed": index.queries_executed,
                "converged": index.converged,
                "memory_bytes": index.memory_footprint(),
                "budget": index.budget.describe(),
                "phase_stats": index.lifecycle.snapshot(),
                "writes": index.overlay_stats(),
                "kernels": kernels.info(),
            }
            delta = column.delta
            if delta is not None:
                entry["writes"].update(
                    {
                        "column_inserts": delta.n_inserts,
                        "column_deletes": delta.n_deletes,
                        "visible_rows": len(column),
                        "delta_bytes": delta.memory_footprint(),
                    }
                )
            shard_status = getattr(index, "shard_status", None)
            if shard_status is not None:
                entry["sharding"] = shard_status()
            report[column_name] = entry
        budget = self.memory_budget
        if budget is None:
            # Columns opened with their own budget (Column.from_file) and
            # never attached to a session-level one still get surfaced.
            for column_name in self._table.column_names:
                budget = getattr(
                    self._table.column(column_name), "memory_budget", None
                )
                if budget is not None:
                    break
        if budget is not None:
            # Out-of-core sessions surface the BlockCache hit/miss/eviction
            # and scratch-spill counters alongside the per-index entries.
            # "memory" is a reserved key (a column of that name would have
            # its entry replaced here; none of the engine's callers do).
            report["memory"] = budget.stats()
        return _json_safe(report)

"""Shared life-cycle driver of the four progressive indexes.

Every progressive indexing algorithm of the paper moves through the same
phases — creation, refinement, consolidation, converged — and ends the same
way: a fully sorted array consolidated into a B+-tree cascade.  Before this
module existed, each of the four algorithms carried its own copy of the
phase dispatch, the consolidation-phase execution, and the converged-path
execution; :class:`ProgressiveIndexBase` is the template method that owns
all of it:

* phase transitions go through the index's shared
  :class:`~repro.core.phase.IndexLifecycle` (monotone, history-recording);
* every per-query ``delta`` decision routes through the
  :class:`~repro.core.policy.BudgetController` with the current phase's
  cost formula exposed as a side-effect-free ``predict(delta)`` callable —
  which is also what powers the public
  :meth:`~repro.core.index.BaseIndex.predicted_cost` API that
  :class:`~repro.core.policy.CostModelGreedy` solves against;
* the consolidation phase (progressively copying the sorted array into
  cascade levels) and the converged path are implemented once.

Subclasses implement the creation and refinement phases plus their cost
formulas (:meth:`_creation_cost`, :meth:`_refinement_cost`).

Mutable columns ride on the shared :class:`~repro.core.overlay.DeltaOverlay`
mixin (inherited through :class:`~repro.core.index.BaseIndex`): structures
are built over the snapshot pinned at creation, answers are corrected with
the pending delta, and — because every progressive index converges to a
sorted array under a B+-tree cascade — the converged family implements the
overlay's *fold*: the buffered inserts/tombstones are merged into the leaf
array and the cascade levels are resampled, paid for by the ``MERGE``-phase
budget decisions the same way creation/refinement/consolidation work was.
"""

from __future__ import annotations

import numpy as np

from repro.btree.cascade import DEFAULT_FANOUT, CascadeTree
from repro.core.calibration import CostConstants
from repro.core.cost_model import CostBreakdown
from repro.core.index import BaseIndex
from repro.core.phase import IndexPhase
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult, SortedLeaf
from repro.progressive.consolidation import ProgressiveConsolidator
from repro.storage.column import Column
from repro.storage.delta import merge_sorted_with_delta
from repro.storage.lazy import array_chunks
from repro.storage.membudget import budget_of


class ProgressiveIndexBase(BaseIndex):
    """Template-method base class of the progressive indexing algorithms.

    Parameters
    ----------
    column:
        Column to index.
    budget:
        Budget policy (fixed delta, time-adaptive, cost-model greedy, or a
        pooled batch reservoir).
    constants:
        Cost-model constants.
    fanout:
        β of the consolidation-phase B+-tree cascade.
    """

    #: Once converged, the sorted-leaf lookups of this family are pure reads
    #: over frozen structures (plus the idempotent prefix-sum cache), so the
    #: serving scheduler may run them from concurrent reader threads.
    concurrent_reads = True

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        self.fanout = int(fanout)
        self._consolidator: ProgressiveConsolidator | None = None
        self._cascade = None

    # ------------------------------------------------------------------
    # Phase dispatch
    # ------------------------------------------------------------------
    def _execute(self, predicate: Predicate) -> QueryResult:
        if self.phase is IndexPhase.INACTIVE:
            self._initialize()
            self._register_scan_time()
            self._advance_phase(IndexPhase.CREATION)
        phase = self.phase
        if phase is IndexPhase.CREATION:
            return self._execute_creation(predicate)
        if phase is IndexPhase.REFINEMENT:
            return self._execute_refinement(predicate)
        if phase is IndexPhase.CONSOLIDATION:
            return self._execute_consolidation(predicate)
        return self._execute_converged(predicate)

    # ------------------------------------------------------------------
    # Per-phase cost model (Section 3)
    # ------------------------------------------------------------------
    def predicted_cost(self, predicate: Predicate, delta: float = 0.0) -> CostBreakdown | None:
        """The current phase's cost formula evaluated at ``delta``.

        Side-effect free; returns ``None`` while the index is inactive (no
        structures exist before the first query initialises them).
        """
        phase = self.phase
        if phase is IndexPhase.CREATION:
            return self._creation_cost(predicate, delta)
        if phase is IndexPhase.REFINEMENT:
            return self._refinement_cost(predicate, delta)
        if phase is IndexPhase.CONSOLIDATION:
            return self._consolidation_cost(predicate, delta)
        if phase is IndexPhase.CONVERGED:
            return self._converged_cost(predicate)
        if phase is IndexPhase.MERGE:
            return self._merge_phase_cost(predicate, delta)
        return None

    # ------------------------------------------------------------------
    # Out-of-core support (streaming kernels)
    # ------------------------------------------------------------------
    def _scratch_allocate(self, n_rows: int, dtype) -> np.ndarray:
        """Writable construction array; pager-backed past the memory budget.

        With no budget attached to the column this is a plain ``np.empty``
        — the in-memory engine, unchanged.
        """
        budget = budget_of(self._column)
        if budget is not None:
            return budget.scratch.allocate(n_rows, dtype)
        return np.empty(int(n_rows), dtype=np.dtype(dtype))

    def _stream_column(self, start: int, stop: int):
        """The base column's rows ``[start, stop)`` as ndarray chunks of the
        memory budget's chunk size (one chunk without a budget); a paged
        base yields them on its block grid."""
        budget = budget_of(self._column)
        step = budget.chunk_rows(self._column.dtype) if budget is not None else max(1, stop - start)
        for _, chunk in array_chunks(self._column.data, step, start=start, stop=stop):
            yield np.asarray(chunk)

    def _scratch_pool(self):
        """The column's shared scratch allocator, or ``None`` (no budget)."""
        budget = budget_of(self._column)
        return budget.scratch if budget is not None else None

    def _block_arena(self, block_size: int):
        """Spillable slab arena for linked bucket blocks (``None`` unbudgeted)."""
        pool = self._scratch_pool()
        if pool is None:
            return None
        from repro.storage.scratch import BlockArena

        return BlockArena(pool, int(block_size), self._column.dtype)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """Allocate the first-query structures (pivot, buckets, bounds...)."""
        raise NotImplementedError

    def _execute_creation(self, predicate: Predicate) -> QueryResult:
        raise NotImplementedError

    def _execute_refinement(self, predicate: Predicate) -> QueryResult:
        raise NotImplementedError

    def _creation_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        """Creation-phase cost at ``delta`` (state read-only)."""
        raise NotImplementedError

    def _refinement_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        """Refinement-phase cost at ``delta`` (state read-only)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Consolidation phase (shared by all four algorithms)
    # ------------------------------------------------------------------
    def _sorted_leaf(self, sorted_array: np.ndarray) -> SortedLeaf:
        """The read primitive over ``sorted_array``; its prefix sums go
        through the column's memory budget when one is attached."""
        pool = self._scratch_pool()
        self._leaf = SortedLeaf(sorted_array, None if pool is None else pool.allocate)
        return self._leaf

    def _enter_consolidation(self, sorted_array: np.ndarray) -> None:
        """Start consolidating ``sorted_array`` into the cascade."""
        self._consolidator = ProgressiveConsolidator(
            self._sorted_leaf(sorted_array), fanout=self.fanout
        )
        self._advance_phase(IndexPhase.CONSOLIDATION)
        if self._consolidator.done:
            self._enter_converged()

    def _consolidation_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        n = len(self._column)
        total_copy = max(1, self._consolidator.total_elements)
        alpha = self._consolidator.matching_fraction(predicate)
        return CostBreakdown(
            scan=alpha * self._cost_model.scan_time(n),
            lookup=self._cost_model.binary_search_time(n),
            indexing=delta * self._cost_model.consolidation_copy_time(total_copy),
        )

    def _execute_consolidation(self, predicate: Predicate) -> QueryResult:
        total_copy = max(1, self._consolidator.total_elements)
        copy_time = self._cost_model.consolidation_copy_time(total_copy)
        decision = self._decide(
            copy_time, lambda d: self._consolidation_cost(predicate, d)
        )
        element_budget = (
            int(np.ceil(decision.delta * total_copy)) if decision.delta > 0 else 0
        )
        copied = self._consolidator.step(element_budget) if element_budget > 0 else 0
        result = self._consolidator.query(predicate)
        self.last_stats.elements_indexed = copied
        if self._consolidator.done:
            self._enter_converged()
        return result

    # ------------------------------------------------------------------
    # Converged (shared)
    # ------------------------------------------------------------------
    def _enter_converged(self) -> None:
        self._cascade = self._consolidator.result()
        self._advance_phase(IndexPhase.CONVERGED)

    def _converged_cost(self, predicate: Predicate) -> CostBreakdown:
        # Estimate the match count from the predicate's selectivity rather
        # than executing the query: predicted_cost() is documented as
        # side-effect free AND cheap, so planners can call it per query.
        n = len(self._column)
        selectivity = predicate.selectivity(
            float(self._column.min()), float(self._column.max())
        )
        return self._converged_count_cost(int(selectivity * n))

    def _converged_count_cost(self, match_count: int) -> CostBreakdown:
        return CostBreakdown(
            scan=self._cost_model.scan_time(match_count),
            lookup=self._cost_model.tree_lookup_time(self._cascade.height),
            indexing=0.0,
        )

    # ------------------------------------------------------------------
    # Merge phase (mutable substrate; shared by all four algorithms)
    # ------------------------------------------------------------------
    #: A converged progressive index owns a sorted leaf array, so the
    #: buffered delta can be folded in and the budget-priced MERGE phase
    #: applies.
    can_fold = True

    def _merge_phase_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        """Converged answering plus ``delta`` of the remaining merge work."""
        base = self._converged_cost(predicate)
        return CostBreakdown(
            scan=base.scan,
            lookup=base.lookup,
            indexing=0.0,
            merge=delta * self._merge_full_work_time(),
        )

    def _fold_delta(self, inserts_sorted: np.ndarray, tombstones_sorted: np.ndarray) -> bool:
        """Merge the buffered delta into the leaf array, resample the cascade."""
        if self._cascade is None:
            return False
        merged = merge_sorted_with_delta(
            self._cascade.leaf_values, inserts_sorted, tombstones_sorted
        )
        self._cascade = CascadeTree(self._sorted_leaf(merged), fanout=self.fanout)
        return True

    def _fold_base_size(self) -> int:
        if self._cascade is None:
            return len(self._column)
        return int(self._cascade.leaf_values.size)

    # ------------------------------------------------------------------
    # Persistence (checkpointing; shared consolidation/converged stages)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        state = {"fanout": self.fanout}
        if self._cascade is not None:
            state["stage"] = "converged"
            state["leaf_values"] = np.array(self._cascade.leaf_values)
        elif self._consolidator is not None:
            state["stage"] = "consolidation"
            state["leaf_values"] = np.array(self._consolidator.leaf_values)
            state["copied"] = int(self._consolidator.copied_elements)
        else:
            state["stage"] = "construction"
            state.update(self._construction_state())
        return state

    def _load_family_state(self, state: dict) -> None:
        stage = state.get("stage")
        self.fanout = int(state.get("fanout", self.fanout))
        if stage == "converged":
            leaf = np.asarray(state["leaf_values"])
            self._cascade = CascadeTree(self._sorted_leaf(leaf), fanout=self.fanout)
            self._restore_final_array(leaf, sorted_ready=True)
        elif stage == "consolidation":
            leaf = np.asarray(state["leaf_values"])
            self._consolidator = ProgressiveConsolidator(
                self._sorted_leaf(leaf), fanout=self.fanout
            )
            # Replaying the copy counter is deterministic and costs exactly
            # the elements already paid for before the checkpoint.
            copied = int(state["copied"])
            if copied:
                self._consolidator.step(copied)
            self._restore_final_array(leaf, sorted_ready=True)
        else:
            self._load_construction_state(state)

    def _construction_state(self) -> dict:
        """Creation/refinement payload (subclass hook)."""
        raise NotImplementedError

    def _load_construction_state(self, state: dict) -> None:
        """Restore a creation/refinement payload (subclass hook)."""
        raise NotImplementedError

    def _restore_final_array(self, leaf: np.ndarray, sorted_ready: bool) -> None:
        """Re-wire the family's alias of the (sorted) index array.

        Called when restoring the shared consolidation/converged stages so
        family-level attributes (``_index_array``, ``_final_array``) point
        at the restored leaf array; the default covers families that keep
        no alias.
        """

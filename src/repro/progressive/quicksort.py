"""Progressive Quicksort (Section 3.1 of the paper).

The algorithm progresses through the three canonical phases:

Creation
    An uninitialised array of the column's size is allocated on the first
    query and a pivot is chosen as the average of the column's smallest and
    largest value.  Every query copies another ``delta * N`` elements of the
    base column into the array — values below the pivot fill the array from
    the top, values at or above the pivot fill it from the bottom — and
    answers the query from the already-copied pieces plus a scan of the
    not-yet-copied tail of the base column.

Refinement
    The two initial pieces are recursively partitioned in place around new
    pivots (midpoints of the piece's value bounds), a bounded number of
    elements per query, driven by the shared
    :class:`~repro.progressive.sorter.ProgressiveSorter`.  A binary tree of
    pivots routes lookups to the pieces that can contain matching values.

Consolidation
    Once the array is fully sorted, a B+-tree cascade is built on top of it
    (shared :class:`~repro.progressive.base.ProgressiveIndexBase` driver).

The per-phase cost models implement the formulas of Section 3.1; every
``delta`` decision routes through the budget controller with those formulas
as the ``predict(delta)`` callable.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.btree.cascade import DEFAULT_FANOUT
from repro.core.calibration import CostConstants
from repro.core.cost_model import CostBreakdown
from repro.core.phase import IndexPhase
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult
from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.sorter import DEFAULT_SORT_THRESHOLD, ProgressiveSorter
from repro.storage.column import Column


class ProgressiveQuicksort(ProgressiveIndexBase):
    """Progressive Quicksort index over a single column.

    Parameters
    ----------
    column:
        Column to index.
    budget:
        Budget policy (fixed delta, fixed time, time-adaptive or greedy).
    constants:
        Cost-model constants; defaults to the deterministic simulated set.
    sort_threshold:
        Pieces of at most this many elements are sorted outright during
        refinement (the paper's L1-cache-sized pieces).
    fanout:
        β of the consolidation-phase B+-tree cascade.
    """

    name = "PQ"
    description = "Progressive Quicksort"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants, fanout=fanout)
        self.sort_threshold = int(sort_threshold)
        # Creation-phase state -------------------------------------------------
        self._index_array: np.ndarray | None = None
        self._pivot: float | None = None
        self._low_fill = 0          # next free slot at the top of the array
        self._high_fill = 0         # one past the last free slot at the bottom
        self._elements_copied = 0   # how much of the base column has been copied
        # Refinement state -----------------------------------------------------
        self._sorter: ProgressiveSorter | None = None

    # ------------------------------------------------------------------
    @property
    def pivot(self) -> float | None:
        """The creation-phase pivot (average of the column's min and max)."""
        return self._pivot

    def memory_footprint(self) -> int:
        total = 0
        if self._index_array is not None:
            total += self._index_array.nbytes
        if self._cascade is not None:
            total += self._cascade.memory_footprint()
        elif self._consolidator is not None:
            total += sum(level.nbytes for level in self._consolidator.levels)
        return total

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _construction_state(self) -> dict:
        state = {
            "sort_threshold": self.sort_threshold,
            "pivot": self._pivot,
            "elements_copied": int(self._elements_copied),
        }
        if self._index_array is not None:
            state["index_array"] = np.array(self._index_array)
        if self._sorter is not None:
            state["sorter"] = self._sorter.state_dict()
        else:
            state["low_fill"] = int(self._low_fill)
            state["high_fill"] = int(self._high_fill)
        return state

    def _load_construction_state(self, state: dict) -> None:
        self.sort_threshold = int(state.get("sort_threshold", self.sort_threshold))
        self._pivot = state.get("pivot")
        self._elements_copied = int(state.get("elements_copied", 0))
        array = state.get("index_array")
        if array is None:
            return  # INACTIVE: nothing was allocated yet
        self._index_array = np.asarray(array)
        sorter_state = state.get("sorter")
        if sorter_state is not None:
            self._sorter = ProgressiveSorter.from_state(self._index_array, sorter_state)
            self._sorter.scratch_allocator = self._scratch_pool()
        else:
            self._low_fill = int(state["low_fill"])
            self._high_fill = int(state["high_fill"])

    def _restore_final_array(self, leaf: np.ndarray, sorted_ready: bool) -> None:
        self._index_array = leaf

    # ------------------------------------------------------------------
    # Creation phase
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """Allocate the index array and choose the pivot (first query only)."""
        n = len(self._column)
        column_min = float(self._column.min())
        column_max = float(self._column.max())
        self._pivot = column_min + (column_max - column_min) / 2.0
        self._index_array = self._scratch_allocate(n, self._column.dtype)
        self._low_fill = 0
        self._high_fill = n
        self._elements_copied = 0

    def _creation_alpha(self, predicate: Predicate) -> float:
        """Fraction of the partial index scanned for ``predicate``."""
        n = len(self._column)
        if n == 0 or self._elements_copied == 0:
            return 0.0
        low_part = self._low_fill
        high_part = n - self._high_fill
        touched = 0
        if predicate.low < self._pivot:
            touched += low_part
        if predicate.high >= self._pivot:
            touched += high_part
        return touched / n

    def _creation_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        n = len(self._column)
        rho = self._elements_copied / n
        alpha = self._creation_alpha(predicate)
        scan_time = self._cost_model.scan_time(n)
        return CostBreakdown(
            scan=max(0.0, 1.0 - rho - delta) * scan_time + alpha * scan_time,
            lookup=0.0,
            indexing=delta * self._cost_model.pivot_time(n),
        )

    def _execute_creation(self, predicate: Predicate) -> QueryResult:
        n = len(self._column)
        rho = self._elements_copied / n
        pivot_time = self._cost_model.pivot_time(n)
        decision = self._decide(
            pivot_time,
            lambda d: self._creation_cost(predicate, d),
            max_delta=1.0 - rho,
        )
        delta = decision.delta
        to_copy = min(n - self._elements_copied, int(np.ceil(delta * n))) if delta > 0 else 0

        if to_copy > 0:
            self._copy_into_index(to_copy)

        # Answer the query: indexed pieces + not-yet-copied tail of the column.
        result = self._query_creation_pieces(predicate)
        result += self._scan_column(predicate, start=self._elements_copied)

        self.last_stats.elements_indexed = to_copy

        if self._elements_copied >= n:
            self._enter_refinement()
        return result

    def _copy_into_index(self, count: int) -> None:
        """Copy the next ``count`` base-column elements around the pivot.

        Streamed in budget-sized chunks so a paged base never materializes
        more than one chunk of decompressed data at a time.
        """
        start = self._elements_copied
        stop = min(len(self._column), start + count)
        for chunk in self._stream_column(start, stop):
            below = kernels.partition_chunk(
                chunk, self._pivot, self._index_array, self._low_fill, self._high_fill
            )
            self._low_fill += below
            self._high_fill -= chunk.size - below
        self._elements_copied = stop

    def _query_creation_pieces(self, predicate: Predicate) -> QueryResult:
        """Scan the low and/or high piece of the partial index."""
        result = QueryResult.empty()
        if self._elements_copied == 0:
            return result
        if predicate.low < self._pivot and self._low_fill > 0:
            segment = self._index_array[: self._low_fill]
            result += QueryResult.from_range(segment, predicate.low, predicate.high)
        if predicate.high >= self._pivot and self._high_fill < self._index_array.size:
            segment = self._index_array[self._high_fill :]
            result += QueryResult.from_range(segment, predicate.low, predicate.high)
        return result

    def _enter_refinement(self) -> None:
        self._sorter = ProgressiveSorter.from_partitioned(
            self._index_array,
            boundary=self._low_fill,
            pivot=self._pivot,
            value_low=float(self._column.min()),
            value_high=float(self._column.max()),
            sort_threshold=self.sort_threshold,
        )
        self._sorter.scratch_allocator = self._scratch_pool()
        self._advance_phase(IndexPhase.REFINEMENT)
        if self._sorter.is_sorted:
            self._enter_consolidation(self._index_array)

    # ------------------------------------------------------------------
    # Refinement phase
    # ------------------------------------------------------------------
    def _refinement_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        n = len(self._column)
        alpha = self._sorter.scanned_fraction(predicate)
        return CostBreakdown(
            scan=alpha * self._cost_model.scan_time(n),
            lookup=self._cost_model.tree_lookup_time(self._sorter.height),
            indexing=delta * self._cost_model.swap_time(n),
        )

    def _execute_refinement(self, predicate: Predicate) -> QueryResult:
        n = len(self._column)
        swap_time = self._cost_model.swap_time(n)
        decision = self._decide(
            swap_time, lambda d: self._refinement_cost(predicate, d)
        )
        delta = decision.delta
        element_budget = int(np.ceil(delta * n)) if delta > 0 else 0

        refined = 0
        if element_budget > 0:
            if delta >= 1.0 and self.budget.pooled:
                # A pooled batch budget granting the entire remaining phase:
                # complete it outright.  Per-query budgets keep the paper's
                # incremental refinement even at delta = 1.
                refined = self._sorter.finish()
            else:
                self._sorter.prioritize(predicate)
                refined = self._sorter.refine(element_budget)

        result = self._sorter.query(predicate)

        self.last_stats.elements_indexed = refined

        if self._sorter.is_sorted:
            self._enter_consolidation(self._index_array)
        return result

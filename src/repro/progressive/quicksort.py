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
    The two creation pieces are the children of the root of a
    :class:`~repro.progressive.pieces.PieceTable`.  PQ's split rule: a piece
    is partitioned in place around its pivot (the midpoint of its value
    bounds), a bounded number of elements per query, and splits two ways; a
    piece that fits the cache threshold is sorted outright.  The pieces a
    query overlaps are refined first, and it reads the pieces it reaches.

Converged
    The query that finishes sorting converges the index: the final array is
    the sorted leaf every later read searches (shared through
    :class:`~repro.progressive.base.ProgressiveIndexBase`).

The shared base class prices both phases with the formulas of Section 3.1, from
PQ's α (the pieces a query scans), ``t_pivot`` and ``t_swap``.
"""

from __future__ import annotations

import math

import numpy as np

from repro import kernels
from repro.core.calibration import CostConstants
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult
from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.pieces import DEFAULT_SORT_THRESHOLD, SORTED
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
    """

    name = "PQ"
    description = "Progressive Quicksort"
    _ingested_key = "elements_copied"
    _construction_keys = ProgressiveIndexBase._construction_keys - {"elements_bucketed"} | {
        "elements_copied", "sort_threshold", "pivot", "low_fill", "high_fill"}
    _pq_rule = True

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        self.sort_threshold = int(sort_threshold)
        # Creation-phase state: the index array (``_final_array``) fills from
        # both ends around the pivot.
        self._pivot: float | None = None
        self._low_fill = 0          # next free slot at the top of the array
        self._high_fill = 0         # one past the last free slot at the bottom

    # ------------------------------------------------------------------
    @property
    def pivot(self) -> float | None:
        """The creation-phase pivot (average of the column's min and max)."""
        return self._pivot

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _construction_state(self) -> dict:
        return {
            **super()._construction_state(),
            "sort_threshold": self.sort_threshold,
            "pivot": self._pivot,
            "low_fill": int(self._low_fill),
            "high_fill": int(self._high_fill),
        }

    def _load_fields(self, state: dict) -> None:
        self.sort_threshold = int(state["sort_threshold"])
        self._pivot = state["pivot"]
        self._low_fill, self._high_fill = int(state["low_fill"]), int(state["high_fill"])

    # ------------------------------------------------------------------
    # Creation phase
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """Allocate the index array and choose the pivot (first query only)."""
        n = len(self._column)
        column_min, column_max = map(float, self._column.value_range())
        self._pivot = column_min + (column_max - column_min) / 2.0
        self._final_array = self._scratch_allocate(n, self._column.dtype)
        self._high_fill = n

    def _ingest(self, chunk: np.ndarray) -> None:
        below = kernels.partition_chunk(
            chunk, self._pivot, self._final_array, self._low_fill, self._high_fill
        )
        self._low_fill += below
        self._high_fill -= chunk.size - below

    def _creation_work_time(self) -> float:
        return self._cost_model.pivot_time(len(self._column))

    def _creation_scan(self, predicate: Predicate) -> tuple:
        n = len(self._column)
        touched = 0
        if predicate.low < self._pivot:
            touched += self._low_fill
        if predicate.high >= self._pivot:
            touched += n - self._high_fill
        return touched / n, self._cost_model.scan_time(n)

    def _scan_ingested(self, predicate: Predicate) -> QueryResult:
        """Scan the low and/or high piece of the partial index."""
        result = QueryResult.empty()
        if predicate.low < self._pivot and self._low_fill > 0:
            segment = self._final_array[: self._low_fill]
            result += QueryResult.from_range(segment, predicate.low, predicate.high)
        if predicate.high >= self._pivot and self._high_fill < self._final_array.size:
            segment = self._final_array[self._high_fill :]
            result += QueryResult.from_range(segment, predicate.low, predicate.high)
        return result

    # ------------------------------------------------------------------
    # Refinement phase
    # ------------------------------------------------------------------
    def _start_refinement(self) -> None:
        """The two creation pieces are the root's children."""
        self._pieces = table = self._piece_table()
        root = table.add_pq(0, len(self._column), -math.inf, math.inf, float(self._column.min()),
                            float(self._column.max()), pivot=self._pivot)
        if table.state[root] != SORTED:
            table.split_two(root, self._low_fill)

    def _refinement_work_time(self) -> float:
        return self._cost_model.swap_time(len(self._column))

    def _refinement_scan(self, predicate: Predicate) -> tuple:
        return super()._refinement_scan(predicate)[0], self._cost_model.scan_time(len(self._column))

    def _refinement_lookup_time(self) -> float:
        return self._cost_model.tree_lookup_time(self._pieces.height)

    def _refine(self, element_budget: int, predicate: Predicate) -> int:
        table = self._pieces
        if self.last_stats.delta >= 1.0 and self.budget.pooled:
            # A pooled batch budget granting the entire remaining phase:
            # complete it outright.  Per-query budgets keep the paper's
            # incremental refinement even at delta = 1.
            return table.finish()
        table.prioritize(predicate.low, predicate.high)
        return table.refine(element_budget, table.sort_step)

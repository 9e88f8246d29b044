"""Progressive Radixsort, least-significant digits first (Section 3.4).

Creation
    Every query moves ``delta * N`` elements of the base column into ``b``
    buckets keyed by the *least* significant ``log2(b)`` bits of the
    element's order-preserving radix key (see
    :class:`~repro.core.keys.RadixKeySpace`: the biased integer key for
    ``int64`` columns — equivalent to the paper's ``value - min`` — and the
    IEEE-754 monotone bit pattern for ``float64`` columns, so fractional
    parts order correctly).  These buckets are not a value-range
    partitioning, so they only accelerate point queries; range queries fall
    back to scanning the original column (the paper: "when α == ρ we scan
    the original column instead of using the buckets").

Refinement
    The elements are repeatedly moved to a fresh set of buckets keyed by the
    next ``log2(b)`` bits — a classic out-of-place LSD radix sort performed a
    bounded number of elements per query.  The number of passes is
    ``ceil(log2(max - min) / log2(b))`` in key space (the paper's formula).
    After the final pass the buckets are drained, in order, into the fully
    sorted index array.

Consolidation
    A B+-tree cascade is built over the sorted array by the shared
    :class:`~repro.progressive.base.ProgressiveIndexBase` driver.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.btree.cascade import DEFAULT_FANOUT
from repro.core.calibration import DEFAULT_BLOCK_SIZE, CostConstants
from repro.core.cost_model import CostBreakdown
from repro.core.keys import RadixKeySpace
from repro.core.phase import IndexPhase
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult
from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.blocks import BucketSet
from repro.storage.column import Column

#: Default number of radix buckets (paper: 64).
DEFAULT_BUCKET_COUNT = 64


class _RefinementStage(enum.Enum):
    """Sub-stage of the LSD refinement phase."""

    PASSES = "passes"   # moving elements between bucket generations
    MERGE = "merge"     # draining the final bucket generation into the array


class ProgressiveRadixsortLSD(ProgressiveIndexBase):
    """Progressive Radixsort (LSD) index over a single column.

    Parameters
    ----------
    column:
        Column to index (``int64`` or ``float64``; radix digits come from the
        column's order-preserving :class:`~repro.core.keys.RadixKeySpace`).
    budget:
        Budget policy.
    constants:
        Cost-model constants.
    n_buckets:
        Radix fan-out ``b`` (a power of two).
    block_size:
        Elements per linked block (paper: ``sb``).
    fanout:
        β of the consolidation-phase B+-tree cascade.
    """

    name = "PLSD"
    description = "Progressive Radixsort (LSD)"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        n_buckets: int = DEFAULT_BUCKET_COUNT,
        block_size: int = DEFAULT_BLOCK_SIZE,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants, fanout=fanout)
        if n_buckets < 2 or (n_buckets & (n_buckets - 1)) != 0:
            raise ValueError(f"n_buckets must be a power of two >= 2, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        self.bits_per_pass = int(np.log2(self.n_buckets))
        self.block_size = int(block_size)
        self._cost_model.block_size = self.block_size
        # Radix bookkeeping ------------------------------------------------
        self._keyspace: RadixKeySpace | None = None
        self._total_passes = 1
        self._current_pass = 0
        # Creation state ----------------------------------------------------
        self._current_set: BucketSet | None = None
        self._elements_bucketed = 0
        # Refinement state --------------------------------------------------
        self._stage = _RefinementStage.PASSES
        self._next_set: BucketSet | None = None
        self._pass_bucket_cursor = 0
        self._pass_offset_cursor = 0
        self._pass_moved = 0
        self._final_array: np.ndarray | None = None
        self._merge_bucket_cursor = 0
        self._merge_offset_cursor = 0
        self._merge_position = 0

    # ------------------------------------------------------------------
    @property
    def total_passes(self) -> int:
        """Total number of radix passes required for convergence."""
        return self._total_passes

    @property
    def current_pass(self) -> int:
        """Zero-based index of the pass currently in progress."""
        return self._current_pass

    def memory_footprint(self) -> int:
        total = 0
        for bucket_set in (self._current_set, self._next_set):
            if bucket_set is not None:
                total += bucket_set.memory_footprint()
        if self._final_array is not None:
            total += self._final_array.nbytes
        if self._cascade is not None:
            total += self._cascade.memory_footprint()
        return total

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _construction_state(self) -> dict:
        state = {
            "initialized": self._keyspace is not None,
            "elements_bucketed": int(self._elements_bucketed),
            "current_pass": int(self._current_pass),
            "stage": self._stage.value,
        }
        if self._current_set is not None:
            state["current_set"] = self._current_set.state_dict()
        if self._stage is _RefinementStage.PASSES:
            if self._next_set is not None:
                state["next_set"] = self._next_set.state_dict()
            state["pass_bucket_cursor"] = int(self._pass_bucket_cursor)
            state["pass_offset_cursor"] = int(self._pass_offset_cursor)
            state["pass_moved"] = int(self._pass_moved)
        else:
            if self._final_array is not None:
                state["final_array"] = np.array(self._final_array)
            state["merge_bucket_cursor"] = int(self._merge_bucket_cursor)
            state["merge_offset_cursor"] = int(self._merge_offset_cursor)
            state["merge_position"] = int(self._merge_position)
        return state

    def _load_construction_state(self, state: dict) -> None:
        if not state.get("initialized"):
            return
        # The keyspace is a pure function of the pinned snapshot's bounds.
        self._keyspace = RadixKeySpace(
            self._column.min(), self._column.max(), self._column.dtype, self.bits_per_pass
        )
        self._total_passes = self._keyspace.n_digits
        self._elements_bucketed = int(state["elements_bucketed"])
        self._current_pass = int(state["current_pass"])
        self._stage = _RefinementStage(state["stage"])
        if "current_set" in state:
            self._current_set = BucketSet.from_state(state["current_set"])
        if self._stage is _RefinementStage.PASSES:
            if "next_set" in state:
                self._next_set = BucketSet.from_state(state["next_set"])
            self._pass_bucket_cursor = int(state.get("pass_bucket_cursor", 0))
            self._pass_offset_cursor = int(state.get("pass_offset_cursor", 0))
            self._pass_moved = int(state.get("pass_moved", 0))
        else:
            if "final_array" in state:
                self._final_array = np.asarray(state["final_array"])
            self._merge_bucket_cursor = int(state.get("merge_bucket_cursor", 0))
            self._merge_offset_cursor = int(state.get("merge_offset_cursor", 0))
            self._merge_position = int(state.get("merge_position", 0))

    def _restore_final_array(self, leaf: np.ndarray, sorted_ready: bool) -> None:
        self._final_array = leaf
        self._keyspace = RadixKeySpace(
            self._column.min(), self._column.max(), self._column.dtype, self.bits_per_pass
        )
        self._total_passes = self._keyspace.n_digits

    # ------------------------------------------------------------------
    # Radix helpers
    # ------------------------------------------------------------------
    def _point_bucket_id(self, value, pass_number: int) -> int:
        return self._keyspace.digit_scalar(value, pass_number)

    # ------------------------------------------------------------------
    # Creation phase (pass 0)
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        self._keyspace = RadixKeySpace(
            self._column.min(), self._column.max(), self._column.dtype, self.bits_per_pass
        )
        self._total_passes = self._keyspace.n_digits
        self._current_set = BucketSet(
            self.n_buckets,
            block_size=self.block_size,
            dtype=self._column.dtype,
            arena=self._block_arena(self.block_size),
        )
        self._current_pass = 0
        self._elements_bucketed = 0

    def _creation_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        n = len(self._column)
        rho = self._elements_bucketed / n
        scan_time = self._cost_model.scan_time(n)
        if predicate.is_point:
            bucket = self._current_set[self._point_bucket_id(predicate.low, 0)]
            alpha = len(bucket) / n if n else 0.0
            scan = alpha * self._cost_model.bucket_scan_time(n)
            scan += max(0.0, 1.0 - rho - delta) * scan_time
        else:
            # Range queries cannot use the LSD buckets: fall back to a full
            # column scan (alpha == rho case in the paper).
            scan = scan_time
        return CostBreakdown(
            scan=scan,
            lookup=0.0,
            indexing=delta * self._cost_model.bucket_write_time(n),
        )

    def _execute_creation(self, predicate: Predicate) -> QueryResult:
        n = len(self._column)
        rho = self._elements_bucketed / n
        bucket_write_time = self._cost_model.bucket_write_time(n)
        decision = self._decide(
            bucket_write_time,
            lambda d: self._creation_cost(predicate, d),
            max_delta=1.0 - rho,
        )
        delta = decision.delta
        to_bucket = min(n - self._elements_bucketed, int(np.ceil(delta * n))) if delta > 0 else 0

        if to_bucket > 0:
            start = self._elements_bucketed
            for chunk in self._stream_column(start, start + to_bucket):
                self._current_set.scatter_radix(chunk, self._keyspace.key_min, 0)
                self._elements_bucketed += chunk.size

        if predicate.is_point:
            bucket = self._current_set[self._point_bucket_id(predicate.low, 0)]
            result = bucket.scan(predicate.low, predicate.high)
            result += self._scan_column(predicate, start=self._elements_bucketed)
        else:
            result = self._scan_column(predicate)

        self.last_stats.elements_indexed = to_bucket

        if self._elements_bucketed >= n:
            self._enter_refinement()
        return result

    # ------------------------------------------------------------------
    # Refinement phase (passes 1 .. total_passes-1, then the merge)
    # ------------------------------------------------------------------
    def _enter_refinement(self) -> None:
        self._advance_phase(IndexPhase.REFINEMENT)
        if self._total_passes == 1:
            self._start_merge()
        else:
            self._start_pass(1)

    def _start_pass(self, pass_number: int) -> None:
        self._current_pass = pass_number
        self._stage = _RefinementStage.PASSES
        self._next_set = BucketSet(
            self.n_buckets,
            block_size=self.block_size,
            dtype=self._column.dtype,
            arena=self._block_arena(self.block_size),
        )
        self._pass_bucket_cursor = 0
        self._pass_offset_cursor = 0
        self._pass_moved = 0

    def _start_merge(self) -> None:
        self._stage = _RefinementStage.MERGE
        self._final_array = self._scratch_allocate(len(self._column), self._column.dtype)
        self._merge_bucket_cursor = 0
        self._merge_offset_cursor = 0
        self._merge_position = 0

    def _advance_pass(self, element_budget: int) -> int:
        """Move up to ``element_budget`` elements into the next bucket set."""
        moved = 0
        budget = int(element_budget)
        n = len(self._column)
        while budget > 0 and self._pass_moved < n:
            bucket = self._current_set[self._pass_bucket_cursor]
            remaining = len(bucket) - self._pass_offset_cursor
            if remaining <= 0:
                self._pass_bucket_cursor += 1
                self._pass_offset_cursor = 0
                continue
            take = min(budget, remaining)
            chunk = bucket.slice_array(self._pass_offset_cursor, take)
            self._next_set.scatter_radix(
                chunk, self._keyspace.key_min, self._current_pass * self.bits_per_pass
            )
            self._pass_offset_cursor += chunk.size
            self._pass_moved += chunk.size
            moved += chunk.size
            budget -= chunk.size
        if self._pass_moved >= n:
            self._current_set.clear()
            self._current_set = self._next_set
            self._next_set = None
            if self._current_pass + 1 < self._total_passes:
                self._start_pass(self._current_pass + 1)
            else:
                self._start_merge()
        return moved

    def _advance_merge(self, element_budget: int) -> int:
        """Drain the final bucket generation into the sorted index array."""
        moved = 0
        budget = int(element_budget)
        n = len(self._column)
        while budget > 0 and self._merge_position < n:
            bucket = self._current_set[self._merge_bucket_cursor]
            remaining = len(bucket) - self._merge_offset_cursor
            if remaining <= 0:
                self._merge_bucket_cursor += 1
                self._merge_offset_cursor = 0
                continue
            take = min(budget, remaining)
            copied = bucket.drain_into(
                self._final_array, self._merge_position, self._merge_offset_cursor, take
            )
            self._merge_offset_cursor += copied
            self._merge_position += copied
            moved += copied
            budget -= copied
        if self._merge_position >= n:
            self._current_set.clear()
            self._current_set = None
            self._enter_consolidation(self._final_array)
        return moved

    def _point_query_during_refinement(self, predicate: Predicate) -> QueryResult:
        """Answer a point query from the (partially migrated) bucket sets."""
        result = QueryResult.empty()
        if self._stage is _RefinementStage.PASSES:
            old_pass = self._current_pass - 1
            old_id = self._point_bucket_id(predicate.low, old_pass)
            new_id = self._point_bucket_id(predicate.low, self._current_pass)
            # Elements already moved live in the new set.
            result += self._next_set[new_id].scan(predicate.low, predicate.high)
            # Elements not yet moved live in the old set, beyond the cursor.
            if old_id > self._pass_bucket_cursor:
                result += self._current_set[old_id].scan(predicate.low, predicate.high)
            elif old_id == self._pass_bucket_cursor:
                bucket = self._current_set[old_id]
                remaining = bucket.slice_array(
                    self._pass_offset_cursor, len(bucket) - self._pass_offset_cursor
                )
                result += QueryResult.from_range(remaining, predicate.low, predicate.high)
        else:  # MERGE stage
            last_pass = self._total_passes - 1
            bucket_id = self._point_bucket_id(predicate.low, last_pass)
            # Already merged elements live in the sorted prefix of the array.
            prefix = self._final_array[: self._merge_position]
            result += QueryResult.from_range(prefix, predicate.low, predicate.high)
            if bucket_id > self._merge_bucket_cursor:
                result += self._current_set[bucket_id].scan(predicate.low, predicate.high)
            elif bucket_id == self._merge_bucket_cursor:
                bucket = self._current_set[bucket_id]
                remaining = bucket.slice_array(
                    self._merge_offset_cursor, len(bucket) - self._merge_offset_cursor
                )
                result += QueryResult.from_range(remaining, predicate.low, predicate.high)
        return result

    def _refinement_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        n = len(self._column)
        if self._stage is _RefinementStage.PASSES:
            full_work = self._cost_model.bucket_write_time(n)
        else:
            full_work = self._cost_model.write_time(n)
        if predicate.is_point:
            alpha = 1.0 / self.n_buckets
            scan = alpha * self._cost_model.bucket_scan_time(n)
        else:
            scan = self._cost_model.scan_time(n)
        return CostBreakdown(scan=scan, lookup=0.0, indexing=delta * full_work)

    def _execute_refinement(self, predicate: Predicate) -> QueryResult:
        n = len(self._column)
        if self._stage is _RefinementStage.PASSES:
            full_work = self._cost_model.bucket_write_time(n)
        else:
            full_work = self._cost_model.write_time(n)
        decision = self._decide(
            full_work, lambda d: self._refinement_cost(predicate, d)
        )
        delta = decision.delta
        element_budget = int(np.ceil(delta * n)) if delta > 0 else 0

        moved = 0
        if element_budget > 0:
            if self._stage is _RefinementStage.PASSES:
                moved = self._advance_pass(element_budget)
            else:
                moved = self._advance_merge(element_budget)

        # Answer the query.  The phase may have advanced to consolidation
        # (or beyond) while performing the work; re-dispatch in that case.
        if self.phase is not IndexPhase.REFINEMENT:
            result = self._consolidator.query(predicate)
        elif predicate.is_point:
            result = self._point_query_during_refinement(predicate)
        else:
            result = self._scan_column(predicate)

        self.last_stats.elements_indexed = moved
        return result

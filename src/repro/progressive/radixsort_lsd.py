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
    A pass knows its buckets' final sizes before it moves anything: they
    are the histogram of its digit over the generation it reads, counted
    when the pass starts.  So every refinement generation is an
    :class:`~repro.progressive.blocks.ExactBucketSet` — one flat array the
    cursor scatter writes straight into — and, once full, it reads in bucket
    order as one slice, so a step is one scatter call.  (The creation
    buckets, filled from the base column, keep their pieces.)  After the
    final pass the buckets are drained, in order, into the fully sorted index
    array — one slice copy a step.

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
        # Refinement state: ``_buckets`` is the generation being read, in
        # bucket order, ``_moved`` elements of it already moved on; a pass
        # scatters it into ``_next_set``, the merge drains it into
        # ``_final_array``.
        self._current_pass = 0
        self._stage = _RefinementStage.PASSES
        self._next_set: BucketSet | None = None
        self._moved = 0

    # ------------------------------------------------------------------
    @property
    def total_passes(self) -> int:
        """Total number of radix passes required for convergence."""
        return self._keyspace.n_digits

    @property
    def current_pass(self) -> int:
        """Zero-based index of the pass currently in progress."""
        return self._current_pass

    def _bucket_sets(self) -> tuple:
        return self._buckets, self._next_set

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _construction_state(self) -> dict:
        state = {
            "initialized": self.phase is not IndexPhase.INACTIVE,
            "current_pass": int(self._current_pass),
            "stage": self._stage.value,
        }
        if self._buckets is not None:
            state["current_set"] = self._buckets.state_dict()
        if self._stage is _RefinementStage.PASSES:
            if self._next_set is not None:
                state["next_set"] = self._next_set.state_dict()
            prefix, moved_key = "pass", "pass_moved"
        else:
            if self._final_array is not None:
                state["final_array"] = np.array(self._final_array)
            prefix, moved_key = "merge", "merge_position"
        state[f"{prefix}_bucket_cursor"], state[f"{prefix}_offset_cursor"] = self._cursor()
        state[moved_key] = int(self._moved)
        return state

    def _load_construction_state(self, state: dict) -> None:
        if not state.get("initialized"):
            return
        self._current_pass = int(state["current_pass"])
        self._stage = _RefinementStage(state["stage"])
        if "current_set" in state:
            self._buckets = self._bucket_set(state["current_set"])
        if self._stage is _RefinementStage.PASSES:
            if "next_set" in state:
                self._next_set = self._generation(self._current_pass, state["next_set"])
            moved_key = "pass_moved"
        else:
            if "final_array" in state:
                self._final_array = np.asarray(state["final_array"])
            moved_key = "merge_position"
        # The bucket/offset cursors are derived from the moved count.
        self._moved = int(state.get(moved_key, 0))

    def _cursor(self) -> tuple:
        """``(bucket, offset)`` of the read cursor in the generation being
        read: where a step leaves it, at the bucket of the last element moved
        — ``(0, 0)`` before the first."""
        if self._moved == 0:
            return 0, 0
        ends = np.cumsum(self._buckets.sizes())
        bucket = int(np.searchsorted(ends, self._moved - 1, side="right"))
        return bucket, self._moved - int(ends[bucket] - len(self._buckets[bucket]))

    # ------------------------------------------------------------------
    # Creation phase (pass 0)
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        self._buckets = self._bucket_set()

    def _ingest(self, chunk: np.ndarray) -> None:
        self._buckets.scatter_radix(chunk, self._keyspace.key_min, 0)

    def _creation_work_time(self) -> float:
        return self._cost_model.bucket_write_time(len(self._column))

    def _relevant_buckets(self, predicate: Predicate) -> range:
        digit = self._keyspace.digit_scalar(predicate.low, 0)
        return range(digit, digit + 1)

    # The LSD buckets are no value-range partitioning, so a range query
    # cannot use them: it scans the whole original column instead (the
    # paper's alpha == rho case).  That scan costs t_scan whatever rho and
    # delta are, which the shared (1-rho-delta)*t_scan + alpha*t_bscan shape
    # cannot express, hence these two overrides.
    def _creation_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        if predicate.is_point:
            return super()._creation_cost(predicate, delta)
        return CostBreakdown(
            scan=self._cost_model.scan_time(len(self._column)),
            lookup=0.0,
            indexing=delta * self._creation_work_time(),
        )

    def _creation_answer(self, predicate: Predicate) -> QueryResult:
        if predicate.is_point:
            return super()._creation_answer(predicate)
        return self._scan_column(predicate)

    # ------------------------------------------------------------------
    # Refinement phase (passes 1 .. total_passes-1, then the merge)
    # ------------------------------------------------------------------
    def _start_refinement(self) -> None:
        if self.total_passes == 1:
            self._start_merge()
        else:
            self._start_pass(1)

    def _start_pass(self, pass_number: int) -> None:
        self._current_pass = pass_number
        self._stage = _RefinementStage.PASSES
        self._next_set = self._generation(pass_number)
        self._moved = 0

    def _generation(self, pass_number: int, state: dict | None = None) -> BucketSet:
        """The exact-offset set pass ``pass_number`` fills (or the one
        ``state`` saved, part filled): its sizes are the histogram of the
        pass's digit over the generation it reads."""
        sizes = self._buckets.histogram(self._keyspace.key_min, pass_number * self.bits_per_pass)
        return self._bucket_set(state, sizes=sizes)

    def _start_merge(self) -> None:
        self._stage = _RefinementStage.MERGE
        self._final_array = self._scratch_allocate(len(self._column), self._column.dtype)
        self._moved = 0

    def _refine(self, element_budget: int, predicate: Predicate) -> int:
        """Move up to ``element_budget`` elements on from the cursor: into the
        next bucket generation, or, after the last pass, into the array."""
        n = len(self._column)
        take = min(element_budget, n - self._moved)
        parts = self._buckets.read(self._moved, take)
        if self._stage is _RefinementStage.PASSES:
            shift = self._current_pass * self.bits_per_pass
            for part in parts:
                self._next_set.scatter_radix(part, self._keyspace.key_min, shift)
        else:
            at = self._moved
            for part in parts:
                self._final_array[at : at + part.size] = part
                at += part.size
        self._moved += take
        if self._stage is _RefinementStage.PASSES and self._moved >= n:
            self._buckets.clear()
            self._buckets, self._next_set = self._next_set, None
            if self._current_pass + 1 < self.total_passes:
                self._start_pass(self._current_pass + 1)
            else:
                self._start_merge()
        return take

    def _refinement_done(self) -> bool:
        return self._stage is _RefinementStage.MERGE and self._moved >= len(self._column)

    def _refinement_answer(self, predicate: Predicate) -> QueryResult:
        if self._refinement_done():
            # Merged: the array is sorted, answer the way consolidation does.
            return QueryResult.from_sorted(self._final_array, predicate.low, predicate.high)
        if not predicate.is_point:
            return self._scan_column(predicate)
        # A point query reads the moved part and the unmoved rest of its bucket.
        result = QueryResult.empty()
        if self._stage is _RefinementStage.PASSES:
            # Elements already moved live in the new set.
            new_id = self._keyspace.digit_scalar(predicate.low, self._current_pass)
            result += self._next_set[new_id].scan(predicate.low, predicate.high)
            unmoved_pass = self._current_pass - 1
        else:
            # Already merged elements live in the sorted prefix of the array.
            prefix = self._final_array[: self._moved]
            result += QueryResult.from_range(prefix, predicate.low, predicate.high)
            unmoved_pass = self._current_pass  # the merge drains the last pass's buckets
        # Elements not yet moved live in the old set, beyond the cursor.
        bucket_id = self._keyspace.digit_scalar(predicate.low, unmoved_pass)
        cursor_bucket, cursor_offset = self._cursor()
        if bucket_id > cursor_bucket:
            result += self._buckets[bucket_id].scan(predicate.low, predicate.high)
        elif bucket_id == cursor_bucket:
            bucket = self._buckets[bucket_id]
            remaining = bucket.slice_array(cursor_offset, len(bucket) - cursor_offset)
            result += QueryResult.from_range(remaining, predicate.low, predicate.high)
        return result

    def _refinement_work_time(self) -> float:
        n = len(self._column)
        if self._stage is _RefinementStage.PASSES:
            return self._cost_model.bucket_write_time(n)
        return self._cost_model.write_time(n)

    def _refinement_scan(self, predicate: Predicate) -> tuple:
        n = len(self._column)
        if predicate.is_point:
            return 1.0 / self.n_buckets, self._cost_model.bucket_scan_time(n)
        return 1.0, self._cost_model.scan_time(n)

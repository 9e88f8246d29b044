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
    are the histogram of its digit over all ``N`` values, which does not
    depend on their order, so it is counted while the previous pass (or the
    creation phase) moves each chunk.  So every refinement generation is an
    :class:`~repro.progressive.blocks.ExactBucketSet` — one flat array the
    cursor scatter writes straight into — and, once full, it reads in bucket
    order as one slice, so a step is one scatter call.  (The creation
    buckets, filled from the base column, keep their pieces.)  The last
    pass leaves the data sorted in its generation's flat array, which
    becomes the index array as it stands.  A one-digit domain takes one pass
    over the digit above it — zero for every value, so a stable copy into
    one flat array.

Converged
    The query that finishes sorting converges the index: the final array is
    the sorted leaf every later read searches (shared through
    :class:`~repro.progressive.base.ProgressiveIndexBase`).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
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
    """

    name = "PLSD"
    description = "Progressive Radixsort (LSD)"
    _construction_keys = frozenset(("stage", "elements_bucketed", "initialized", "current_pass", "current_set",
                                    "next_set", "pass_bucket_cursor", "pass_offset_cursor", "pass_moved"))

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        n_buckets: int = DEFAULT_BUCKET_COUNT,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        if n_buckets < 2 or (n_buckets & (n_buckets - 1)) != 0:
            raise ValueError(f"n_buckets must be a power of two >= 2, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        self.bits_per_pass = int(np.log2(self.n_buckets))
        self.block_size = int(block_size)
        self._cost_model.block_size = self.block_size
        # Refinement state: ``_buckets`` is the generation being read, in
        # bucket order, ``_moved`` elements of it already scattered into
        # ``_next_set``; ``_next_counts`` is the histogram of the next pass's
        # digit over the elements moved (ingested) so far.
        self._current_pass = 0
        self._next_set: BucketSet | None = None
        self._next_counts: np.ndarray | None = None
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

    @property
    def _last_pass(self) -> int:
        """The pass whose generation ends sorted (pass 1 on a one-digit domain)."""
        return max(1, self.total_passes - 1)

    def _bucket_sets(self) -> tuple:
        return self._buckets, self._next_set

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _construction_state(self) -> dict:
        state = {
            "initialized": self.phase is not IndexPhase.INACTIVE,
            "current_pass": int(self._current_pass),
        }
        if self._buckets is not None:
            state["current_set"] = self._buckets.state_dict()
        if self._next_set is not None:
            state["next_set"] = self._next_set.state_dict()
        state["pass_bucket_cursor"], state["pass_offset_cursor"] = self._cursor()
        state["pass_moved"] = int(self._moved)
        return state

    def _load_construction_state(self, state: dict) -> None:
        if not state["initialized"]:
            return
        self._current_pass = int(state["current_pass"])
        self._buckets = self._bucket_set(state["current_set"])
        # The bucket/offset cursors are derived from the moved count.
        self._moved = int(state["pass_moved"])
        if "next_set" in state:
            sizes = self._buckets.histogram(self._keyspace.key_min, self._current_pass * self.bits_per_pass)
            self._next_set = self._bucket_set(state["next_set"], sizes=sizes)
        if self._current_pass < self._last_pass:
            # Recount what the moves (or the ingest) have counted so far.
            moved = self._buckets if self._next_set is None else self._next_set
            self._next_counts = moved.histogram(self._keyspace.key_min, self._next_shift)

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
        self._next_counts = np.zeros(self.n_buckets, dtype=np.int64)

    def _ingest(self, chunk: np.ndarray) -> None:
        self._buckets.scatter_radix(chunk, self._keyspace.key_min, 0)
        self._count_next(chunk)

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
    # Refinement phase (passes 1 .. the last)
    # ------------------------------------------------------------------
    @property
    def _next_shift(self) -> int:
        """Shift of the digit the pass after the current one reads."""
        return (self._current_pass + 1) * self.bits_per_pass

    def _count_next(self, values: np.ndarray) -> None:
        """Add ``values`` to the next pass's histogram (none after the last)."""
        if self._current_pass < self._last_pass:
            kernels.radix_histogram(
                values, self._keyspace.key_min, self._next_shift, self.n_buckets - 1, self._next_counts)

    def _start_refinement(self) -> None:
        self._start_pass(1)

    def _start_pass(self, pass_number: int) -> None:
        """Pass ``pass_number`` fills an exact-offset set whose sizes were
        counted while its input was moved."""
        self._next_set = self._bucket_set(sizes=self._next_counts)
        self._current_pass = pass_number
        self._next_counts = np.zeros(self.n_buckets, dtype=np.int64)
        self._moved = 0

    def _refine(self, element_budget: int, predicate: Predicate) -> int:
        """Move up to ``element_budget`` elements on from the cursor into the
        next bucket generation; the last generation, once full, is the
        sorted index array."""
        n = len(self._column)
        take = min(element_budget, n - self._moved)
        shift = self._current_pass * self.bits_per_pass
        for part in self._buckets.read(self._moved, take):
            self._next_set.scatter_radix(part, self._keyspace.key_min, shift)
            self._count_next(part)
        self._moved += take
        if self._moved >= n:
            self._buckets.clear()
            if self._current_pass < self._last_pass:
                self._buckets = self._next_set
                self._start_pass(self._current_pass + 1)
            else:
                self._final_array = self._next_set.data
                self._buckets = self._next_set = None
        return take

    def _refinement_done(self) -> bool:
        return self._final_array is not None

    def _refinement_answer(self, predicate: Predicate) -> QueryResult:
        if self._refinement_done():
            # The last pass is complete: the array is sorted.
            return QueryResult.from_sorted(self._final_array, predicate.low, predicate.high)
        if not predicate.is_point:
            return self._scan_column(predicate)
        # A point query reads the moved part, which lives in the new set, and
        # the unmoved rest of its bucket in the old set, beyond the cursor.
        new_id = self._keyspace.digit_scalar(predicate.low, self._current_pass)
        result = self._next_set[new_id].scan(predicate.low, predicate.high)
        bucket_id = self._keyspace.digit_scalar(predicate.low, self._current_pass - 1)
        cursor_bucket, cursor_offset = self._cursor()
        if bucket_id > cursor_bucket:
            result += self._buckets[bucket_id].scan(predicate.low, predicate.high)
        elif bucket_id == cursor_bucket:
            bucket = self._buckets[bucket_id]
            remaining = bucket.slice_array(cursor_offset, len(bucket) - cursor_offset)
            result += QueryResult.from_range(remaining, predicate.low, predicate.high)
        return result

    def _refinement_work_time(self) -> float:
        return self._cost_model.bucket_write_time(len(self._column))

    def _refinement_scan(self, predicate: Predicate) -> tuple:
        n = len(self._column)
        if predicate.is_point:
            return 1.0 / self.n_buckets, self._cost_model.bucket_scan_time(n)
        return 1.0, self._cost_model.scan_time(n)

"""Progressive Radixsort, most-significant digits first (Section 3.2).

Creation
    ``b`` empty buckets (linked lists of fixed-size blocks) are allocated on
    the first query.  Every query moves another ``delta * N`` elements of the
    base column into the buckets, choosing the bucket by the most significant
    ``log2(b)`` bits of the element's order-preserving radix key (a single
    shift; see :class:`~repro.core.keys.RadixKeySpace` — equivalent to the
    paper's ``value - min`` for integer columns, exact IEEE-754 bit-pattern
    ordering for floats).  Because the most significant bits are used, the
    buckets form a value-range partitioning, so range queries only scan the
    buckets overlapping the predicate plus the not-yet-bucketed tail of the
    column.

Refinement
    The buckets are the roots of a :class:`~repro.progressive.pieces.PieceTable`
    keyed by relative radix key.  PMSD's split rule: a piece splits 64 ways
    on its next ``log2(b)`` bits.  It knows its children's sizes before it
    moves anything — the histogram of that digit over its values — so they
    are an :class:`~repro.progressive.blocks.ExactBucketSet`: one flat array,
    filled in place by the cursor scatter, the children side by side and in
    value order.  A piece that fits the cache threshold is instead copied
    into its segment of the final array and sorted; a run of waiting sibling
    leaves that fits the step's budget is drained with one copy and sorted
    with one ``np.sort`` (the same array as one sort per leaf, each leaf
    still charged its size).

Converged
    The query that finishes sorting converges the index: the final array is
    the sorted leaf every later read searches (shared through
    :class:`~repro.progressive.base.ProgressiveIndexBase`).
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import DEFAULT_BLOCK_SIZE, CostConstants
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate
from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.blocks import ExactBucketSet
from repro.progressive.pieces import DEFAULT_SORT_THRESHOLD, PENDING, SCATTERING, SORTED, WAITING, PieceTable
from repro.storage.column import Column

#: Default number of radix buckets.  The paper uses 64 so that all bucket
#: write positions fit the L1 cache lines / TLB entries of their machine.
DEFAULT_BUCKET_COUNT = 64


class ProgressiveRadixsortMSD(ProgressiveIndexBase):
    """Progressive Radixsort (MSD) index over a single column.

    Parameters
    ----------
    column:
        Column to index (``int64`` or ``float64``; bucket routing happens in
        the column's order-preserving :class:`~repro.core.keys.RadixKeySpace`).
    budget:
        Budget policy.
    constants:
        Cost-model constants.
    n_buckets:
        Radix fan-out ``b`` (a power of two).
    block_size:
        Elements per linked block (paper: ``sb``).
    sort_threshold:
        Buckets of at most this many elements are sorted outright instead of
        being re-partitioned (the paper's L1-cache rule).
    """

    name = "PMSD"
    description = "Progressive Radixsort (MSD)"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        n_buckets: int = DEFAULT_BUCKET_COUNT,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        if n_buckets < 2 or (n_buckets & (n_buckets - 1)) != 0:
            raise ValueError(f"n_buckets must be a power of two >= 2, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        self.bits_per_level = int(np.log2(self.n_buckets))
        self.block_size = int(block_size)
        self.sort_threshold = int(sort_threshold)
        self._cost_model.block_size = self.block_size

    @property
    def _shift(self) -> int:
        """Shift of the creation buckets' (most significant) digit."""
        return self._keyspace.top_shift

    @property
    def _outer_keys(self) -> tuple:
        return 0, self.n_buckets << self._shift

    def _piece_shift(self, table: PieceTable, piece: int) -> int:
        """Shift of the digit that splits ``piece`` (one digit per level)."""
        return max(0, self._shift - self.bits_per_level * (table.depth[piece] + 1))

    # ------------------------------------------------------------------
    # Creation phase
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        self._buckets = self._bucket_set()

    def _ingest(self, chunk: np.ndarray) -> None:
        self._buckets.scatter_radix(chunk, self._keyspace.key_min, self._shift)

    def _creation_work_time(self) -> float:
        return self._cost_model.bucket_write_time(len(self._column))

    def _bucket_id(self, values: np.ndarray) -> np.ndarray:
        shifted = self._keyspace.shifted(values, self._shift)
        return np.minimum(shifted, self.n_buckets - 1)

    def _bucket_id_scalar(self, value) -> int:
        return min(self._keyspace.relative_key(value) >> self._shift, self.n_buckets - 1)

    def _relevant_buckets(self, predicate: Predicate) -> range:
        if predicate.high < self._column.min():
            return range(0)
        return range(
            self._bucket_id_scalar(predicate.low),
            self._bucket_id_scalar(predicate.high) + 1,
        )

    # ------------------------------------------------------------------
    # Refinement phase
    # ------------------------------------------------------------------
    def _start_refinement(self) -> None:
        """The creation buckets are the roots, in value order."""
        self._final_array = self._scratch_allocate(len(self._column), self._column.dtype)
        self._pieces = table = self._piece_table(self._buckets)
        span, sizes = 1 << self._shift, self._buckets.sizes().tolist()
        ends = np.cumsum(sizes).tolist()
        table.add(self.n_buckets, start=[end - size for end, size in zip(ends, sizes)], end=ends,
                  lo=[bucket_id * span for bucket_id in range(self.n_buckets)],
                  hi=[bucket_id * span for bucket_id in range(1, self.n_buckets + 1)],
                  state=[WAITING if size else SORTED for size in sizes])
        for bucket_id in range(self.n_buckets):
            if table.state[bucket_id] == WAITING:
                table.enqueue(bucket_id)

    def _must_copy(self, table: PieceTable, piece: int) -> bool:
        """Small (or unsplittable) pieces are sorted outright into the array."""
        return (table.size(piece) <= self.sort_threshold or self._piece_shift(table, piece) <= 0
                or self._shift == 0)

    def _child_set(self, table: PieceTable, piece: int, sizes=None) -> ExactBucketSet:
        """The exact-offset set ``piece`` partitions into: its sizes are the
        histogram of the next digit over the piece's values."""
        if sizes is None:
            sizes = np.zeros(self.n_buckets, dtype=np.int64)
            table.source(piece).histogram(
                self._keyspace.key_min + table.lo[piece], self._piece_shift(table, piece), sizes)
        return self._bucket_set(sizes=sizes)

    def _refine(self, element_budget: int, predicate: Predicate) -> int:
        return self._pieces.refine(element_budget, self._step)

    def _step(self, piece: int, budget: int) -> int:
        """PMSD's split rule on the head piece: copy and sort a small one
        (with the waiting siblings behind it that fit the budget, at once),
        scatter a large one on its next digit into a child array."""
        table = self._pieces
        state = table.state[piece]
        if state != SCATTERING and self._must_copy(table, piece):
            if state == WAITING:
                run = self._leaf_run(budget)
                if run:
                    return self._drain(run)
            copied = table.copy(piece, budget)
            if table.state[piece] == PENDING:
                table.final[table.start[piece]:table.end[piece]].sort()
                table.mark_sorted(piece)
            return copied
        if state != SCATTERING:
            table.state[piece], table.progress[piece] = SCATTERING, 0
            table.child_sets[piece] = self._child_set(table, piece)
        done = table.progress[piece]
        take = min(budget, table.size(piece) - done)
        base, shift = self._keyspace.key_min + table.lo[piece], self._piece_shift(table, piece)
        for part in table.source(piece).read(done, take):
            table.child_sets[piece].scatter_radix(part, base, shift)
        table.progress[piece] = done + take
        if done + take >= table.size(piece):
            self._expand(piece)
        return take

    def _leaf_run(self, budget: int) -> list:
        """The waiting pieces from the head of the worklist that lie side by
        side in one parent's child array, are leaves, and fit ``budget``
        whole, together (none when the head is a root)."""
        table = self._pieces
        head = table.head()
        parent = table.parent[head]
        if parent < 0:
            return []
        # Siblings share a shift, so their sizes alone decide which are leaves
        # (all are when the shift leaves nothing to split).
        largest = self.sort_threshold if self._piece_shift(table, head) > 0 and self._shift != 0 else budget
        starts, ends, parents, states = table.start, table.end, table.parent, table.state
        run, end = [], starts[head]
        for piece in table.worklist:
            if (parents[piece] != parent or starts[piece] != end or ends[piece] - end > largest
                    or states[piece] != WAITING or ends[piece] - starts[head] > budget):
                break
            run.append(piece)
            end = ends[piece]
        return run

    def _drain(self, run: list) -> int:
        """Copy a run of sibling leaves into the final array with one copy,
        sort them with one sort (sibling leaves are value-ordered and side by
        side in both arrays, so that equals one sort per leaf), finish them;
        returns the elements copied."""
        table = self._pieces
        parent = table.parent[run[0]]
        begin, stop, offset = table.start[run[0]], table.end[run[-1]], table.start[parent]
        segment = table.final[begin:stop]
        segment[:] = table.child_sets[parent].data[begin - offset:stop - offset]
        segment.sort()
        table.leave_source(run[-1])
        table.mark_sorted(*run)
        return stop - begin

    def _expand(self, piece: int) -> None:
        """Children once the scatter of ``piece`` completed; their values
        stay in its child array."""
        table = self._pieces
        table.leave_source(piece)
        starts = (table.child_sets[piece].starts + table.start[piece]).tolist()
        span, low, count = 1 << self._piece_shift(table, piece), table.lo[piece], len(starts) - 1
        first = table.add(count, piece, table.depth[piece] + 1, start=starts[:-1], end=starts[1:],
                          lo=[low + child_id * span for child_id in range(count)],
                          hi=[low + child_id * span for child_id in range(1, count + 1)],
                          state=[WAITING if stop > start else SORTED for start, stop in zip(starts, starts[1:])])
        table.set_children(piece, first)

    def _refinement_work_time(self) -> float:
        """Cost of performing the entire remaining refinement at once.

        Every element is read back out of its linked blocks (a bucket
        scan), re-scattered into child buckets (a bucket write), and
        finally drained into its sorted segment of the index array (a
        sequential write plus the cache-sized segment sort).  Pricing only
        the scatter — the paper's simplification — makes the greedy policy
        overshoot its interactivity budget by >2x on this phase.
        """
        n = len(self._column)
        return (
            self._cost_model.bucket_scan_time(n)
            + self._cost_model.bucket_write_time(n)
            + self._cost_model.write_time(n)
            + self._cost_model.segment_sort_time(n)
        )

    def _route(self, predicate: Predicate):
        if predicate.high < self._column.min():
            return None
        return self._keyspace.relative_key(predicate.low), self._keyspace.relative_key(predicate.high)

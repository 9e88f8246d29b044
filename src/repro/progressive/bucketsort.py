"""Progressive Bucketsort, equi-height partitions (Section 3.3).

Progressive Bucketsort is structurally identical to Progressive Radixsort
(MSD) but chooses buckets by *value-based* range partitioning instead of
radix clustering: a set of bucket boundaries that split the data into
(approximately) equally sized buckets, which keeps the partitioning balanced
also for skewed data distributions.  Locating the bucket of an element costs
an extra binary search over the boundaries (``log2(b)`` per element), which
is exactly the extra term in the creation-phase cost model.

Creation
    Every query moves ``delta * N`` elements of the base column into the
    equi-height buckets via the shared grouped scatter of
    :meth:`~repro.progressive.blocks.BucketSet.scatter` (bucket ids come
    from a vectorised binary search over the boundaries — value-based
    routing is order-exact for any dtype, so Bucketsort needs no key
    codec); queries scan the buckets overlapping the predicate plus the
    not-yet-bucketed column tail.

Refinement
    The buckets are merged in value order into the final sorted array.  Each
    bucket is first drained into its (pre-computed) segment of the array and
    then sorted progressively with the shared
    :class:`~repro.progressive.sorter.ProgressiveSorter` (whose whole-node
    partitions route through the cracking-kernel decision tree) — the paper's
    "sort the individual buckets into the final sorted list using Progressive
    Quicksort", which avoids a latency spike when a large bucket is merged.

Consolidation
    Identical to the other algorithms: a B+-tree cascade over the sorted
    array.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional

import numpy as np

from repro import kernels
from repro.btree.cascade import DEFAULT_FANOUT
from repro.core.calibration import DEFAULT_BLOCK_SIZE, CostConstants
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult
from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.sorter import DEFAULT_SORT_THRESHOLD, ProgressiveSorter
from repro.storage.column import Column

#: Default number of equi-height buckets (matches the radix variants).
DEFAULT_BUCKET_COUNT = 64

#: Number of elements sampled to estimate the equi-height bucket boundaries.
#: The paper obtains the bounds "in the scan to answer the first query or
#: from existing statistics"; a fixed-size sample keeps the first-query
#: overhead bounded while producing near-equal bucket sizes.
DEFAULT_BOUNDS_SAMPLE = 65536


class _BucketState(enum.Enum):
    WAITING = "waiting"    # data lives in the bucket's block list
    COPYING = "copying"    # draining the block list into the final array
    SORTING = "sorting"    # progressive quicksort of the array segment
    DONE = "done"


class _MergeBucket:
    """Per-bucket refinement state."""

    __slots__ = ("bucket_id", "offset", "size", "state", "copied", "sorter")

    def __init__(self, bucket_id: int, offset: int, size: int) -> None:
        self.bucket_id = bucket_id
        self.offset = int(offset)
        self.size = int(size)
        self.state = _BucketState.WAITING if size else _BucketState.DONE
        self.copied = 0
        self.sorter: Optional[ProgressiveSorter] = None


class ProgressiveBucketsort(ProgressiveIndexBase):
    """Progressive Bucketsort (Equi-Height) index over a single column.

    Parameters
    ----------
    column:
        Column to index.
    budget:
        Budget policy.
    constants:
        Cost-model constants.
    n_buckets:
        Number of equi-height buckets.
    block_size:
        Elements per linked block (paper: ``sb``).
    sort_threshold:
        Segment size below which the per-bucket progressive sort finishes a
        piece outright.
    bounds_sample:
        Number of elements sampled to estimate the bucket boundaries.
    fanout:
        β of the consolidation-phase B+-tree cascade.
    """

    name = "PB"
    description = "Progressive Bucketsort (Equi-Height)"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        n_buckets: int = DEFAULT_BUCKET_COUNT,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
        bounds_sample: int = DEFAULT_BOUNDS_SAMPLE,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants, fanout=fanout)
        if n_buckets < 2:
            raise ValueError(f"n_buckets must be at least 2, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        self.block_size = int(block_size)
        self.sort_threshold = int(sort_threshold)
        self.bounds_sample = int(bounds_sample)
        self._cost_model.block_size = self.block_size
        self._bounds: np.ndarray | None = None
        # Refinement state: one merge bucket per bucket, the unfinished ones
        # queued in value order.
        self._merge_buckets: List[_MergeBucket] | None = None
        self._worklist: Deque[_MergeBucket] = deque()

    # ------------------------------------------------------------------
    @property
    def bounds(self) -> np.ndarray | None:
        """The equi-height bucket boundaries (``n_buckets - 1`` values)."""
        return self._bounds

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        state = super()._family_state()
        if state.get("stage") != "construction" and self._bounds is not None:
            # Consolidated/converged checkpoints keep the bounds too, so a
            # restore does not re-pay the quantile sampling pass.
            state["pb_bounds"] = np.asarray(self._bounds, dtype=np.float64)
        return state

    def _load_family_state(self, state: dict) -> None:
        if "pb_bounds" in state:
            self._bounds = np.asarray(state["pb_bounds"], dtype=np.float64)
        super()._load_family_state(state)

    def _construction_state(self) -> dict:
        state = {"initialized": self._bounds is not None}
        if self._bounds is not None:
            state["bounds"] = np.asarray(self._bounds, dtype=np.float64)
        if self._buckets is not None:
            state["buckets"] = self._buckets.state_dict()
        if self._merge_buckets is not None:
            state["final_array"] = np.array(self._final_array)
            state["merge"] = [
                {
                    "state": merge.state.value,
                    "offset": merge.offset,
                    "size": merge.size,
                    "copied": merge.copied,
                    **(
                        {"sorter": merge.sorter.state_dict()}
                        if merge.sorter is not None and merge.state is _BucketState.SORTING
                        else {}
                    ),
                }
                for merge in self._merge_buckets
            ]
        return state

    def _load_construction_state(self, state: dict) -> None:
        if not state.get("initialized"):
            return
        self._bounds = np.asarray(state["bounds"], dtype=np.float64)
        if "buckets" in state:
            self._buckets = self._bucket_set(state["buckets"])
        if "merge" not in state:
            return
        self._final_array = np.asarray(state["final_array"])
        self._merge_buckets = []
        self._worklist = deque()
        for bucket_id, spec in enumerate(state["merge"]):
            merge = _MergeBucket(bucket_id, int(spec["offset"]), int(spec["size"]))
            merge.state = _BucketState(spec["state"])
            merge.copied = int(spec["copied"])
            if "sorter" in spec:
                merge.sorter = ProgressiveSorter.from_state(self._final_array, spec["sorter"])
                merge.sorter.scratch_allocator = self._scratch_pool()
            self._merge_buckets.append(merge)
            if merge.state is not _BucketState.DONE:
                self._worklist.append(merge)

    # ------------------------------------------------------------------
    # Creation phase
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        n = len(self._column)
        data = self._column.data
        if n > self.bounds_sample:
            step = max(1, n // self.bounds_sample)
            sample = data[::step]
        else:
            sample = data
        # np.quantile's linear rule, off one sort of the sample instead of a
        # selection per bound; any fixed rule does — the bounds only route,
        # and they are persisted with the index.
        ordered = np.sort(np.asarray(sample)).astype(np.float64, copy=False)
        position = np.linspace(0.0, 1.0, self.n_buckets + 1)[1:-1] * (ordered.size - 1)
        lower = position.astype(np.int64)
        upper = np.minimum(lower + 1, ordered.size - 1)
        self._bounds = ordered[lower] + (position - lower) * (ordered[upper] - ordered[lower])
        self._buckets = self._bucket_set()

    def _ingest(self, chunk: np.ndarray) -> None:
        # The binary search over the bounds is the log2(b) term of the cost
        # model; the kernel answers it from a verified grid.
        self._buckets.scatter(chunk, kernels.route_bounds(chunk, self._bounds))

    def _creation_work_time(self) -> float:
        return self._cost_model.equiheight_bucket_write_time(len(self._column), self.n_buckets)

    def _relevant_buckets(self, predicate: Predicate) -> range:
        low_id = int(np.searchsorted(self._bounds, predicate.low, side="right"))
        high_id = int(np.searchsorted(self._bounds, predicate.high, side="right"))
        return range(low_id, high_id + 1)

    # ------------------------------------------------------------------
    # Refinement phase
    # ------------------------------------------------------------------
    def _start_refinement(self) -> None:
        self._final_array = self._scratch_allocate(len(self._column), self._column.dtype)
        sizes = self._buckets.sizes()
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self._merge_buckets = []
        for bucket_id in range(self.n_buckets):
            merge = _MergeBucket(bucket_id, int(offsets[bucket_id]), int(sizes[bucket_id]))
            self._merge_buckets.append(merge)
            if merge.state is not _BucketState.DONE:
                self._worklist.append(merge)

    def _bucket_value_bounds(self, bucket_id: int) -> tuple:
        low = float(self._column.min()) if bucket_id == 0 else float(self._bounds[bucket_id - 1])
        high = (
            float(self._column.max())
            if bucket_id == self.n_buckets - 1
            else float(self._bounds[bucket_id])
        )
        return low, high

    def _refine(self, element_budget: int, predicate: Predicate) -> int:
        processed = 0
        budget = int(element_budget)
        while budget > 0 and self._worklist:
            merge = self._worklist[0]
            if merge.state is _BucketState.WAITING:
                merge.state = _BucketState.COPYING
            if merge.state is _BucketState.COPYING:
                take = min(budget, merge.size - merge.copied)
                if take > 0:
                    copied = self._buckets[merge.bucket_id].drain_into(
                        self._final_array, merge.offset + merge.copied, merge.copied, take
                    )
                    merge.copied += copied
                    processed += copied
                    budget -= copied
                if merge.copied >= merge.size:
                    self._buckets[merge.bucket_id].clear()
                    value_low, value_high = self._bucket_value_bounds(merge.bucket_id)
                    merge.sorter = ProgressiveSorter(
                        self._final_array,
                        start=merge.offset,
                        end=merge.offset + merge.size,
                        value_low=value_low,
                        value_high=value_high,
                        sort_threshold=self.sort_threshold,
                    )
                    merge.sorter.scratch_allocator = self._scratch_pool()
                    merge.state = _BucketState.SORTING
            else:  # SORTING
                if self.budget.pooled and budget >= merge.sorter.remaining_work():
                    done = merge.sorter.finish()
                else:
                    done = merge.sorter.refine(budget)
                processed += done
                budget -= done
                if merge.sorter.is_sorted:
                    merge.state = _BucketState.DONE
                    self._worklist.popleft()
        return processed

    def _query_merge_bucket(self, merge: _MergeBucket, predicate: Predicate) -> QueryResult:
        if merge.size == 0:
            return QueryResult.empty()
        if merge.state in (_BucketState.WAITING, _BucketState.COPYING):
            # The block list still holds the bucket's complete data.
            return self._buckets[merge.bucket_id].scan(predicate.low, predicate.high)
        if merge.state is _BucketState.SORTING:
            return merge.sorter.query(predicate)
        segment = self._final_array[merge.offset : merge.offset + merge.size]
        return QueryResult.from_sorted(segment, predicate.low, predicate.high)

    def _relevant_refinement_size(self, merge: _MergeBucket, predicate: Predicate) -> int:
        if merge.size == 0 or merge.state is _BucketState.DONE:
            return 0
        if merge.state is _BucketState.SORTING:
            return int(merge.sorter.scanned_fraction(predicate) * merge.size)
        return merge.size

    def _refinement_work_time(self) -> float:
        return self._cost_model.swap_time(len(self._column))

    def _refinement_scan(self, predicate: Predicate) -> tuple:
        n = len(self._column)
        relevant = sum(
            self._relevant_refinement_size(self._merge_buckets[i], predicate)
            for i in self._relevant_buckets(predicate)
        )
        return relevant / n, self._cost_model.bucket_scan_time(n)

    def _refinement_answer(self, predicate: Predicate) -> QueryResult:
        result = QueryResult.empty()
        for bucket_id in self._relevant_buckets(predicate):
            result += self._query_merge_bucket(self._merge_buckets[bucket_id], predicate)
        return result

    def _refinement_done(self) -> bool:
        return not self._worklist

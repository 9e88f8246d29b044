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
    The buckets are the roots of a :class:`~repro.progressive.pieces.PieceTable`,
    refined one after another in value order.  PB's split rule: K ways on
    the sample bounds at the root; each bucket is drained into its segment of
    the final array, then refined by PQ's rule inside it — the paper's "sort
    the individual buckets into the final sorted list using Progressive
    Quicksort", which avoids a latency spike when a large bucket is merged.
    A root's keys are the values the scatter routed to it: the bounds for a
    float column, for an integer one the least integers whose float64 is at
    least each bound (the scatter compares as float64), so one exact rule
    routes a predicate through the roots and the pivots below them.

Converged
    The query that finishes sorting converges the index: the final array is
    the sorted leaf every later read searches (shared through
    :class:`~repro.progressive.base.ProgressiveIndexBase`).
"""

from __future__ import annotations

import math

import numpy as np

from repro import kernels
from repro.core.calibration import DEFAULT_BLOCK_SIZE, CostConstants
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate
from repro.errors import IndexStateError
from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.pieces import DEFAULT_SORT_THRESHOLD, PENDING, SORTED, WAITING, PieceTable
from repro.storage.column import Column

#: Default number of equi-height buckets (matches the radix variants).
DEFAULT_BUCKET_COUNT = 64

#: Number of elements sampled to estimate the equi-height bucket boundaries.
#: The paper obtains the bounds "in the scan to answer the first query or
#: from existing statistics"; a fixed-size sample keeps the first-query
#: overhead bounded while producing near-equal bucket sizes.
DEFAULT_BOUNDS_SAMPLE = 65536


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
    """

    name = "PB"
    description = "Progressive Bucketsort (Equi-Height)"
    _pq_rule = True
    _construction_keys = ProgressiveIndexBase._construction_keys | {"bounds"}

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        n_buckets: int = DEFAULT_BUCKET_COUNT,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
        bounds_sample: int = DEFAULT_BOUNDS_SAMPLE,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        if n_buckets < 2:
            raise ValueError(f"n_buckets must be at least 2, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        self.block_size = int(block_size)
        self.sort_threshold = int(sort_threshold)
        self.bounds_sample = int(bounds_sample)
        self._cost_model.block_size = self.block_size
        self._bounds: np.ndarray | None = None

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
            # Converged checkpoints keep the bounds too, so a restore does
            # not re-pay the quantile sampling pass.
            state["pb_bounds"] = np.asarray(self._bounds, dtype=np.float64)
        return state

    def _load_family_state(self, state: dict) -> None:
        if "pb_bounds" in state:
            self._bounds = self._checked_bounds(state["pb_bounds"])
        super()._load_family_state({key: value for key, value in state.items() if key != "pb_bounds"})

    def _checked_bounds(self, values) -> np.ndarray:
        """Saved bucket bounds: ``n_buckets - 1`` of them, in order, no NaN."""
        bounds = np.asarray(values, dtype=np.float64)
        if bounds.shape != (self.n_buckets - 1,):
            raise IndexStateError(f"{bounds.size} bucket bounds for {self.n_buckets} buckets")
        if np.isnan(bounds).any() or (bounds[1:] < bounds[:-1]).any():
            raise IndexStateError("bucket bounds hold a NaN or are out of order")
        return bounds

    def _construction_state(self) -> dict:
        state = super()._construction_state()
        if self._bounds is not None:
            state["bounds"] = np.asarray(self._bounds, dtype=np.float64)
        return state

    def _load_fields(self, state: dict) -> None:
        if state["initialized"]:
            self._bounds = self._checked_bounds(state["bounds"])

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
        low, high, fraction = ordered[lower], ordered[upper], position - lower
        with np.errstate(over="ignore", invalid="ignore"):
            bounds = low + fraction * (high - low)
            # Neighbours more than the largest float64 apart: the weighted
            # mean of the two, which cannot overflow and stays between them.
            spill = ~np.isfinite(high - low)
            bounds[spill] = (1.0 - fraction[spill]) * low[spill] + fraction[spill] * high[spill]
        self._bounds = bounds
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
        """The buckets are the roots, refined one after another in value
        order."""
        self._final_array = self._scratch_allocate(len(self._column), self._column.dtype)
        self._pieces = table = self._piece_table(self._buckets)
        self._add_roots(table, self._buckets.sizes().tolist(), self._bounds)

    def _add_roots(self, table: PieceTable, sizes: list, bounds: np.ndarray) -> None:
        """One root per bucket of ``bounds``, waiting for its turn: keyed by
        the values routed to it, its pivot the middle of its values' bounds
        (the column's at the two ends)."""
        keys = bounds.tolist()
        if self._column.dtype.kind in "iu":
            keys = [_least_integer_at(bound) for bound in keys]
        keys = [-math.inf, *keys, math.inf]
        values = [float(self._column.min()), *bounds.tolist(), float(self._column.max())]
        ends = np.cumsum(sizes).tolist()
        table.add(len(sizes), start=[end - size for end, size in zip(ends, sizes)], end=ends,
                  lo=keys[:-1], hi=keys[1:], vlo=values[:-1], vhi=values[1:],
                  split=[low + (high - low) / 2.0 for low, high in zip(values, values[1:])],
                  state=[WAITING if size else SORTED for size in sizes])

    def _refine(self, element_budget: int, predicate: Predicate) -> int:
        """Copy the head bucket into its segment of the final array, then
        refine it with PQ's rule (completing it at once when a pooled budget
        covers it) before the next bucket starts."""
        table, processed, budget = self._pieces, 0, int(element_budget)
        while budget > 0 and table.has_work():
            head = table.head()
            if table.state[head] < PENDING:
                spent = table.copy(head, budget)
                if table.state[head] == SORTED:
                    table.worklist.popitem(last=False)
            elif self.budget.pooled and budget >= table.remaining():
                spent = table.finish()
            else:
                spent = table.refine(budget, table.sort_step)
            processed += spent
            budget -= spent
        return processed

    def _refinement_work_time(self) -> float:
        return self._cost_model.swap_time(len(self._column))


def _least_integer_at(bound: float) -> int:
    """The least integer whose float64 is ``>= bound``."""
    low, high = math.ceil(bound) - 2 * max(1, int(math.ulp(bound))), math.ceil(bound)
    while high - low > 1:  # float(low) < bound <= float(high)
        middle = (low + high) // 2
        low, high = (low, middle) if float(middle) >= bound else (middle, high)
    return high

"""Progressive construction of the B+-tree cascade (consolidation phase).

Once a progressive index owns a fully sorted array, the consolidation phase
"progressively construct[s] a B+-tree from it" by copying every β-th element
of a level into the level above, a bounded number of elements per query.
Until the cascade is complete, queries are answered with a binary search on
the sorted array (the paper: ``t_lookup = log2(n) * phi``); afterwards the
finished :class:`~repro.btree.cascade.CascadeTree` answers them through the
:class:`~repro.core.query.SortedLeaf` both share.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.btree.cascade import DEFAULT_FANOUT, CascadeTree
from repro.core.query import Predicate, QueryResult, SortedLeaf


class ProgressiveConsolidator:
    """Builds a :class:`CascadeTree` over ``sorted_array`` with bounded work.

    Parameters
    ----------
    sorted_array:
        The fully sorted index array produced by the refinement phase, or a
        :class:`~repro.core.query.SortedLeaf` over it.
    fanout:
        β — sampling factor between consecutive levels.
    """

    def __init__(self, sorted_array: np.ndarray, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be at least 2, got {fanout}")
        self.leaf = SortedLeaf.of(sorted_array)
        self.leaf_values = self.leaf.values
        self.fanout = int(fanout)
        self._level_sizes: List[int] = []
        size = self.leaf_values.size
        while size > self.fanout:
            size = (size + self.fanout - 1) // self.fanout
            self._level_sizes.append(size)
        self.levels: List[np.ndarray] = []
        self._current_level = 0
        self._current_position = 0
        self._copied = 0
        self._tree: CascadeTree | None = None
        if not self._level_sizes:
            self._finish()

    # ------------------------------------------------------------------
    @property
    def total_elements(self) -> int:
        """Total number of elements that will be copied into upper levels."""
        return sum(self._level_sizes)

    @property
    def copied_elements(self) -> int:
        """Number of elements copied so far."""
        return self._copied

    @property
    def remaining_elements(self) -> int:
        """Number of elements still to copy."""
        return self.total_elements - self._copied

    @property
    def done(self) -> bool:
        """Whether the cascade is complete."""
        return self._tree is not None

    @property
    def progress(self) -> float:
        """Fraction of the consolidation work completed, in ``[0, 1]``."""
        total = self.total_elements
        if total == 0:
            return 1.0
        return self._copied / total

    # ------------------------------------------------------------------
    def step(self, element_budget: int) -> int:
        """Copy up to ``element_budget`` elements into the upper levels."""
        if self.done:
            return 0
        copied = 0
        budget = int(element_budget)
        while budget > 0 and self._current_level < len(self._level_sizes):
            target_size = self._level_sizes[self._current_level]
            source = (
                self.leaf_values
                if self._current_level == 0
                else self.levels[self._current_level - 1]
            )
            if self._current_position == 0:
                self.levels.append(np.empty(target_size, dtype=self.leaf_values.dtype))
            target = self.levels[self._current_level]
            take = min(budget, target_size - self._current_position)
            start = self._current_position
            stop = start + take
            target[start:stop] = source[start * self.fanout : stop * self.fanout : self.fanout]
            self._current_position = stop
            self._copied += take
            copied += take
            budget -= take
            if self._current_position >= target_size:
                self._current_level += 1
                self._current_position = 0
        if self._current_level >= len(self._level_sizes):
            self._finish()
        return copied

    def _finish(self) -> None:
        self._tree = CascadeTree(self.leaf, fanout=self.fanout, levels=self.levels)

    def result(self) -> CascadeTree:
        """Return the finished cascade tree (builds it eagerly if needed)."""
        if not self.done:
            self.step(self.remaining_elements)
        return self._tree

    # ------------------------------------------------------------------
    def query(self, predicate: Predicate) -> QueryResult:
        """Answer ``predicate`` against the (partially consolidated) index.

        A binary search on the sorted leaf array with a slice sum, also on
        the query that completes the cascade: the prefix sums the converged
        read uses are not built inside a construction-phase query.
        """
        return QueryResult.from_sorted(self.leaf_values, predicate.low, predicate.high)

    def matching_fraction(self, predicate: Predicate) -> float:
        """Fraction of the leaf array matched by ``predicate`` (the paper's α)."""
        if self.leaf_values.size == 0:
            return 0.0
        lo = int(np.searchsorted(self.leaf_values, predicate.low, side="left"))
        hi = int(np.searchsorted(self.leaf_values, predicate.high, side="right"))
        return max(0, hi - lo) / self.leaf_values.size

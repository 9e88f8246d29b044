"""Implicit B+-tree cascade over a sorted array.

The consolidation phase of every progressive index "progressively constructs
a B+-tree from [the sorted array]" by copying every β-th element of a level
into its parent level.  The resulting read-only structure is an implicit
B+-tree: a stack of ever-smaller sorted arrays where a lookup descends from
the top level, narrowing the candidate window in the level below to about one
fanout of elements per step, and finishes with a binary search inside a small
window of the leaf array.  :class:`CascadeTree` is that structure.

Under NumPy the descent never wins: one C binary search over the whole leaf
costs less than a single Python-level step between two levels.  The levels
are therefore built — consolidation is the paper's phase and the cost model
prices :attr:`CascadeTree.height` — but reads go to the sorted leaf through
the shared :class:`~repro.core.query.SortedLeaf` primitive.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.query import Predicate, QueryResult, SortedLeaf

#: Default fanout β of the cascade.
DEFAULT_FANOUT = 64


class CascadeTree:
    """An implicit B+-tree built from a sorted leaf array.

    Parameters
    ----------
    leaf_values:
        The fully sorted array of indexed values (level 0), or the
        :class:`~repro.core.query.SortedLeaf` already reading it (its prefix
        sums are then shared, not rebuilt).
    fanout:
        β — each upper level samples every β-th element of the level below.
    levels:
        Optional pre-built upper levels, ordered bottom-up
        (``levels[0]`` samples the leaf array, ``levels[i]`` samples
        ``levels[i-1]``).  Used by the progressive consolidator, which builds
        them incrementally; when omitted the levels are built eagerly.
    """

    def __init__(
        self,
        leaf_values: np.ndarray,
        fanout: int = DEFAULT_FANOUT,
        levels: List[np.ndarray] | None = None,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be at least 2, got {fanout}")
        self.fanout = int(fanout)
        self.leaf = SortedLeaf.of(leaf_values)
        self.leaf_values = self.leaf.values
        if levels is None:
            self.levels = self.build_levels(self.leaf_values, self.fanout)
        else:
            self.levels = list(levels)

    # ------------------------------------------------------------------
    @staticmethod
    def build_levels(leaf_values: np.ndarray, fanout: int) -> List[np.ndarray]:
        """Build the upper levels by sampling every ``fanout``-th element."""
        levels: List[np.ndarray] = []
        current = np.asarray(leaf_values)
        while current.size > fanout:
            current = current[::fanout].copy()
            levels.append(current)
        return levels

    @staticmethod
    def copied_elements(n_elements: int, fanout: int) -> int:
        """Total elements copied into upper levels (paper: ``N_copy``)."""
        total = 0
        current = n_elements
        while current > fanout:
            current = (current + fanout - 1) // fanout
            total += current
        return total

    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of levels including the leaf array."""
        return len(self.levels) + 1

    def __len__(self) -> int:
        return int(self.leaf_values.size)

    def memory_footprint(self) -> int:
        """Bytes used by the upper levels and, once built, the prefix sums
        (the leaf array is shared)."""
        return sum(level.nbytes for level in self.levels) + self.leaf.prefix_bytes()

    # ------------------------------------------------------------------
    def range_query(self, low, high) -> QueryResult:
        """Aggregate (sum, count) of leaf values in ``[low, high]``."""
        return QueryResult(*self.leaf.range_one(low, high))

    def point_query(self, value) -> QueryResult:
        """Aggregate of all occurrences of ``value``."""
        return self.range_query(value, value)

    def search_many(self, lows, highs):
        """Vectorized batch of range queries over the sorted leaf array.

        The batch form of :meth:`range_query`, over the same leaf and the
        same prefix sums.  The leaves are sorted by construction for every
        index family: the order-preserving key codecs
        (:mod:`repro.core.keys`) guarantee that even the radix-built arrays
        are totally ordered on float columns.

        Returns ``(sums, counts)`` arrays aligned with the inputs.
        """
        return self.leaf.range_many(lows, highs)

    def query(self, predicate: Predicate) -> QueryResult:
        """Answer a :class:`~repro.core.query.Predicate`."""
        return self.range_query(predicate.low, predicate.high)

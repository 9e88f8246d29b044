"""A read-only sorted array, queried through :class:`~repro.core.query.SortedLeaf`.

The paper's consolidation phase builds a B+-tree over the sorted array so
that lookups can descend it.  Under NumPy the descent never wins: one C
binary search over the whole array costs less than a single Python-level
step between two levels.  So the structure is the sorted array alone, and
every read goes through the same :class:`~repro.core.query.SortedLeaf`
primitive the converged indexes use.
"""

from __future__ import annotations

import numpy as np

from repro.core.query import Predicate, QueryResult, SortedLeaf


class CascadeTree:
    """Range and point queries over one sorted array.

    Parameters
    ----------
    leaf_values:
        The fully sorted array of indexed values, or the
        :class:`~repro.core.query.SortedLeaf` already reading it (its prefix
        sums are then shared, not rebuilt).
    """

    def __init__(self, leaf_values: np.ndarray) -> None:
        self.leaf = SortedLeaf.of(leaf_values)

    def range_query(self, low, high) -> QueryResult:
        """Aggregate (sum, count) of leaf values in ``[low, high]``."""
        return QueryResult(*self.leaf.range_one(low, high))

    def point_query(self, value) -> QueryResult:
        """Aggregate of all occurrences of ``value``."""
        return self.range_query(value, value)

    def search_many(self, lows, highs):
        """Vectorized batch of range queries: ``(sums, counts)`` arrays
        aligned with the inputs, over the same leaf and prefix sums."""
        return self.leaf.range_many(lows, highs)

    def query(self, predicate: Predicate) -> QueryResult:
        """Answer a :class:`~repro.core.query.Predicate`."""
        return self.range_query(predicate.low, predicate.high)

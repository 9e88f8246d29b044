"""Tests for the sorted-array read structure."""

import numpy as np

from repro.btree import CascadeTree
from repro.core.query import Predicate


class TestCascadeTree:
    def test_small_array_has_no_upper_levels(self):
        tree = CascadeTree(np.arange(10))
        assert not hasattr(tree, "levels") and not hasattr(tree, "height")
        assert tree.range_query(2, 4).count == 3
        assert tree.query(Predicate(2, 4)).count == 3

    def test_range_query_matches_reference(self):
        rng = np.random.default_rng(1)
        values = np.sort(rng.integers(0, 100_000, size=50_000))
        tree = CascadeTree(values)
        for _ in range(50):
            low = int(rng.integers(0, 90_000))
            high = low + int(rng.integers(0, 10_000))
            result = tree.range_query(low, high)
            mask = (values >= low) & (values <= high)
            assert result.count == mask.sum()
            assert result.value_sum == values[mask].sum()

    def test_point_query_with_duplicates(self):
        values = np.sort(np.array([7] * 500 + list(range(2_000))))
        tree = CascadeTree(values)
        assert tree.point_query(7).count == 501

    def test_query_outside_domain(self):
        tree = CascadeTree(np.arange(1_000))
        assert tree.range_query(5_000, 6_000).count == 0
        assert tree.range_query(600, 100).count == 0

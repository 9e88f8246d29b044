"""Tests for PQ's rule on the piece table and the progressive sorter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import Predicate
from repro.progressive.pieces import PENDING, SORTED, SPLIT, PieceTable
from repro.progressive.sorter import ProgressiveSorter

from tests.conftest import brute_force


def answer(sorter, predicate):
    """The sorter's table answering ``predicate`` (keys are values)."""
    return sorter.pieces.answer(predicate.low, predicate.high, (predicate.low, predicate.high))


def table_over(values, pivot=50):
    """A piece table whose one root covers ``values`` (bounds 0..100)."""
    table = PieceTable(np.array(values, dtype=np.int64))
    table.add_pq(0, len(values), -math.inf, math.inf, 0.0, 100.0, pivot=pivot)
    return table


class TestPivotNode:
    """A piece under PQ's rule (the pivot tree's nodes are table rows)."""

    def test_trivial_ranges_are_sorted(self):
        table = PieceTable(np.arange(10))
        states = [table.state[table.add_pq(0, end, -math.inf, math.inf, 0.0, 10.0)] for end in (0, 1, 2)]
        assert states == [SORTED, SORTED, PENDING]

    def test_pivot_is_midpoint(self):
        table = PieceTable(np.arange(10))
        assert table.split[table.add_pq(0, 10, -math.inf, math.inf, 0.0, 100.0)] == pytest.approx(50)

    def test_children_listing(self):
        table = table_over([70, 10, 90, 20])
        assert table.fanout[0] == 0
        table.split_two(0, 2)
        assert table.fanout[0] == 2 and [table.parent[c] for c in range(table.first[0], 3)] == [0, 0]
        lonely = table_over([70, 80, 90, 95])
        lonely.split_two(0, 0)  # nothing below the pivot: one child, narrowed bounds
        assert lonely.fanout[0] == 1 and (lonely.vlo[1], lonely.vhi[1]) == (50, 100.0)


class TestPivotTree:
    def test_mark_sorted_propagates_and_prunes(self):
        table = table_over([10, 20, 30, 40, 45, 60, 70, 80, 90, 95])
        table.split_two(0, 5)
        left, right = table.first[0], table.first[0] + 1
        table.mark_sorted(left)
        assert table.state[0] == SPLIT
        table.mark_sorted(right)
        assert table.state[0] == SORTED
        assert table.leaves(0, 100) == [0]  # the children are pruned from the walk

    def test_lookup_routes_through_pivot(self):
        table = table_over([10, 20, 30, 40, 45, 60, 70, 80, 90, 95])
        table.split_two(0, 5)
        left, right = table.first[0], table.first[0] + 1
        assert table.leaves(0, 10) == [left]
        assert table.leaves(60, 70) == [right]
        assert table.leaves(40, 60) == [left, right]

    def test_height_tracking(self):
        table = table_over(list(range(100)))
        table.add_pq(0, 50, -math.inf, 50.0, 0.0, 50.0, parent=0, depth=1)
        assert table.height == 2
        assert len(table.start) == 2


class TestProgressiveSorter:
    def make_sorter(self, data, threshold=8):
        array = np.array(data, dtype=np.int64)
        return array, ProgressiveSorter(array, sort_threshold=threshold)

    def test_small_range_sorted_in_one_call(self):
        array, sorter = self.make_sorter([5, 3, 8, 1], threshold=8)
        processed = sorter.refine(100)
        assert processed == 4
        assert sorter.is_sorted
        assert array.tolist() == [1, 3, 5, 8]

    def test_refine_respects_budget(self):
        rng = np.random.default_rng(0)
        array = rng.integers(0, 10_000, size=5_000)
        sorter = ProgressiveSorter(array, sort_threshold=64)
        processed = sorter.refine(500)
        assert processed <= 500 + 64  # at most one threshold-sized overshoot
        assert not sorter.is_sorted

    def test_eventual_convergence(self):
        rng = np.random.default_rng(1)
        array = rng.integers(0, 1_000, size=3_000)
        reference = np.sort(array.copy())
        sorter = ProgressiveSorter(array, sort_threshold=32)
        iterations = 0
        while not sorter.is_sorted:
            sorter.refine(200)
            iterations += 1
            assert iterations < 10_000, "sorter failed to converge"
        assert array.tolist() == reference.tolist()

    def test_queries_exact_during_refinement(self):
        rng = np.random.default_rng(2)
        original = rng.integers(0, 5_000, size=4_000)
        array = original.copy()
        sorter = ProgressiveSorter(array, sort_threshold=64)
        for _ in range(30):
            sorter.refine(150)
            low = int(rng.integers(0, 4_500))
            predicate = Predicate(low, low + 500)
            result = answer(sorter, predicate)
            expected = brute_force(original, predicate)
            assert result.count == expected.count
            assert result.value_sum == expected.value_sum

    def test_query_on_sorted_leaf_uses_binary_search(self):
        array, sorter = self.make_sorter(list(range(100)), threshold=128)
        sorter.refine(1_000)
        result = answer(sorter, Predicate(10, 19))
        assert result.count == 10
        assert result.value_sum == sum(range(10, 20))

    def test_all_equal_values_converge(self):
        array = np.full(2_000, 7, dtype=np.int64)
        sorter = ProgressiveSorter(array, sort_threshold=32)
        iterations = 0
        while not sorter.is_sorted:
            sorter.refine(400)
            iterations += 1
            assert iterations < 1_000
        assert answer(sorter, Predicate(7, 7)).count == 2_000

    def test_from_partitioned_continues_creation_state(self):
        rng = np.random.default_rng(3)
        original = rng.integers(0, 1_000, size=2_000)
        pivot = 500
        lows = original[original < pivot]
        highs = original[original >= pivot]
        array = np.concatenate([lows, highs])
        sorter = ProgressiveSorter.from_partitioned(
            array,
            boundary=lows.size,
            pivot=pivot,
            value_low=float(original.min()),
            value_high=float(original.max()),
            sort_threshold=64,
        )
        # Queries entirely below the pivot only touch the low side.
        assert answer(sorter, Predicate(0, 499)).count == lows.size
        while not sorter.is_sorted:
            sorter.refine(500)
        assert np.all(array[:-1] <= array[1:])

    def test_prioritize_moves_relevant_work_first(self):
        rng = np.random.default_rng(4)
        array = rng.integers(0, 10_000, size=8_000)
        sorter = ProgressiveSorter(array, sort_threshold=64)
        sorter.refine(8_000)  # finish the root partition, creating children
        predicate = Predicate(0, 100)
        sorter.pieces.prioritize(predicate.low, predicate.high)
        front = sorter.pieces.head()
        assert sorter.pieces.vlo[front] <= predicate.high and sorter.pieces.vhi[front] >= predicate.low

    def test_remaining_work_decreases(self):
        rng = np.random.default_rng(5)
        array = rng.integers(0, 10_000, size=4_000)
        sorter = ProgressiveSorter(array, sort_threshold=64)
        before = sorter.pieces.remaining()
        sorter.refine(1_000)
        assert sorter.pieces.remaining() <= before

    def test_scanned_fraction_shrinks_as_sorting_progresses(self):
        rng = np.random.default_rng(6)
        array = rng.integers(0, 10_000, size=6_000)
        sorter = ProgressiveSorter(array, sort_threshold=64)
        predicate = Predicate(100, 1_100)
        keys = (predicate.low, predicate.high)
        initial = sorter.pieces.touched(predicate.low, predicate.high, keys, True)
        while not sorter.is_sorted:
            sorter.refine(2_000)
        final = sorter.pieces.touched(predicate.low, predicate.high, keys, True)
        assert final <= initial

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            ProgressiveSorter(np.arange(10), start=5, end=2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=-1_000, max_value=1_000), min_size=2, max_size=400),
        st.integers(min_value=1, max_value=200),
    )
    def test_property_sorting_is_a_permutation(self, values, budget):
        array = np.array(values, dtype=np.int64)
        expected = np.sort(array.copy())
        sorter = ProgressiveSorter(array, sort_threshold=16)
        iterations = 0
        while not sorter.is_sorted:
            sorter.refine(budget)
            iterations += 1
            assert iterations < 10_000
        assert array.tolist() == expected.tolist()

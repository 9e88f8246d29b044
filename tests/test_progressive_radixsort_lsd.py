"""Tests for Progressive Radixsort (LSD)."""

import numpy as np
import pytest

from repro.core.policy import FixedDelta, TimeAdaptive
from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.progressive.radixsort_lsd import ProgressiveRadixsortLSD
from repro.storage.column import Column

from tests.conftest import (
    assert_matches_brute_force,
    brute_force,
    random_point_predicates,
    random_range_predicates,
)


class TestRadixsortLSDLifecycle:
    def test_rejects_non_power_of_two_buckets(self, uniform_column):
        with pytest.raises(ValueError):
            ProgressiveRadixsortLSD(uniform_column, n_buckets=48)

    def test_total_passes_formula(self, rng):
        # Domain of 2^16 values with 64 buckets needs ceil(16 / 6) = 3 passes,
        # matching the example in Section 3.4 of the paper.
        data = rng.integers(0, 2 ** 16, size=10_000)
        data[0], data[1] = 0, 2 ** 16 - 1  # pin the domain
        index = ProgressiveRadixsortLSD(Column(data), budget=FixedDelta(1.0), n_buckets=64)
        index.query(Predicate(0, 10))
        assert index.total_passes == 3

    def test_phase_progression(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortLSD(uniform_column, budget=FixedDelta(0.5))
        seen = []
        for predicate in random_range_predicates(uniform_data, 80, rng):
            index.query(predicate)
            if not seen or seen[-1] is not index.phase:
                seen.append(index.phase)
        orders = [phase.order for phase in seen]
        assert orders == sorted(orders)
        assert index.converged

    def test_final_array_sorted(self, uniform_column, uniform_data):
        index = ProgressiveRadixsortLSD(uniform_column, budget=FixedDelta(1.0))
        iterations = 0
        while not index.converged and iterations < 200:
            index.query(Predicate(0, 100))
            iterations += 1
        assert index.converged
        assert np.array_equal(index._leaf.values, np.sort(uniform_data))


class TestRadixsortLSDCorrectness:
    def test_exact_range_answers(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortLSD(uniform_column, budget=FixedDelta(0.25))
        predicates = random_range_predicates(uniform_data, 80, rng)
        assert_matches_brute_force(index, uniform_data, predicates)
        assert index.converged

    def test_exact_point_answers_during_all_phases(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortLSD(uniform_column, budget=FixedDelta(0.1))
        predicates = random_point_predicates(uniform_data, 150, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_mixed_point_and_range_queries(self, skewed_column, skewed_data, rng):
        index = ProgressiveRadixsortLSD(skewed_column, budget=FixedDelta(0.3))
        for query_number in range(80):
            if query_number % 2 == 0:
                predicate = random_point_predicates(skewed_data, 1, rng)[0]
            else:
                predicate = random_range_predicates(skewed_data, 1, rng)[0]
            result = index.query(predicate)
            expected = brute_force(skewed_data, predicate)
            assert result.count == expected.count
            assert result.value_sum == expected.value_sum

    def test_adaptive_budget(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortLSD(
            uniform_column, budget=TimeAdaptive(scan_fraction=0.5)
        )
        predicates = random_range_predicates(uniform_data, 250, rng)
        assert_matches_brute_force(index, uniform_data, predicates)
        assert index.converged

    def test_point_query_for_absent_value(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortLSD(uniform_column, budget=FixedDelta(0.2))
        absent = int(uniform_data.max()) + 1_000
        for _ in range(20):
            assert index.query(Predicate(absent, absent)).count == 0
            # keep making progress with range queries as well
            index.query(random_range_predicates(uniform_data, 1, rng)[0])

    def test_small_domain_single_pass(self, rng):
        data = rng.integers(0, 60, size=5_000)
        index = ProgressiveRadixsortLSD(Column(data), budget=FixedDelta(0.5), n_buckets=64)
        index.query(Predicate(0, 10))
        assert index.total_passes == 1
        for _ in range(30):
            result = index.query(Predicate(10, 50))
            mask = (data >= 10) & (data <= 50)
            assert result.count == mask.sum()
        assert index.converged

    def test_all_equal_values(self):
        data = np.full(3_000, 9, dtype=np.int64)
        index = ProgressiveRadixsortLSD(Column(data), budget=FixedDelta(0.5))
        for _ in range(20):
            assert index.query(Predicate(9, 9)).count == 3_000
        assert index.converged

"""Tests for Progressive Radixsort (MSD)."""

import numpy as np
import pytest

from repro.core.policy import FixedDelta, TimeAdaptive
from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.progressive.radixsort_msd import ProgressiveRadixsortMSD
from repro.storage.column import Column

from tests.conftest import assert_matches_brute_force, random_range_predicates


class TestRadixsortMSDLifecycle:
    def test_rejects_non_power_of_two_buckets(self, uniform_column):
        with pytest.raises(ValueError):
            ProgressiveRadixsortMSD(uniform_column, n_buckets=50)

    def test_creation_scatters_by_most_significant_bits(self, rng):
        # A domain of exactly 64 * 16 values with 64 buckets gives a shift of
        # 4 bits: value 0 lands in bucket 0, value 1023 in bucket 63.
        data = rng.permutation(1024).astype(np.int64)
        index = ProgressiveRadixsortMSD(Column(data), budget=FixedDelta(1.0), n_buckets=64)
        index.query(Predicate(0, 10))
        ids = index._bucket_id(np.array([0, 16, 1023]))
        assert ids.tolist() == [0, 1, 63]

    def test_phase_progression(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortMSD(uniform_column, budget=FixedDelta(0.5))
        seen = []
        for predicate in random_range_predicates(uniform_data, 60, rng):
            index.query(predicate)
            if not seen or seen[-1] is not index.phase:
                seen.append(index.phase)
        orders = [phase.order for phase in seen]
        assert orders == sorted(orders)
        assert index.converged

    def test_memory_footprint_grows_then_holds_buckets(self, uniform_column):
        index = ProgressiveRadixsortMSD(uniform_column, budget=FixedDelta(0.25))
        index.query(Predicate(0, 100))
        assert index.memory_footprint() > 0

    def test_final_array_is_sorted_after_refinement(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortMSD(uniform_column, budget=FixedDelta(0.5))
        iterations = 0
        while not index.converged and iterations < 500:
            index.query(Predicate(0, 1_000))
            iterations += 1
        assert index.converged
        assert np.all(index._final_array[:-1] <= index._final_array[1:])
        assert np.array_equal(np.sort(uniform_data), index._final_array)


class TestRadixsortMSDCorrectness:
    def test_exact_answers_uniform(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortMSD(uniform_column, budget=FixedDelta(0.2))
        predicates = random_range_predicates(uniform_data, 80, rng)
        assert_matches_brute_force(index, uniform_data, predicates)
        assert index.converged

    def test_exact_answers_skewed(self, skewed_column, skewed_data, rng):
        index = ProgressiveRadixsortMSD(skewed_column, budget=FixedDelta(0.3))
        predicates = random_range_predicates(skewed_data, 60, rng, selectivity=0.05)
        assert_matches_brute_force(index, skewed_data, predicates)

    def test_adaptive_budget(self, uniform_column, uniform_data, rng):
        index = ProgressiveRadixsortMSD(
            uniform_column, budget=TimeAdaptive(scan_fraction=0.5)
        )
        predicates = random_range_predicates(uniform_data, 250, rng)
        assert_matches_brute_force(index, uniform_data, predicates)
        assert index.converged

    def test_small_domain_column(self, rng):
        # Domain smaller than the bucket count exercises the shift == 0 path.
        data = rng.integers(0, 10, size=5_000)
        index = ProgressiveRadixsortMSD(Column(data), budget=FixedDelta(0.5))
        for _ in range(30):
            result = index.query(Predicate(3, 7))
            mask = (data >= 3) & (data <= 7)
            assert result.count == mask.sum()
        assert index.converged

    def test_all_equal_values(self):
        data = np.full(5_000, 42, dtype=np.int64)
        index = ProgressiveRadixsortMSD(Column(data), budget=FixedDelta(0.5))
        for _ in range(30):
            assert index.query(Predicate(42, 42)).count == 5_000
            assert index.query(Predicate(0, 10)).count == 0
        assert index.converged

    def test_negative_values(self, rng):
        data = rng.integers(-50_000, 50_000, size=10_000)
        index = ProgressiveRadixsortMSD(Column(data), budget=FixedDelta(0.4))
        for _ in range(40):
            low = int(rng.integers(-50_000, 40_000))
            predicate = Predicate(low, low + 10_000)
            result = index.query(predicate)
            mask = (data >= predicate.low) & (data <= predicate.high)
            assert result.count == mask.sum()
        assert index.converged

    def test_stats_report_prediction(self, uniform_column):
        index = ProgressiveRadixsortMSD(uniform_column, budget=FixedDelta(0.25))
        index.query(Predicate(0, 5_000))
        assert index.last_stats.predicted_cost is not None
        assert index.last_stats.elements_indexed > 0

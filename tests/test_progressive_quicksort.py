"""Tests for Progressive Quicksort."""

import numpy as np
import pytest

from repro.core.policy import FixedDelta, TimeAdaptive
from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.progressive.quicksort import ProgressiveQuicksort
from repro.storage.column import Column

from tests.conftest import assert_matches_brute_force, brute_force, random_range_predicates


class TestProgressiveQuicksortLifecycle:
    def test_starts_inactive(self, uniform_column):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.25))
        assert index.phase is IndexPhase.INACTIVE
        assert not index.converged
        assert index.memory_footprint() == 0

    def test_first_query_enters_creation(self, uniform_column, uniform_data):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.25))
        index.query(Predicate(0, 1_000))
        assert index.phase in (IndexPhase.CREATION, IndexPhase.REFINEMENT)
        assert index.pivot == pytest.approx(
            (float(uniform_data.min()) + float(uniform_data.max())) / 2
        )
        assert index.memory_footprint() >= uniform_data.nbytes

    def test_phases_progress_in_order(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.5))
        seen = []
        for predicate in random_range_predicates(uniform_data, 60, rng):
            index.query(predicate)
            if not seen or seen[-1] is not index.phase:
                seen.append(index.phase)
        orders = [phase.order for phase in seen]
        assert orders == sorted(orders), f"phases regressed: {seen}"
        assert index.phase is IndexPhase.CONVERGED

    def test_creation_takes_about_one_over_delta_queries(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.25))
        predicates = random_range_predicates(uniform_data, 10, rng)
        creation_queries = 0
        for predicate in predicates:
            if index.phase in (IndexPhase.INACTIVE, IndexPhase.CREATION):
                creation_queries += 1
            index.query(predicate)
            if index.phase.order > IndexPhase.CREATION.order:
                break
        assert creation_queries == pytest.approx(4, abs=1)

    def test_zero_delta_never_converges(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.0))
        for predicate in random_range_predicates(uniform_data, 20, rng):
            index.query(predicate)
        assert index.phase is IndexPhase.CREATION
        assert not index.converged

    def test_delta_one_finishes_creation_first_query(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(1.0))
        index.query(Predicate(0, 100))
        assert index.phase.order >= IndexPhase.REFINEMENT.order


class TestProgressiveQuicksortCorrectness:
    def test_exact_answers_throughout_convergence(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.2))
        predicates = random_range_predicates(uniform_data, 80, rng)
        assert_matches_brute_force(index, uniform_data, predicates)
        assert index.converged

    def test_exact_answers_on_skewed_data(self, skewed_column, skewed_data, rng):
        index = ProgressiveQuicksort(skewed_column, budget=FixedDelta(0.3))
        predicates = random_range_predicates(skewed_data, 60, rng, selectivity=0.05)
        assert_matches_brute_force(index, skewed_data, predicates)

    def test_point_queries(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.25))
        values = uniform_data[rng.integers(0, uniform_data.size, size=50)]
        for value in values:
            predicate = Predicate(int(value), int(value))
            result = index.query(predicate)
            expected = brute_force(uniform_data, predicate)
            assert result.count == expected.count

    def test_queries_outside_domain(self, uniform_column, uniform_data):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.25))
        domain_max = int(uniform_data.max())
        for _ in range(10):
            assert index.query(Predicate(domain_max + 10, domain_max + 20)).count == 0
            assert index.query(Predicate(-100, -1)).count == 0

    def test_whole_domain_query(self, uniform_column, uniform_data):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.5))
        predicate = Predicate(int(uniform_data.min()), int(uniform_data.max()))
        for _ in range(5):
            result = index.query(predicate)
            assert result.count == uniform_data.size
            assert result.value_sum == uniform_data.sum()

    def test_converged_answers_from_cascade(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(1.0))
        for predicate in random_range_predicates(uniform_data, 30, rng):
            index.query(predicate)
        assert index.converged
        predicates = random_range_predicates(uniform_data, 20, rng)
        assert_matches_brute_force(index, uniform_data, predicates)


class TestProgressiveQuicksortBudgets:
    def test_adaptive_budget_converges(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(
            uniform_column, budget=TimeAdaptive(scan_fraction=0.5)
        )
        predicates = random_range_predicates(uniform_data, 300, rng)
        assert_matches_brute_force(index, uniform_data, predicates)
        assert index.converged

    def test_stats_track_delta_and_phase(self, uniform_column):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.25))
        index.query(Predicate(0, 100))
        stats = index.last_stats
        assert stats.query_number == 1
        assert stats.delta == pytest.approx(0.25)
        assert stats.predicted_cost is not None and stats.predicted_cost > 0
        assert stats.elements_indexed > 0

    def test_converged_stats_have_no_delta(self, uniform_column, uniform_data, rng):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(1.0))
        for predicate in random_range_predicates(uniform_data, 40, rng):
            index.query(predicate)
        assert index.converged
        index.query(Predicate(0, 10))
        assert index.last_stats.delta == 0.0
        assert index.last_stats.elements_indexed == 0

    def test_queries_executed_counter(self, uniform_column):
        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.25))
        for _ in range(5):
            index.query(Predicate(0, 10))
        assert index.queries_executed == 5

    def test_rejects_non_predicate(self, uniform_column):
        from repro.errors import IndexStateError

        index = ProgressiveQuicksort(uniform_column, budget=FixedDelta(0.25))
        with pytest.raises(IndexStateError):
            index.query((0, 10))

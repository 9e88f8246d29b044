"""Tests for the future-work extensions (Section 6 of the paper)."""

import numpy as np
import pytest

from repro import obs
from repro.core.phase import IndexPhase
from repro.core.policy import MINIMUM_ELEMENTS, CostModelGreedy, FixedDelta, TimeAdaptive
from repro.core.query import Predicate
from repro.extensions import ProgressiveColumnImprints, ProgressiveHashIndex
from repro.storage.column import Column

from tests.conftest import (
    assert_matches_brute_force,
    random_point_predicates,
    random_range_predicates,
)


class TestProgressiveHashIndex:
    def test_point_queries_exact_during_build(self, uniform_column, uniform_data, rng):
        index = ProgressiveHashIndex(uniform_column, budget=FixedDelta(0.2))
        predicates = random_point_predicates(uniform_data, 60, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_range_queries_fall_back_to_scans(self, uniform_column, uniform_data, rng):
        index = ProgressiveHashIndex(uniform_column, budget=FixedDelta(0.2))
        predicates = random_range_predicates(uniform_data, 30, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_convergence(self, uniform_column, uniform_data, rng):
        index = ProgressiveHashIndex(uniform_column, budget=FixedDelta(0.25))
        for predicate in random_point_predicates(uniform_data, 10, rng):
            index.query(predicate)
        assert index.phase is IndexPhase.CONVERGED
        assert index.elements_inserted == uniform_data.size

    def test_zero_delta_never_converges(self, uniform_column, uniform_data, rng):
        index = ProgressiveHashIndex(uniform_column, budget=FixedDelta(0.0))
        for predicate in random_point_predicates(uniform_data, 5, rng):
            index.query(predicate)
        assert not index.converged
        assert index.elements_inserted == 0

    def test_duplicates_are_aggregated(self):
        data = np.array([7, 7, 7, 3, 3, 9], dtype=np.int64)
        index = ProgressiveHashIndex(Column(data), budget=FixedDelta(1.0))
        result = index.query(Predicate(7, 7))
        assert result.count == 3 and result.value_sum == 21
        assert index.converged

    def test_memory_footprint_grows_with_distinct_values(self, uniform_column):
        index = ProgressiveHashIndex(uniform_column, budget=FixedDelta(0.5))
        index.query(Predicate(0, 0))
        first = index.memory_footprint()
        index.query(Predicate(0, 0))
        assert index.memory_footprint() >= first > 0


class TestProgressiveColumnImprints:
    def test_range_queries_exact_during_build(self, uniform_column, uniform_data, rng):
        index = ProgressiveColumnImprints(uniform_column, budget=FixedDelta(0.2))
        predicates = random_range_predicates(uniform_data, 40, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_point_queries_exact(self, uniform_column, uniform_data, rng):
        index = ProgressiveColumnImprints(uniform_column, budget=FixedDelta(0.3))
        predicates = random_point_predicates(uniform_data, 40, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_convergence_and_block_count(self, uniform_column, uniform_data, rng):
        index = ProgressiveColumnImprints(
            uniform_column, budget=FixedDelta(0.5), block_elements=128
        )
        for predicate in random_range_predicates(uniform_data, 10, rng):
            index.query(predicate)
        assert index.converged
        assert index.blocks_imprinted == int(np.ceil(uniform_data.size / 128))

    def test_imprints_prune_narrow_queries_on_clustered_data(self):
        # Clustered (sorted) data: a narrow range touches only a few blocks.
        data = np.arange(50_000, dtype=np.int64)
        index = ProgressiveColumnImprints(Column(data), budget=FixedDelta(1.0))
        index.query(Predicate(0, 10))  # builds all imprints
        assert index.converged
        narrow = Predicate(1_000, 1_500)
        assert index.pruning_fraction(narrow) > 0.9
        result = index.query(narrow)
        assert result.count == 501

    def test_all_equal_column(self):
        data = np.full(1_000, 4, dtype=np.int64)
        index = ProgressiveColumnImprints(Column(data), budget=FixedDelta(1.0))
        for _ in range(3):
            assert index.query(Predicate(4, 4)).count == 1_000
            assert index.query(Predicate(5, 9)).count == 0
        assert index.converged

    def test_invalid_parameters(self, uniform_column):
        with pytest.raises(ValueError):
            ProgressiveColumnImprints(uniform_column, n_bins=1)
        with pytest.raises(ValueError):
            ProgressiveColumnImprints(uniform_column, block_elements=0)

    def test_memory_footprint(self, uniform_column):
        index = ProgressiveColumnImprints(uniform_column, budget=FixedDelta(1.0))
        assert index.memory_footprint() == 0
        index.query(Predicate(0, 10))
        assert index.memory_footprint() > 0


# ----------------------------------------------------------------------
# Both extensions decide through the budget controller
# ----------------------------------------------------------------------
EXTENSIONS = [ProgressiveHashIndex, ProgressiveColumnImprints]


@pytest.mark.parametrize("family", EXTENSIONS, ids=lambda family: family.name)
def test_extension_decisions_are_recorded_and_traced(family, uniform_data, rng):
    index = family(Column(uniform_data), budget=FixedDelta(0.2))
    obs.configure(tracing=True)
    tracer = obs.tracer()
    tracer.clear()
    try:
        index.query(Predicate(int(uniform_data[0]), int(uniform_data[0])))
        spans = tracer.drain()
    finally:
        obs.configure(tracing=False)
    stats = index.last_stats
    assert stats.delta == 0.2
    breakdown = stats.predicted_breakdown
    assert breakdown is not None and breakdown.indexing > 0.0
    assert stats.predicted_cost == breakdown.total
    decisions = [d for span in spans for d in span["attrs"].get("decisions", ())]
    assert [d["delta"] for d in decisions] == [0.2]
    assert decisions[0]["breakdown"]["indexing"] == breakdown.indexing


@pytest.mark.parametrize("family", EXTENSIONS, ids=lambda family: family.name)
@pytest.mark.parametrize("policy", ["time_adaptive", "greedy"])
def test_extensions_stay_exact_under_adaptive_policies(family, policy, rng):
    """Under ``budget_fraction`` the extensions get the work floor every
    family gets (``MINIMUM_ELEMENTS`` a query), so they converge in a few
    queries; under the greedy policy they follow the cost model as before.
    Every answer matches the scan oracle."""
    data = rng.integers(0, 1_000_000, 100_000)
    budget = TimeAdaptive(scan_fraction=0.2) if policy == "time_adaptive" else (
        CostModelGreedy(scan_fraction=0.2)
    )
    index = family(Column(data), budget=budget)
    predicates = [
        predicate
        for pair in zip(random_point_predicates(data, 100, rng),
                        random_range_predicates(data, 100, rng))
        for predicate in pair
    ]
    assert_matches_brute_force(index, data, predicates)
    if policy == "time_adaptive":
        entered = {phase: query for query, phase in index.lifecycle.transitions}
        assert entered[IndexPhase.CONVERGED] <= -(-data.size // MINIMUM_ELEMENTS)

"""Tests for the full-scan and full-index baselines."""

import numpy as np
import pytest

from repro.baselines import FullIndex, FullScan
from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.errors import IndexStateError
from repro.persist.upgrade import upgrade

from tests.conftest import assert_matches_brute_force, random_range_predicates


class TestFullScan:
    def test_exact_answers(self, uniform_column, uniform_data, rng):
        index = FullScan(uniform_column)
        predicates = random_range_predicates(uniform_data, 40, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_never_builds_an_index(self, uniform_column, uniform_data, rng):
        index = FullScan(uniform_column)
        for predicate in random_range_predicates(uniform_data, 10, rng):
            index.query(predicate)
        assert index.phase is IndexPhase.INACTIVE
        assert not index.converged
        assert index.memory_footprint() == 0

    def test_predicted_cost_is_scan_cost(self, uniform_column, uniform_data):
        index = FullScan(uniform_column)
        index.query(Predicate(0, 100))
        expected = index.cost_model.scan_time(uniform_data.size)
        assert index.last_stats.predicted_cost == pytest.approx(expected)


class TestFullIndex:
    def test_exact_answers(self, uniform_column, uniform_data, rng):
        index = FullIndex(uniform_column)
        predicates = random_range_predicates(uniform_data, 40, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_first_query_builds_the_tree(self, uniform_column, uniform_data):
        index = FullIndex(uniform_column)
        assert index.phase is IndexPhase.INACTIVE
        index.query(Predicate(0, 100))
        assert index.phase is IndexPhase.CONVERGED
        assert index.converged
        assert np.array_equal(index._leaf.values, np.sort(uniform_data))
        assert index.last_stats.elements_indexed == uniform_data.size

    def test_tree_reused_for_later_queries(self, uniform_column):
        index = FullIndex(uniform_column)
        index.query(Predicate(0, 100))
        leaf = index._leaf
        index.query(Predicate(200, 300))
        assert index._leaf is leaf

    def test_point_queries_with_duplicates(self, skewed_column, skewed_data, rng):
        index = FullIndex(skewed_column)
        for value in skewed_data[rng.integers(0, skewed_data.size, size=30)]:
            result = index.query(Predicate(int(value), int(value)))
            assert result.count == int((skewed_data == value).sum())

    def test_memory_footprint_after_build(self, uniform_column, uniform_data):
        index = FullIndex(uniform_column)
        index.query(Predicate(0, 100))
        assert index.memory_footprint() >= uniform_data.nbytes * 0.9

    def test_a_checkpoint_with_a_btree_fanout_still_loads(self, uniform_column, uniform_data):
        """Format-1 checkpoints carry the fanout of a B+-tree FI no longer
        builds: the upgrade drops it; the loader refuses it."""
        index = FullIndex(uniform_column)
        index.query(Predicate(0, 100))
        state = index.state_dict()
        assert "fanout" not in state["family"]
        state["format"], state["family"]["fanout"] = 1, 64
        with pytest.raises(IndexStateError):
            FullIndex(uniform_column).load_state({**state, "format": 2})
        restored = FullIndex(uniform_column)
        restored.load_state(upgrade(state, restored))
        assert restored.converged
        assert restored.query(Predicate(100, 20_000)).count == int(
            ((uniform_data >= 100) & (uniform_data <= 20_000)).sum())

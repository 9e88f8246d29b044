"""Tests for the adaptive-indexing (cracking) comparators."""

import numpy as np
import pytest

from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.cracking import (
    AdaptiveAdaptiveIndexing,
    CoarseGranularIndex,
    ProgressiveStochasticCracking,
    StandardCracking,
    StochasticCracking,
)
from repro.engine.session import IndexingSession
from repro.storage.column import Column
from repro.storage.table import Table

from tests.conftest import (
    assert_matches_brute_force,
    random_point_predicates,
    random_range_predicates,
)

ALL_CRACKING = [
    StandardCracking,
    StochasticCracking,
    ProgressiveStochasticCracking,
    CoarseGranularIndex,
    AdaptiveAdaptiveIndexing,
]


@pytest.mark.parametrize("index_class", ALL_CRACKING)
class TestCrackingCorrectness:
    def test_range_queries_uniform(self, index_class, uniform_column, uniform_data, rng):
        index = index_class(uniform_column)
        predicates = random_range_predicates(uniform_data, 60, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_range_queries_skewed(self, index_class, skewed_column, skewed_data, rng):
        index = index_class(skewed_column)
        predicates = random_range_predicates(skewed_data, 60, rng, selectivity=0.05)
        assert_matches_brute_force(index, skewed_data, predicates)

    def test_point_queries(self, index_class, uniform_column, uniform_data, rng):
        index = index_class(uniform_column)
        predicates = random_point_predicates(uniform_data, 60, rng)
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_sequential_workload(self, index_class, uniform_column, uniform_data):
        # The workload standard cracking is most sensitive to: a sweep.
        index = index_class(uniform_column)
        domain = int(uniform_data.max())
        width = domain // 20
        predicates = [Predicate(start, start + width) for start in range(0, domain - width, width)]
        assert_matches_brute_force(index, uniform_data, predicates)

    def test_never_reports_convergence(self, index_class, uniform_column, uniform_data, rng):
        index = index_class(uniform_column)
        for predicate in random_range_predicates(uniform_data, 20, rng):
            index.query(predicate)
        assert not index.converged
        assert index.phase is IndexPhase.REFINEMENT

    def test_first_query_copies_the_column(self, index_class, uniform_column, uniform_data):
        index = index_class(uniform_column)
        assert index.memory_footprint() == 0
        index.query(Predicate(0, 1_000))
        assert index.memory_footprint() == uniform_data.nbytes
        assert index.last_stats.elements_indexed == uniform_data.size

    def test_cracker_values_stay_a_permutation(self, index_class, uniform_column, uniform_data, rng):
        index = index_class(uniform_column)
        for predicate in random_range_predicates(uniform_data, 30, rng):
            index.query(predicate)
        assert np.array_equal(np.sort(index.cracker.values), np.sort(uniform_data))


class TestStandardCrackingBehaviour:
    def test_pieces_grow_with_distinct_queries(self, uniform_column, uniform_data, rng):
        index = StandardCracking(uniform_column)
        pieces = []
        for predicate in random_range_predicates(uniform_data, 15, rng):
            index.query(predicate)
            pieces.append(index.cracker.n_pieces)
        assert pieces[-1] > pieces[0]
        assert all(b >= a for a, b in zip(pieces, pieces[1:]))

    def test_repeated_query_does_no_extra_work(self, uniform_column):
        index = StandardCracking(uniform_column)
        predicate = Predicate(1_000, 2_000)
        index.query(predicate)
        swaps_after_first = index.cracker.swaps_performed
        index.query(predicate)
        assert index.cracker.swaps_performed == swaps_after_first


class TestStochasticBehaviour:
    def test_random_pivots_limit_large_pieces(self, uniform_column, uniform_data):
        index = StochasticCracking(uniform_column, minimum_piece=1_024)
        index.query(Predicate(100, 200))
        sizes = index.cracker.index.piece_sizes()
        # After the first query, the piece containing the bounds has been cut
        # down below (roughly) the minimum piece size by random cracks.
        assert min(sizes) <= 1_024

    def test_deterministic_with_seeded_rng(self, uniform_column, uniform_data, rng):
        first = StochasticCracking(uniform_column, rng=np.random.default_rng(3))
        second = StochasticCracking(uniform_column, rng=np.random.default_rng(3))
        for predicate in random_range_predicates(uniform_data, 10, rng):
            assert first.query(predicate).count == second.query(predicate).count
        assert np.array_equal(first.cracker.values, second.cracker.values)


class TestProgressiveStochasticBehaviour:
    def test_swap_budget_bounds_per_query_work(self, uniform_column, uniform_data, rng):
        index = ProgressiveStochasticCracking(
            uniform_column, allowed_swaps=0.1, minimum_piece=256
        )
        index.query(Predicate(0, 100))  # first query copies; ignore it
        for predicate in random_range_predicates(uniform_data, 20, rng):
            largest_before = max(index.cracker.index.piece_sizes())
            before = index.cracker.swaps_performed
            index.query(predicate)
            swaps = index.cracker.swaps_performed - before
            # Allowed swaps, plus the documented overshoot of at most one
            # piece-sized crack per query bound, plus two complete cracks of
            # cache-sized pieces (the "always crack small pieces" rule).
            assert swaps <= 0.1 * uniform_data.size + 2 * largest_before + 2 * 256 + 2

    def test_swap_budget_effective_once_pieces_shrink(self, uniform_column, uniform_data, rng):
        index = ProgressiveStochasticCracking(
            uniform_column, allowed_swaps=0.1, minimum_piece=256
        )
        # Warm up until no piece exceeds the per-query allowance any more.
        for predicate in random_range_predicates(uniform_data, 10, rng):
            index.query(predicate)
        if max(index.cracker.index.piece_sizes()) > 0.1 * uniform_data.size:
            pytest.skip("pieces still larger than the allowance on this seed")
        for predicate in random_range_predicates(uniform_data, 10, rng):
            before = index.cracker.swaps_performed
            index.query(predicate)
            swaps = index.cracker.swaps_performed - before
            assert swaps <= 2 * 0.1 * uniform_data.size + 2 * 256 + 2

    def test_rejects_invalid_allowed_swaps(self, uniform_column):
        with pytest.raises(ValueError):
            ProgressiveStochasticCracking(uniform_column, allowed_swaps=0.0)


class TestCoarseGranularBehaviour:
    def test_first_query_creates_equal_partitions(self, skewed_column, skewed_data):
        index = CoarseGranularIndex(skewed_column, initial_partitions=16)
        index.query(Predicate(0, 100))
        sizes = np.array(index.cracker.index.piece_sizes())
        # Equi-depth partitioning keeps pieces balanced even under skew
        # (duplicates can merge some boundaries, hence the generous factor).
        assert sizes.max() <= 8 * skewed_data.size / 16

    def test_rejects_invalid_partition_count(self, uniform_column):
        with pytest.raises(ValueError):
            CoarseGranularIndex(uniform_column, initial_partitions=1)


class TestAdaptiveAdaptiveBehaviour:
    def test_first_query_radix_partitions_everything(self, uniform_column):
        index = AdaptiveAdaptiveIndexing(uniform_column, fanout=64)
        index.query(Predicate(0, 100))
        assert index.cracker.n_pieces >= 32

    def test_touched_pieces_shrink_quickly(self, uniform_column, uniform_data, rng):
        index = AdaptiveAdaptiveIndexing(uniform_column, fanout=16, sort_threshold=512)
        predicate = Predicate(10_000, 15_000)
        index.query(predicate)
        index.query(predicate)
        piece = index.cracker.piece_for(12_000)
        assert piece.size <= 512 or piece.size < uniform_data.size / 16

    def test_rejects_invalid_fanout(self, uniform_column):
        with pytest.raises(ValueError):
            AdaptiveAdaptiveIndexing(uniform_column, fanout=1)


# ----------------------------------------------------------------------
# The whole int64 domain: keys past 2**53 and at the top of the dtype
# ----------------------------------------------------------------------
TOP = 2**63 - 1


def value_domain_cases():
    """``(data, predicates)``: dense values past 2**53 (float64 merges 256
    neighbours there), values across 2**53, and the two ends of int64."""
    rng = np.random.default_rng(53)
    cases = []
    for base in (2**60, 2**53 - 992):
        data = base + rng.integers(0, 4_000, 20_000)
        bounds = np.sort(rng.integers(0, 4_000, (300, 2)), axis=1)
        cases.append((data, [(int(base + low), int(base + high)) for low, high in bounds]))
    ends = np.array([TOP, TOP - 1, 5, -TOP - 1, 0, TOP, 7], dtype=np.int64)
    cases.append((ends, [(TOP - 1, TOP), (-(2**63), -(2**63) + 1), (-(2**63), TOP), (TOP, TOP)]))
    return cases


@pytest.mark.parametrize("index_class", ALL_CRACKING)
def test_answers_are_exact_on_the_whole_int64_domain(index_class):
    """Keys in the column's dtype: no bound rounds onto its neighbour, and
    the bound past the largest int64 holds every value below it — on the
    sequential path and through ``execute_batch``."""
    for data, bounds in value_domain_cases():
        expected = [int(((data >= low) & (data <= high)).sum()) for low, high in bounds]
        index = index_class(Column(data.copy()))
        assert [index.query(Predicate(low, high)).count for low, high in bounds] == expected
        session = IndexingSession(Table({"v": data.copy()}))
        session.create_index("v", method=index_class.name)
        results = session.execute_batch(bounds, column_name="v")
        assert [result.count for result in results] == expected

"""Tests for Progressive Bucketsort (Equi-Height)."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import kernels
from repro.core.policy import FixedDelta, TimeAdaptive
from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.progressive.bucketsort import ProgressiveBucketsort
from repro.storage.column import Column

from tests.conftest import assert_matches_brute_force, random_range_predicates


class TestBoundsRouter:
    """PB routes a chunk with ``kernels.route_cuts`` over its bounds as cuts
    in the column's dtype: the grid-accelerated routing must count the bounds
    at or below each value exactly as the binary search does."""

    def route(self, bounds, values):
        values = np.asarray(values)
        cuts, skip = kernels.typed_cuts(values.dtype, np.asarray(bounds, dtype=np.float64))
        return skip + kernels.route_cuts(values, cuts)

    def reference(self, bounds, values):
        return np.searchsorted(bounds, values, side="right")

    def test_uniform_int_data(self, rng):
        data = rng.integers(0, 100_000, size=50_000)
        bounds = np.quantile(data, np.linspace(0, 1, 65)[1:-1])
        assert np.array_equal(self.route(bounds, data), self.reference(bounds, data))

    def test_skewed_data_with_clustered_bounds(self, rng):
        data = np.concatenate(
            [rng.integers(0, 100, size=45_000), rng.integers(0, 1_000_000, size=5_000)]
        )
        bounds = np.quantile(data, np.linspace(0, 1, 33)[1:-1])
        assert np.array_equal(self.route(bounds, data), self.reference(bounds, data))

    def test_float_data_and_boundary_values(self, rng):
        data = rng.normal(0.0, 1.0, size=20_000)
        bounds = np.quantile(data, np.linspace(0, 1, 17)[1:-1])
        probes = np.concatenate([data, bounds, np.nextafter(bounds, -np.inf),
                                 np.nextafter(bounds, np.inf)])
        assert np.array_equal(self.route(bounds, probes), self.reference(bounds, probes))

    def test_degenerate_single_value_domain(self):
        bounds = np.array([5.0, 5.0, 5.0])
        values = np.full(100, 5)
        assert np.array_equal(self.route(bounds, values), self.reference(bounds, values))

    def test_float32_values_against_float64_bounds(self, rng):
        """Bounds between float32 values and on them: the cut is the largest
        float32 below each bound."""
        data = rng.normal(0.0, 1.0, size=20_000).astype(np.float32)
        bounds = np.sort(np.concatenate([data[:7].astype(np.float64), rng.normal(0.0, 1.0, 8), [1e300]]))
        probes = np.concatenate([data, bounds[:-1].astype(np.float32), np.float32([np.inf, -np.inf])])
        assert np.array_equal(self.route(bounds, probes), self.reference(bounds, probes.astype(np.float64)))

    def test_non_finite_span_falls_back(self):
        huge = np.finfo(np.float64).max
        bounds = np.array([-1.0, 0.0, 1.0])
        values = np.array([-huge, -2.0, -0.5, 0.5, 2.0, huge])
        assert np.array_equal(self.route(bounds, values), self.reference(bounds, values))


class TestBucketsortLifecycle:
    def test_rejects_too_few_buckets(self, uniform_column):
        with pytest.raises(ValueError):
            ProgressiveBucketsort(uniform_column, n_buckets=1)

    def test_bounds_are_established_on_first_query(self, uniform_column):
        index = ProgressiveBucketsort(uniform_column, budget=FixedDelta(0.25), n_buckets=16)
        assert index.bounds is None
        index.query(Predicate(0, 100))
        assert index.bounds is not None
        assert index.bounds.size == 15
        assert np.all(np.diff(index.bounds) >= 0)

    def test_equi_height_buckets_on_skewed_data(self, skewed_column, skewed_data):
        # The defining property versus radix clustering: bucket sizes stay
        # balanced even when the data is heavily skewed.
        index = ProgressiveBucketsort(skewed_column, budget=FixedDelta(1.0), n_buckets=16)
        index.query(Predicate(0, 100))  # finishes the creation phase (delta=1)
        sizes = index._buckets.sizes() if index._buckets is not None else None
        if sizes is None:
            pytest.skip("creation already completed and buckets were released")
        largest = sizes.max()
        expected = skewed_data.size / 16
        assert largest < 4 * expected

    def test_phase_progression(self, uniform_column, uniform_data, rng):
        index = ProgressiveBucketsort(uniform_column, budget=FixedDelta(0.5))
        seen = []
        for predicate in random_range_predicates(uniform_data, 80, rng):
            index.query(predicate)
            if not seen or seen[-1] is not index.phase:
                seen.append(index.phase)
        orders = [phase.order for phase in seen]
        assert orders == sorted(orders)
        assert index.converged

    def test_final_array_sorted(self, skewed_column, skewed_data):
        index = ProgressiveBucketsort(skewed_column, budget=FixedDelta(0.5))
        iterations = 0
        while not index.converged and iterations < 300:
            index.query(Predicate(0, 1_000))
            iterations += 1
        assert index.converged
        assert np.array_equal(index._leaf.values, np.sort(skewed_data))


class TestBucketsortCorrectness:
    def test_exact_answers_uniform(self, uniform_column, uniform_data, rng):
        index = ProgressiveBucketsort(uniform_column, budget=FixedDelta(0.2))
        predicates = random_range_predicates(uniform_data, 80, rng)
        assert_matches_brute_force(index, uniform_data, predicates)
        assert index.converged

    def test_exact_answers_skewed(self, skewed_column, skewed_data, rng):
        index = ProgressiveBucketsort(skewed_column, budget=FixedDelta(0.25))
        predicates = random_range_predicates(skewed_data, 80, rng, selectivity=0.05)
        assert_matches_brute_force(index, skewed_data, predicates)
        assert index.converged

    def test_adaptive_budget(self, skewed_column, skewed_data, rng):
        index = ProgressiveBucketsort(
            skewed_column, budget=TimeAdaptive(scan_fraction=0.5)
        )
        predicates = random_range_predicates(skewed_data, 250, rng)
        assert_matches_brute_force(index, skewed_data, predicates)
        assert index.converged

    def test_all_equal_values(self):
        data = np.full(4_000, 5, dtype=np.int64)
        index = ProgressiveBucketsort(Column(data), budget=FixedDelta(0.5))
        for _ in range(30):
            assert index.query(Predicate(5, 5)).count == 4_000
            assert index.query(Predicate(6, 10)).count == 0
        assert index.converged

    def test_float_column(self, rng):
        data = rng.uniform(0.0, 1_000.0, size=8_000)
        index = ProgressiveBucketsort(Column(data), budget=FixedDelta(0.3))
        for _ in range(40):
            low = float(rng.uniform(0, 900))
            predicate = Predicate(low, low + 100.0)
            result = index.query(predicate)
            mask = (data >= predicate.low) & (data <= predicate.high)
            assert result.count == mask.sum()
            assert result.value_sum == pytest.approx(float(data[mask].sum()))
        assert index.converged

    def test_stats_report_prediction(self, uniform_column):
        index = ProgressiveBucketsort(uniform_column, budget=FixedDelta(0.25))
        index.query(Predicate(0, 5_000))
        assert index.last_stats.predicted_cost is not None
        assert index.last_stats.delta == pytest.approx(0.25)


@given(st.floats(min_value=-(2.0**63), max_value=2.0**63, allow_nan=False))
@example(2.0**60)
@example(-(2.0**60))
@example(2.0**60 + 256)
@example(2.5)
@example(-(2.0**63))
@example(2.0**63)
def test_root_key_is_the_least_integer_routed_at_or_above_a_bound(bound):
    """An integer reaches bucket ``b`` exactly when it is at least the root
    key of ``bounds[b - 1]``, ``ceil(bound)``: the scatter compares with the
    bound exactly (not as a float64)."""
    cuts, skip = kernels.typed_cuts(np.dtype(np.int64), [bound])
    key = math.ceil(bound)
    probes = [v for v in (key - 1, key, key + 1) if -(2**63) <= v < 2**63]
    routed = (skip + kernels.route_cuts(np.array(probes, dtype=np.int64), cuts)).tolist()
    assert routed == [int(v >= bound) for v in probes] == [int(v >= key) for v in probes]


def huge_split_columns():
    """Float columns whose neighbouring sample values lie more than the
    largest float64 apart: the difference of two sample bounds overflows."""
    rng = np.random.default_rng(34)
    nine = rng.permutation([-1e308] * 4 + [1e308] * 5)
    wide = rng.permutation(np.concatenate([rng.uniform(-1.7e308, -1e308, 2_500),
                                           rng.uniform(1e308, 1.7e308, 2_500)]))
    return {"nine": nine, "wide": wide}


@pytest.mark.parametrize("name", ["nine", "wide"])
def test_bounds_of_a_split_wider_than_float64_stay_finite_and_exact(name, kernel_backend):
    data = huge_split_columns()[name]
    rng = np.random.default_rng(7)
    index = ProgressiveBucketsort(Column(data.copy()), budget=FixedDelta(0.25), sort_threshold=64)
    phases = set()
    for number in range(200):
        if number % 3 == 0:
            low = high = float(data[rng.integers(0, data.size)])
        else:
            low, high = np.sort(rng.uniform(-1.0, 1.0, 2) * 1.79e308)
        phases.add(index.phase)
        with np.errstate(over="ignore", invalid="ignore"):  # sums of such values overflow
            result = index.query(Predicate(low, high))
            matched = data[(data >= low) & (data <= high)]
            exact_sum = np.abs(matched).sum() < 1e308  # no partial sum overflows, in any order
        assert result.count == matched.size, (number, low, high, index.phase)
        if exact_sum:
            assert float(result.value_sum) == pytest.approx(float(matched.sum()), rel=1e-9)
        if number == 0:
            bounds = index.bounds
            assert np.isfinite(bounds).all() and (np.diff(bounds) >= 0).all()
    assert {IndexPhase.CREATION, IndexPhase.REFINEMENT, IndexPhase.CONVERGED} <= phases | {index.phase}


@pytest.mark.parametrize("damage", ["nan", "unordered"])
@pytest.mark.parametrize("stage", ["construction", "converged"])
def test_a_checkpoint_with_damaged_bounds_is_refused(damage, stage, uniform_column):
    from repro.errors import IndexStateError

    index = ProgressiveBucketsort(uniform_column, budget=FixedDelta(0.25 if stage == "construction" else 1.0))
    while index.phase is IndexPhase.INACTIVE or (stage == "converged") != index.converged:
        index.query(Predicate(0, 1_000))
    state = index.state_dict()
    key = "bounds" if stage == "construction" else "pb_bounds"
    bounds = np.array(state["family"][key])
    if damage == "nan":
        bounds[len(bounds) // 2] = np.nan
    else:
        bounds[[0, -1]] = bounds[[-1, 0]]
    state["family"][key] = bounds
    with pytest.raises(IndexStateError):
        ProgressiveBucketsort(uniform_column, budget=FixedDelta(0.25)).load_state(state)

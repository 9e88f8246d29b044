"""The four progressive indexes through their one shared base class.

Every case runs on Progressive Quicksort, Radixsort (MSD), Bucketsort and
Radixsort (LSD) alike: the life cycle, exact answers on columns the
per-family suites cover for some families only (floats, negatives, a single
value, bounds outside the domain), the memory footprint in every phase, and
indexes restored mid-construction under a memory budget.  The per-family
checks (PQ's pivot, PB's bounds, MSD's top-digit routing, LSD's pass count and
the power-of-two rule) stay in ``test_progressive_<family>.py``.
"""

import numpy as np
import pytest

from repro.core.policy import FixedDelta
from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.persist import pager
from repro.progressive import (
    ProgressiveBucketsort,
    ProgressiveQuicksort,
    ProgressiveRadixsortLSD,
    ProgressiveRadixsortMSD,
)
from repro.progressive.blocks import ExactBucketSet
from repro.storage.column import Column
from repro.storage.membudget import MemoryBudget

from tests.conftest import brute_force

ALL_PROGRESSIVE = [
    ProgressiveQuicksort,
    ProgressiveRadixsortMSD,
    ProgressiveBucketsort,
    ProgressiveRadixsortLSD,
]


def assert_exact(index, data, predicate):
    result = index.query(predicate)
    expected = brute_force(data, predicate)
    assert result.count == expected.count, (predicate, index.phase)
    if data.dtype.kind == "f":
        assert result.value_sum == pytest.approx(expected.value_sum, rel=1e-9, abs=1e-6)
    else:
        assert result.value_sum == expected.value_sum, (predicate, index.phase)


def drive_to_convergence(index, data, rng, limit=600):
    low, high = data.min().item(), data.max().item()
    for _ in range(limit):
        start = rng.uniform(low, high) if data.dtype.kind == "f" else int(rng.integers(low, high + 1))
        assert_exact(index, data, Predicate(start, start + (high - low) * 0.1))
        if index.converged:
            return
    raise AssertionError(f"{index.name} did not converge in {limit} queries")


@pytest.mark.parametrize("index_class", ALL_PROGRESSIVE)
class TestSharedLifecycle:
    def test_starts_inactive(self, index_class, uniform_column):
        index = index_class(uniform_column, budget=FixedDelta(0.25))
        assert index.phase is IndexPhase.INACTIVE
        assert index.predicted_cost(Predicate(0, 10)) is None

    def test_zero_delta_stays_in_creation_and_stays_exact(self, index_class, uniform_column, uniform_data, rng):
        index = index_class(uniform_column, budget=FixedDelta(0.0))
        for _ in range(10):
            low = int(rng.integers(0, 50_000))
            assert_exact(index, uniform_data, Predicate(low, low + 5_000))
            assert index.last_stats.elements_indexed == 0
        assert index.phase is IndexPhase.CREATION

    def test_delta_one_ingests_everything_on_the_first_query(self, index_class, uniform_column, uniform_data):
        index = index_class(uniform_column, budget=FixedDelta(1.0))
        assert_exact(index, uniform_data, Predicate(100, 20_000))
        assert index.last_stats.elements_indexed == uniform_data.size
        assert index.phase.order >= IndexPhase.REFINEMENT.order

    def test_footprint_in_every_phase(self, index_class, uniform_column, uniform_data, rng):
        index = index_class(uniform_column, budget=FixedDelta(0.2))
        seen = set()
        while not index.converged:
            low = int(rng.integers(0, 50_000))
            index.query(Predicate(low, low + 5_000))
            assert index.memory_footprint() > 0, index.phase
            seen.add(index.phase)
        assert {IndexPhase.CREATION, IndexPhase.REFINEMENT, IndexPhase.CONSOLIDATION} <= seen
        # Converged, the sorted array is held once more than the column.
        assert index.memory_footprint() >= uniform_data.nbytes

    def test_bounds_outside_the_domain_and_the_whole_domain(self, index_class, uniform_column, uniform_data):
        index = index_class(uniform_column, budget=FixedDelta(0.2))
        low, high = int(uniform_data.min()), int(uniform_data.max())
        for _ in range(60):
            assert index.query(Predicate(high + 1, high + 100)).count == 0
            assert index.query(Predicate(-100, low - 1)).count == 0
            assert_exact(index, uniform_data, Predicate(low, high))
            assert_exact(index, uniform_data, Predicate(-10**9, 10**9))
        assert index.converged


@pytest.mark.parametrize("index_class", ALL_PROGRESSIVE)
@pytest.mark.parametrize(
    "make_data",
    [
        pytest.param(lambda rng: rng.uniform(-1_000.0, 1_000.0, 6_000), id="float"),
        pytest.param(lambda rng: rng.integers(-50_000, 50_000, 6_000), id="negative"),
        pytest.param(lambda rng: np.full(3_000, -7, dtype=np.int64), id="single-value"),
    ],
)
def test_exact_through_every_phase(index_class, make_data, rng):
    data = make_data(rng)
    index = index_class(Column(data), budget=FixedDelta(0.15))
    drive_to_convergence(index, data, rng)
    value = data[0].item()
    assert_exact(index, data, Predicate(value, value))


# ----------------------------------------------------------------------
# Radix refinement under a memory budget, fresh and restored
# ----------------------------------------------------------------------
ROWS = 20_000


def budgeted(data, tmp_path):
    """A column under the 1 MiB floor budget."""
    return Column(data.copy(), memory_budget=MemoryBudget(1, spill_dir=str(tmp_path)))


def plsd_mid_pass(family_state):
    return family_state.get("current_pass", 0) >= 1 and family_state.get("pass_moved", 0) > 0


def pmsd_mid_partition(family_state):
    return any(node["state"] == "partitioning" for node in family_state.get("nodes", []))


MID_REFINEMENT = [
    pytest.param(ProgressiveRadixsortLSD, {"n_buckets": 16}, plsd_mid_pass, id="PLSD-mid-pass"),
    pytest.param(
        ProgressiveRadixsortMSD, {"n_buckets": 8, "sort_threshold": 64},
        pmsd_mid_partition, id="PMSD-mid-partition",
    ),
]


@pytest.fixture
def flat_sets(monkeypatch):
    """Every exact-offset set built from here on, with the type of its array
    as it was allocated."""
    built = []
    initialise = ExactBucketSet.__init__

    def spy(bucket_set, *args, **kwargs):
        initialise(bucket_set, *args, **kwargs)
        built.append(type(bucket_set.data))

    monkeypatch.setattr(ExactBucketSet, "__init__", spy)
    return built


def drive_to(index, caught):
    queries = 0
    while not caught(index.state_dict()["family"]):
        index.query(Predicate(0, 1 << 19))
        queries += 1
        assert queries < 400, "never caught mid-refinement"


def assert_spilled_and_exact(index, data, rng, flat_sets):
    """Past the budget, every flat generation / child array came from the
    arena's spilled slabs — none is an anonymous O(N) buffer — and the
    answers stay exact through convergence."""
    drive_to_convergence(index, data, rng)
    assert flat_sets and all(kind is np.memmap for kind in flat_sets), flat_sets
    point = data[17].item()
    assert_exact(index, data, Predicate(point, point))


@pytest.mark.parametrize("index_class, options, caught", MID_REFINEMENT)
def test_fresh_under_a_budget_carves_flat_sets_from_the_arena(
    index_class, options, caught, tmp_path, rng, flat_sets
):
    data = rng.integers(0, 1 << 20, ROWS)
    index = index_class(budgeted(data, tmp_path), budget=FixedDelta(0.05), **options)
    drive_to(index, caught)
    assert flat_sets  # the set being filled mid-refinement is one of them
    assert_spilled_and_exact(index, data, rng, flat_sets)


@pytest.mark.parametrize("index_class, options, caught", MID_REFINEMENT)
def test_restored_under_a_budget_scatters_through_the_arena(
    index_class, options, caught, tmp_path, rng, flat_sets
):
    data = rng.integers(0, 1 << 20, ROWS)
    index = index_class(budgeted(data, tmp_path), budget=FixedDelta(0.05), **options)
    drive_to(index, caught)
    blob = pager.encode_state(index.state_dict())

    restored = index_class(budgeted(data, tmp_path), budget=FixedDelta(0.05), **options)
    flat_sets.clear()
    restored.load_state(pager.decode_state(blob))
    assert flat_sets  # the set caught mid-fill, rebuilt
    assert_spilled_and_exact(restored, data, rng, flat_sets)

"""The four progressive indexes through their one shared base class.

Every case runs on Progressive Quicksort, Radixsort (MSD), Bucketsort and
Radixsort (LSD) alike: the life cycle, exact answers on columns the
per-family suites cover for some families only (floats, negatives, a single
value, bounds outside the domain), the memory footprint in every phase, and
indexes restored mid-construction under a memory budget, and damaged
piece-table checkpoints (a typed error or exact answers).  The per-family
checks (PQ's pivot, PB's bounds, MSD's top-digit routing, LSD's pass count and
the power-of-two rule) stay in ``test_progressive_<family>.py``.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.policy import FixedDelta
from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.errors import IndexStateError
from repro.persist import pager
from repro.progressive import (
    ProgressiveBucketsort,
    ProgressiveQuicksort,
    ProgressiveRadixsortLSD,
    ProgressiveRadixsortMSD,
)
from repro.progressive.blocks import ExactBucketSet
from repro.progressive.pieces import SCATTERING
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
        assert {IndexPhase.CREATION, IndexPhase.REFINEMENT, IndexPhase.CONVERGED} <= seen
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
    pieces = family_state.get("pieces")
    return pieces is not None and bool((pieces["state"] == SCATTERING).any())


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


# ----------------------------------------------------------------------
# Damaged piece tables: a typed error or a correct restore
# ----------------------------------------------------------------------
PIECE_FAMILIES = {
    "PQ": (ProgressiveQuicksort, {"sort_threshold": 64}),
    "PMSD": (ProgressiveRadixsortMSD, {"n_buckets": 8, "sort_threshold": 64}),
    "PB": (ProgressiveBucketsort, {"n_buckets": 8, "sort_threshold": 64}),
}
PIECE_DATA = np.random.default_rng(29).integers(-3_000, 3_000, 3_000)


def mid_refinement_payload(family: str, queries: int) -> dict:
    """``state_dict`` of a ``family`` index ``queries`` into refinement."""
    index_class, options = PIECE_FAMILIES[family]
    index = index_class(Column(PIECE_DATA.copy()), budget=FixedDelta(0.06), **options)
    rng = np.random.default_rng(queries)
    while index.phase is not IndexPhase.REFINEMENT:
        index.query(Predicate(0, 100))
    for _ in range(queries):
        low = int(rng.integers(-3_000, 3_000))
        index.query(Predicate(low, low + 400))
    assert index.phase is IndexPhase.REFINEMENT
    return pager.decode_state(pager.encode_state(index.state_dict()))


PIECE_PAYLOADS = {(family, queries): mid_refinement_payload(family, queries)
                  for family in PIECE_FAMILIES for queries in (1, 4, 9)}

#: What a damaged entry may carry instead of the right one.
PIECE_DAMAGE = st.sampled_from(["x", None, True, 1.5, [], {}, -1, 0, 10**20, float("nan")])


def damage_payload(pieces: dict, kind: str, position: int, entry: int, change, value) -> None:
    """Drop or retype the ``position``-th key (sorted) of a piece-table
    payload, or shift one ``entry`` of it by ``change``."""
    keys = sorted(pieces)
    key = keys[position % len(keys)]
    column = pieces[key]
    if kind == "drop":
        del pieces[key]
    elif kind == "retype":
        pieces[key] = value
    elif isinstance(column, np.ndarray) and column.size:
        column = pieces[key] = column.copy()
        if column.dtype == np.int64:
            column[entry % column.size] += change
        else:
            column[entry % column.size] = value if isinstance(value, float) else column[0]
    elif isinstance(column, list) and column:
        column[entry % len(column)] = value
    elif isinstance(column, int) and not isinstance(column, bool):
        pieces[key] = column + change


#: Damage kinds; ``family ...`` ones hit the family payload's own keys.
DAMAGE_KINDS = ["drop", "retype", "shift", "family drop", "family retype"]


@settings(max_examples=500, deadline=None)
# Shifts that once got through: progress on a waiting piece (PMSD, PB), a
# pending piece saved as mid-partition (PQ), a large waiting root saved as
# copying (PMSD); a NaN value bound on an integer column (PB).
@example(source=("PB", 1), damage=[("shift", 15, 0, -2, float("nan"))])
@example(source=("PMSD", 4), damage=[("shift", 10, 3, 1, None)])
@example(source=("PB", 1), damage=[("shift", 10, 2, 1, None)])
@example(source=("PQ", 1), damage=[("shift", 15, 1, 1, None)])
@example(source=("PMSD", 4), damage=[("shift", 15, 3, 1, None)])
@given(
    source=st.sampled_from(sorted(PIECE_PAYLOADS)),
    damage=st.lists(
        st.tuples(st.sampled_from(DAMAGE_KINDS), st.integers(0, 40),
                  st.integers(0, 10_000), st.sampled_from([-2, -1, 1, 2, 64]), PIECE_DAMAGE),
        min_size=1, max_size=2),
)
def test_damaged_piece_table_restores_correctly_or_raises_typed(source, damage):
    """Drop, retype or shift entries of a mid-refinement piece table, or
    drop or retype a key of the family payload around it: the restore raises
    :class:`IndexStateError` or answers every query exactly to convergence —
    never an ``IndexError``/``KeyError``, never a silent wrong count."""
    state = copy.deepcopy(PIECE_PAYLOADS[source])
    for kind, position, entry, change, value in damage:
        target = state["family"] if kind.startswith("family ") else state["family"].get("pieces")
        if isinstance(target, dict) and target:
            damage_payload(target, kind.removeprefix("family "), position, entry, change, value)
    index_class, options = PIECE_FAMILIES[source[0]]
    index = index_class(Column(PIECE_DATA.copy()), budget=FixedDelta(0.06), **options)
    try:
        index.load_state(state)
    except IndexStateError:
        return
    drive_to_convergence(index, PIECE_DATA, np.random.default_rng(1))


def test_pb_routes_integers_past_2_53_as_its_scatter_did():
    """Dense int64 values near 2**60 share a float64 per 256 of them, and the
    scatter routes them as float64: a value just below a bound that rounds
    onto it lands in the bucket above.  Queries ending on such values find
    them in every phase, also once the buckets (past the sort threshold)
    have split."""
    data = 2**60 + np.random.default_rng(31).permutation(400_000).astype(np.int64)
    index = ProgressiveBucketsort(Column(data.copy()), budget=FixedDelta(0.02))
    assert_exact(index, data, Predicate(int(data.min()), int(data.min()) + 1_000))
    edges = [int(bound) - 1 for bound in index.bounds]
    assert all(float(edge) == bound for edge, bound in zip(edges, index.bounds))
    phases, split = set(), False
    for turn in range(10_000):
        if index.converged:
            break
        edge = edges[turn % len(edges)]
        assert_exact(index, data, Predicate(edge - 300 * (turn % 3), edge))
        phases.add(index.phase)
        split |= index._pieces is not None and any(index._pieces.fanout)
    assert index.converged and split and IndexPhase.REFINEMENT in phases

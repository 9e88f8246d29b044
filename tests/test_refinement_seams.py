"""What a partly refined progressive index costs at the kernel seam.

Deterministic counts, no timing, on both kernel backends:

* a PMSD refinement-phase answer makes one ``range_sum_count`` per
  contiguous run of unsorted leaves it reads, not one per leaf;
* PQ's ``prioritize`` descends the piece table to the ``k`` queued pieces
  the predicate overlaps instead of walking the whole worklist, and leaves
  the worklist in exactly the order of a stable partition (also across a
  checkpoint);
* PLSD counts each pass's digit histogram while the previous pass (or the
  creation phase) moves the values, so no query histograms more values than
  it moves.

Plus an oracle run for the runs: predicates on PMSD child edges, points,
empty ranges, int64 near ±2**63 and float64 with duplicates and −0.0, each
answer checked against a scan at every phase.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import kernels
from repro.core.keys import FloatKeyCodec
from repro.core.phase import IndexPhase
from repro.core.policy import FixedDelta
from repro.core.query import Predicate
from repro.progressive import (
    ProgressiveQuicksort,
    ProgressiveRadixsortLSD,
    ProgressiveRadixsortMSD,
)
from repro.persist import pager
from repro.progressive.pieces import SPLIT, PieceTable
from repro.progressive.sorter import ProgressiveSorter
from repro.storage.column import Column

pytestmark = pytest.mark.usefixtures("kernel_backend")

ROWS = 1_000_000
DOMAIN = 1 << 40


@pytest.fixture(scope="module")
def uniform_million() -> np.ndarray:
    return np.random.default_rng(1).integers(0, DOMAIN, ROWS)


def mixed_ranges(count: int, seed: int):
    """Points and ranges of 0.1 %, 1 % and 10 % of the domain, in turn."""
    rng = np.random.default_rng(seed)
    for number in range(count):
        fraction = (0.0, 0.001, 0.01, 0.1)[number % 4]
        low = int(rng.integers(0, DOMAIN))
        yield fraction, Predicate(low, low + int(fraction * DOMAIN))


def counting(monkeypatch, name: str) -> list:
    """Wrap ``kernels.<name>``; returns the list the sizes of its inputs go to."""
    sizes: list = []
    original = getattr(kernels, name)

    def wrapper(values, *args):
        sizes.append(int(values.size))
        return original(values, *args)

    monkeypatch.setattr(kernels, name, wrapper)
    return sizes


def test_pmsd_answers_one_seam_call_per_run(uniform_million, monkeypatch):
    calls = counting(monkeypatch, "range_sum_count")
    index = ProgressiveRadixsortMSD(Column(uniform_million.copy()), budget=FixedDelta(0.05))
    answered = {}
    for fraction, predicate in mixed_ranges(400, seed=2):
        del calls[:]
        index.query(predicate)
        if index.last_stats.phase is IndexPhase.REFINEMENT:
            answered.setdefault(fraction, []).append(len(calls))
        if index.converged:
            break
    assert index.converged and all(len(counts) >= 5 for counts in answered.values())
    # A root bucket spans 1/64 of the domain, so a 1 % range touches at most
    # two.  Below a root the unsorted leaves form one run in their parent's
    # flat array (sorted leaves are binary-searched, no scan), so each root
    # costs at most one call.  Per leaf it was ~41 calls for 1 %, 410 for 10 %.
    assert max(answered[0.0]) <= 1 and max(answered[0.001]) <= 2 and max(answered[0.01]) <= 2
    assert max(answered[0.1]) <= 8


class CountingReads(list):
    """A piece-table column that counts its reads while ``active``."""

    active = False
    reads = 0

    def __getitem__(self, index):
        CountingReads.reads += CountingReads.active
        return list.__getitem__(self, index)


def test_pq_prioritize_visits_only_the_overlapping_nodes(uniform_million, monkeypatch):
    # The descent tests the bounds of every piece it visits: count the reads
    # of one bound column while it runs.
    descend = PieceTable.prioritize

    def counted(table, low, high):
        CountingReads.active = True
        try:
            return descend(table, low, high)
        finally:
            CountingReads.active = False

    monkeypatch.setattr(PieceTable, "prioritize", counted)
    index = ProgressiveQuicksort(Column(uniform_million.copy()), budget=FixedDelta(0.05))
    walked = queued = 0
    for _, predicate in mixed_ranges(400, seed=3):
        table = index._pieces
        waiting = []
        if table is not None:
            if not isinstance(table.vhi, CountingReads):
                table.vhi = CountingReads(table.vhi)
            waiting = list(table.worklist)
        k = sum(overlaps(table, piece, predicate) for piece in waiting)
        CountingReads.reads = 0
        index.query(predicate)
        if waiting:
            visited = CountingReads.reads
            assert visited <= 3 * (k + table.height), (visited, k, len(waiting))
            walked += visited
            queued += len(waiting)
        if index.converged:
            break
    assert index.converged and walked < queued / 2


def overlaps(table, piece: int, predicate: Predicate) -> bool:
    return predicate.low <= list.__getitem__(table.vhi, piece) and predicate.high >= table.vlo[piece]


def reference_prioritize(table, predicate: Predicate) -> list:
    """The specification: overlapping pieces first, each side in its order."""
    worklist = list(table.worklist)
    return ([p for p in worklist if overlaps(table, p, predicate)]
            + [p for p in worklist if not overlaps(table, p, predicate)])


@pytest.mark.parametrize("dtype", ["int64", "float64"])
def test_pq_prioritize_order_equals_the_stable_partition(dtype):
    rng = np.random.default_rng(5)
    data = rng.integers(-5_000, 5_000, 20_000)
    data = data / 7.0 if dtype == "float64" else data
    sorter = ProgressiveSorter(data.copy(), sort_threshold=32)
    low_end, high_end = float(data.min()), float(data.max())
    checked = 0
    while not sorter.is_sorted:
        low = float(rng.uniform(low_end - 10, high_end))
        predicate = Predicate(low, low + (high_end - low_end) * float(rng.choice([0.0, 0.01, 0.2])))
        expected = reference_prioritize(sorter.pieces, predicate)
        sorter.pieces.prioritize(predicate.low, predicate.high)
        assert list(sorter.pieces.worklist) == expected
        checked += len(expected) > 1
        sorter.refine(int(rng.integers(50, 2_000)))
        if rng.random() < 0.1:
            # The order survives a checkpoint.
            table = sorter.pieces
            blob = pager.encode_state(table.state_dict())
            restored = PieceTable.from_state(
                pager.decode_state(blob), table.final, None, None, (-math.inf, math.inf), sort_threshold=32)
            assert list(restored.worklist) == list(table.worklist)
            sorter.pieces = restored
    assert checked > 50


def test_plsd_histograms_no_more_than_it_moves(monkeypatch):
    data = np.random.default_rng(4).integers(0, 1 << 30, 200_000)
    histogrammed = counting(monkeypatch, "radix_histogram")
    scattered = counting(monkeypatch, "scatter_radix")
    index = ProgressiveRadixsortLSD(Column(data.copy()), budget=FixedDelta(0.1))
    assert index.total_passes == 5
    phases = set()
    rng = np.random.default_rng(6)
    while not index.converged:
        del histogrammed[:], scattered[:]
        low = int(rng.integers(0, 1 << 30))
        index.query(Predicate(low, low + (1 << 20)))
        phases.add(index.last_stats.phase)
        # The creation scatter counts its own chunk to group it; beyond
        # that, only the next pass's digit over the values moved.
        assert sum(histogrammed) - sum(scattered) <= index.last_stats.elements_indexed
    assert {IndexPhase.CREATION, IndexPhase.REFINEMENT} <= phases
    assert np.array_equal(index._leaf.values, np.sort(data))


# ----------------------------------------------------------------------
# Runs at the edges
# ----------------------------------------------------------------------
def edge_columns():
    rng = np.random.default_rng(7)
    low_end = rng.integers(-(2**63), -(2**63) + 2**20, 6_000)
    low_end[:2] = -(2**63), -(2**63) + 2**20
    high_end = rng.integers(2**63 - 2**20, 2**63 - 1, 6_000, endpoint=True)
    high_end[:2] = 2**63 - 2**20, 2**63 - 1
    wide = np.concatenate([low_end[:2_000], high_end[:2_000], rng.integers(-(2**40), 2**40, 2_000)])
    floats = rng.integers(-40, 40, 6_000) / 4.0
    floats[rng.integers(0, floats.size, 300)] = -0.0
    floats[rng.integers(0, floats.size, 300)] = 0.0
    return {"int64-min": low_end, "int64-max": high_end, "int64-wide": wide, "float64": floats}


EDGE_COLUMNS = edge_columns()


def value_of(index, relative_key: int):
    """The column value whose relative radix key is ``relative_key`` (clamped)."""
    space = index._keyspace
    key = space.key_min + min(max(relative_key, 0), space.domain)
    if isinstance(space.codec, FloatKeyCodec):
        bits = key ^ (1 << 63) if key >> 63 else key ^ ((1 << 64) - 1)
        return float(np.uint64(bits).view(np.float64))
    return key - (1 << 63)


def edge_predicates(index, rng, count: int) -> tuple:
    """``count`` points and ranges picked from those on the child edges of
    every split piece, and how many there were to pick from."""
    keys = []
    table = index._pieces
    for piece in range(len(table.start)):
        if table.state[piece] != SPLIT:
            continue
        for child in range(table.first[piece], table.first[piece] + table.fanout[piece]):
            first, last = table.lo[child], table.hi[child] - 1
            keys += [
                (first, first), (first - 1, first - 1), (last, last),
                (first - 1, first), (first, last), (first - 1, last + 1),
            ]
    picked = [keys[i] for i in rng.permutation(len(keys))[:count]]
    return [Predicate(value_of(index, a), value_of(index, b)) for a, b in picked], len(keys)


def assert_exact(data: np.ndarray, result, predicate: Predicate, where: str) -> None:
    matched = data[(data >= predicate.low) & (data <= predicate.high)]
    assert result.count == matched.size, where
    if data.dtype.kind == "f":
        assert abs(float(result.value_sum) - float(matched.sum())) <= 1e-12 * float(np.abs(matched).sum()), where
    else:
        assert int(result.value_sum) == int(matched.sum()), where


@pytest.mark.parametrize("delta", [0.05, 0.2])
@pytest.mark.parametrize("name", list(EDGE_COLUMNS))
def test_pmsd_runs_answer_exactly_on_child_edges(name, delta):
    data = EDGE_COLUMNS[name]
    index = ProgressiveRadixsortMSD(Column(data.copy()), budget=FixedDelta(delta), n_buckets=8, sort_threshold=32)
    rng = np.random.default_rng(8)
    present = np.unique(data)
    gap = int(np.argmax(np.diff(present)))  # the widest gap: absent values
    fixed = [
        Predicate(present[0].item(), present[0].item()),
        Predicate(present[-1].item(), present[-1].item()),
        Predicate(present[0].item(), present[-1].item()),
        Predicate(present[gap].item(), present[gap + 1].item()),
    ]
    if data.dtype.kind == "f":
        middle = (present[gap].item() + present[gap + 1].item()) / 2
        fixed += [Predicate(middle, middle), Predicate(-0.0, -0.0), Predicate(0.0, 0.0),
                  Predicate(-0.0, 0.25), Predicate(-0.25, -0.0)]
    else:
        fixed += [Predicate(present[gap].item() + 1, present[gap + 1].item() - 1)]
    edges_seen = 0
    for _ in range(200):
        picked = []
        if index._pieces is not None and not index.converged:
            picked, available = edge_predicates(index, rng, 24)
            edges_seen += available
        for predicate in fixed + picked:
            result = index.query(predicate)
            assert_exact(data, result, predicate, f"{predicate} in {index.last_stats.phase}")
        if index.converged:
            break
    assert index.converged and edges_seen > 0

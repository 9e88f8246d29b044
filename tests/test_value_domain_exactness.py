"""Exact answers and bounded refinement at the edges of the value domains.

Each case is checked against a scan on both kernel backends:

* PQ with NumPy-integer bounds near the ends of int64 (its routing keys
  are Python floats, against which a NumPy integer turns into a float64);
* both zeros of float64 in PMSD and PLSD, whose keys gave ``-0.0`` a key
  below ``+0.0`` while predicates compare them equal (PQ and PB too);
* AA's equal-width boundaries over integer pieces near 2**63 and 2**62;
* PQ's and PB's outright sort of an integer piece that can hold one value
  only, which float piece bounds used to hide until the depth cap.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.random import default_rng

from repro.core.phase import IndexPhase
from repro.core.policy import FixedDelta
from repro.core.query import Predicate
from repro.engine.registry import create_index
from repro.progressive.pieces import SORTED, PieceTable
from repro.storage.column import Column

pytestmark = pytest.mark.usefixtures("kernel_backend")

INT64_MAX = 2**63 - 1


def near(base: int, seed: int = 3) -> np.ndarray:
    """20 000 int64 values in a 4 000-wide band at ``base`` (below it when
    ``base`` is the int64 maximum)."""
    offsets = default_rng(seed).integers(0, 4_000, 20_000)
    return base - offsets if base == INT64_MAX else base + offsets


def wrong_answers(index, data: np.ndarray, bounds) -> int:
    wrong = 0
    for low, high in bounds:
        expected = np.count_nonzero((data >= low) & (data <= high))
        wrong += index.query(Predicate(low, high)).count != expected
    return wrong


@pytest.mark.parametrize("base", [INT64_MAX, -(2**63), 2**60])
def test_pq_is_exact_with_numpy_integer_bounds(base):
    data = near(base)
    rng = default_rng(9)
    bounds = [sorted(rng.choice(data, 2)) for _ in range(120)]  # np.int64 bounds
    index = create_index("PQ", Column(data), budget=FixedDelta(0.1))
    assert wrong_answers(index, data, bounds) == 0


@pytest.mark.parametrize("name", ["PMSD", "PLSD", "PQ", "PB"])
def test_both_zeros_match_a_predicate_on_either(name):
    halves = np.array([0.0, -0.0] * 3_000)
    index = create_index(name, Column(halves), budget=FixedDelta(0.1))
    assert index.query(Predicate(0.0, 0.0)).count == 6_000
    data = default_rng(0).choice([-1.5, -0.0, 0.0, 2.0], 20_000)
    cycle = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 2.0), (-1.5, -0.0)]
    index = create_index(name, Column(data), budget=FixedDelta(0.1))
    assert wrong_answers(index, data, cycle * 22) == 0


@pytest.mark.parametrize("base, seed", [(INT64_MAX, 9), (INT64_MAX, 0), (2**62, 1), (2**62, 5)])
def test_aa_is_exact_at_large_int64_magnitudes(base, seed):
    data = near(base)
    rng = default_rng(seed)
    bounds = [[int(v) for v in sorted(rng.choice(data, 2))] for _ in range(120)]
    index = create_index("AA", Column(data), budget=FixedDelta(0.1))
    assert wrong_answers(index, data, bounds) == 0


def test_an_integer_piece_of_one_value_is_sorted_outright():
    table = PieceTable(np.full(10_000, 6, dtype=np.int64), sort_threshold=16)
    piece = table.add_pq(0, 10_000, -math.inf, math.inf, 5.99999999997, 6.0)
    assert table.sort_step(piece, 10) == 10_000
    assert table.state[piece] == SORTED


@pytest.mark.parametrize("name", ["PQ", "PB"])
def test_a_column_of_few_integers_converges_well_before_the_depth_cap(name):
    data = default_rng(0).integers(1936, 1946, 50_000)
    point = int(np.median(data))
    index = create_index(name, Column(data), budget=FixedDelta(0.1))
    for _ in range(100):
        assert index.query(Predicate(point, point)).count == np.count_nonzero(data == point)
        if index.phase is IndexPhase.CONVERGED:
            break
    assert index.phase is IndexPhase.CONVERGED

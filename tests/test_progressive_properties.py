"""Property-based tests shared by all four progressive indexes.

These are the library's core invariants:

* every query is answered exactly, no matter how far index construction has
  progressed (the paper's algorithms never trade correctness for speed);
* with a positive delta the index converges deterministically, and once
  converged it stays converged;
* phases only ever move forward.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import FixedDelta
from repro.core.query import Predicate
from repro.progressive import (
    ProgressiveBucketsort,
    ProgressiveQuicksort,
    ProgressiveRadixsortLSD,
    ProgressiveRadixsortMSD,
)
from repro.storage.column import Column

ALL_PROGRESSIVE = [
    ProgressiveQuicksort,
    ProgressiveRadixsortMSD,
    ProgressiveRadixsortLSD,
    ProgressiveBucketsort,
]


def _reference(data: np.ndarray, predicate: Predicate):
    mask = (data >= predicate.low) & (data <= predicate.high)
    return data[mask].sum(), int(mask.sum())


@pytest.mark.parametrize("index_class", ALL_PROGRESSIVE)
class TestSharedInvariants:
    @settings(max_examples=10, deadline=None)
    @given(
        data=st.lists(st.integers(min_value=0, max_value=5_000), min_size=16, max_size=800),
        delta=st.sampled_from([0.05, 0.2, 0.6, 1.0]),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_answers_always_exact_and_convergence_is_reached(
        self, index_class, data, delta, seed
    ):
        array = np.array(data, dtype=np.int64)
        rng = np.random.default_rng(seed)
        index = index_class(Column(array), budget=FixedDelta(delta))
        domain_low, domain_high = int(array.min()), int(array.max())
        previous_order = -1
        for _ in range(150):
            low = int(rng.integers(domain_low, domain_high + 1))
            high = int(rng.integers(low, domain_high + 1))
            predicate = Predicate(low, high)
            result = index.query(predicate)
            expected_sum, expected_count = _reference(array, predicate)
            assert result.count == expected_count
            assert result.value_sum == expected_sum
            assert index.phase.order >= previous_order
            previous_order = index.phase.order
        assert index.converged

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_converged_state_is_stable(self, index_class, seed):
        rng = np.random.default_rng(seed)
        array = rng.integers(0, 10_000, size=2_000)
        index = index_class(Column(array), budget=FixedDelta(1.0))
        for _ in range(40):
            index.query(Predicate(0, 10_000))
            if index.converged:
                break
        assert index.converged
        for _ in range(5):
            result = index.query(Predicate(0, 10_000))
            assert index.converged
            assert result.count == array.size

    def test_point_queries_on_every_distinct_value(self, index_class, rng):
        array = rng.integers(0, 300, size=3_000)
        index = index_class(Column(array), budget=FixedDelta(0.3))
        values, counts = np.unique(array, return_counts=True)
        probe = rng.permutation(len(values))[:60]
        for position in probe:
            value = int(values[position])
            result = index.query(Predicate(value, value))
            assert result.count == int(counts[position])
            assert result.value_sum == value * int(counts[position])

    def test_sum_of_two_halves_equals_whole(self, index_class, rng):
        array = rng.integers(0, 100_000, size=5_000)
        index = index_class(Column(array), budget=FixedDelta(0.25))
        middle = 50_000
        for _ in range(20):
            left = index.query(Predicate(0, middle))
            right = index.query(Predicate(middle + 1, 100_000))
            assert left.count + right.count == array.size
            assert left.value_sum + right.value_sum == array.sum()

    def test_memory_footprint_reported(self, index_class, rng):
        array = rng.integers(0, 10_000, size=4_000)
        index = index_class(Column(array), budget=FixedDelta(0.5))
        assert index.memory_footprint() == 0
        index.query(Predicate(0, 100))
        assert index.memory_footprint() > 0

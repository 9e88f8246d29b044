"""Tests for the cracking substrate: cracker index, cracker column, kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.cracker_column import CrackerColumn, upper_exclusive
from repro.cracking.cracker_index import AVLCrackerIndex, CrackerIndex
from repro.cracking.kernels import partition_predicated, partition_two_sided
from repro.storage.column import Column
from tests.conftest import partition_branched


class TestCrackerIndex:
    def test_initial_single_piece(self):
        index = CrackerIndex(100, 0, 1_000)
        piece = index.piece_for(500)
        assert (piece.start, piece.end) == (0, 100)
        assert index.n_pieces == 1

    def test_piece_lookup_after_cracks(self):
        index = CrackerIndex(100, 0, 1_000)
        index.add(300, 30)
        index.add(700, 70)
        assert index.n_pieces == 3
        assert (index.piece_for(100).start, index.piece_for(100).end) == (0, 30)
        assert (index.piece_for(300).start, index.piece_for(300).end) == (30, 70)
        assert (index.piece_for(999).start, index.piece_for(999).end) == (70, 100)

    def test_piece_value_bounds(self):
        index = CrackerIndex(100, 0, 1_000)
        index.add(300, 30)
        piece = index.piece_for(100)
        assert piece.value_low == 0 and piece.value_high == 300

    def test_position_of(self):
        index = CrackerIndex(100, 0, 1_000)
        index.add(300, 30)
        assert index.position_of(300) == 30
        assert index.position_of(299) is None

    def test_piece_sizes(self):
        index = CrackerIndex(100, 0, 1_000)
        index.add(500, 40)
        assert index.piece_sizes() == [40, 60]

    def test_add_existing_key_replaces_position(self):
        index = CrackerIndex(100, 0, 1_000)
        index.add(300, 30)
        index.add(300, 35)
        assert len(index) == 1
        assert index.position_of(300) == 35


class TestCrackerIndexMatchesAVLReference:
    """Differential: the flat-array index vs. the seed's AVL-backed one.

    The AVL implementation is kept precisely to serve as this oracle; every
    query of every operation sequence must agree between the two.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400),
                st.integers(min_value=0, max_value=1_000),
            ),
            min_size=0,
            max_size=60,
        ),
        probes=st.lists(
            st.floats(min_value=-10, max_value=410, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
    )
    def test_property_same_answers_for_any_sequence(self, entries, probes):
        flat = CrackerIndex(1_000, -50.0, 450.0)
        reference = AVLCrackerIndex(1_000, -50.0, 450.0)
        for key, position in entries:
            flat.add(key, position)
            reference.add(key, position)
        assert len(flat) == len(reference)
        assert flat.n_pieces == reference.n_pieces
        assert list(flat.boundaries()) == list(reference.boundaries())
        assert flat.piece_sizes() == reference.piece_sizes()
        for probe in probes:
            assert flat.position_of(probe) == reference.position_of(probe)
            assert flat.piece_for(probe) == reference.piece_for(probe)

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(st.tuples(st.integers(-400, 400), st.integers(0, 1_000)), max_size=60),
        probes=st.lists(st.integers(-410, 410), min_size=1, max_size=30),
        base=st.sampled_from([0, 2**53 - 200, 2**60, 2**63 - 500, -(2**63) + 500]),
    )
    def test_int64_keys_past_2_53_match(self, entries, probes, base):
        """Keys in the column's dtype: neighbours past 2**53, which float64
        would merge, stay apart, up to the ends of int64."""
        low, high = base - 450, base + 450
        flat = CrackerIndex(1_000, low, high, np.int64)
        reference = AVLCrackerIndex(1_000, low, high)
        for key, position in entries:
            flat.add(base + key, position)
            reference.add(base + key, position)
        assert list(flat.boundaries()) == list(reference.boundaries())
        assert flat.piece_sizes() == reference.piece_sizes()
        for probe in probes:
            assert flat.position_of(base + probe) == reference.position_of(base + probe)
            assert flat.piece_for(base + probe) == reference.piece_for(base + probe)

    def test_float_keys_including_nextafter_bounds(self, rng):
        flat = CrackerIndex(10_000, 0.0, 1.0)
        reference = AVLCrackerIndex(10_000, 0.0, 1.0)
        keys = rng.uniform(0, 1, size=200)
        for key in keys.tolist():
            bumped = upper_exclusive(key, np.dtype(np.float64))
            position = int(key * 10_000)
            flat.add(key, position)
            flat.add(bumped, position)
            reference.add(key, position)
            reference.add(bumped, position)
        assert list(flat.boundaries()) == list(reference.boundaries())
        for key in keys.tolist():
            assert flat.position_of(key) == reference.position_of(key)

    def test_capacity_growth_beyond_initial_allocation(self):
        flat = CrackerIndex(100_000, 0, 100_000)
        reference = AVLCrackerIndex(100_000, 0, 100_000)
        for key in range(1_000):
            flat.add(key * 100, key * 100)
            reference.add(key * 100, key * 100)
        assert len(flat) == 1_000
        assert list(flat.boundaries()) == list(reference.boundaries())


class TestUpperExclusive:
    def test_integer(self):
        assert upper_exclusive(10, np.dtype(np.int64)) == 11

    def test_float(self):
        bumped = upper_exclusive(10.0, np.dtype(np.float64))
        assert bumped > 10.0
        assert np.nextafter(10.0, np.inf) == bumped


class TestCrackerColumn:
    def make(self, data):
        return CrackerColumn(Column(np.asarray(data, dtype=np.int64)))

    def test_crack_partitions_around_value(self, rng):
        data = rng.integers(0, 1_000, size=2_000)
        cracker = self.make(data)
        position = cracker.crack(500)
        assert np.all(cracker.values[:position] < 500)
        assert np.all(cracker.values[position:] >= 500)
        assert cracker.n_pieces == 2

    def test_crack_is_idempotent(self, rng):
        data = rng.integers(0, 1_000, size=500)
        cracker = self.make(data)
        first = cracker.crack(300)
        swaps_after_first = cracker.swaps_performed
        second = cracker.crack(300)
        assert first == second
        assert cracker.swaps_performed == swaps_after_first

    def test_values_remain_a_permutation(self, rng):
        data = rng.integers(0, 10_000, size=3_000)
        cracker = self.make(data)
        for pivot in rng.integers(0, 10_000, size=20):
            cracker.crack(int(pivot))
        assert np.array_equal(np.sort(cracker.values), np.sort(data))

    def test_range_query_matches_reference(self, rng):
        data = rng.integers(0, 10_000, size=5_000)
        cracker = self.make(data)
        for _ in range(50):
            low = int(rng.integers(0, 9_000))
            high = low + 500
            result = cracker.range_query(low, high)
            mask = (data >= low) & (data <= high)
            assert result.count == mask.sum()
            assert result.value_sum == data[mask].sum()

    def test_range_query_without_cracking_matches_reference(self, rng):
        data = rng.integers(0, 10_000, size=5_000)
        cracker = self.make(data)
        # Crack a few arbitrary pivots so that queries span several pieces.
        for pivot in (1_000, 4_000, 8_000):
            cracker.crack(pivot)
        pieces_before = cracker.n_pieces
        for _ in range(50):
            low = int(rng.integers(0, 9_000))
            high = low + int(rng.integers(0, 2_000))
            result = cracker.range_query_without_cracking(low, high)
            mask = (data >= low) & (data <= high)
            assert result.count == mask.sum()
            assert result.value_sum == data[mask].sum()
        assert cracker.n_pieces == pieces_before  # no reorganisation happened

    def test_is_fully_sorted_detects_sorted_state(self):
        cracker = self.make(np.arange(100))
        assert cracker.is_fully_sorted()
        cracker = self.make([3, 1, 2])
        assert not cracker.is_fully_sorted()

    def test_memory_footprint(self):
        cracker = self.make(np.arange(1_000))
        assert cracker.memory_footprint() == 1_000 * 8

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=300),
        pivots=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=20),
        low=st.integers(min_value=0, max_value=500),
        width=st.integers(min_value=0, max_value=200),
    )
    def test_property_queries_exact_after_arbitrary_cracks(self, data, pivots, low, width):
        array = np.array(data, dtype=np.int64)
        cracker = CrackerColumn(Column(array))
        for pivot in pivots:
            cracker.crack(pivot)
        high = low + width
        result = cracker.range_query(low, high)
        mask = (array >= low) & (array <= high)
        assert result.count == mask.sum()
        assert result.value_sum == array[mask].sum()


class TestKernels:
    @pytest.mark.parametrize(
        "kernel", [partition_branched, partition_predicated, partition_two_sided]
    )
    def test_kernels_partition_correctly(self, kernel, rng):
        values = rng.integers(0, 100, size=200)
        pivot = 50
        expected_low = np.sort(values[values < pivot])
        working = values.copy()
        boundary = kernel(working, pivot)
        assert boundary == expected_low.size
        assert np.all(working[:boundary] < pivot)
        assert np.all(working[boundary:] >= pivot)
        assert np.array_equal(np.sort(working), np.sort(values))

    def test_kernels_agree_with_each_other(self, rng):
        values = rng.integers(0, 1_000, size=500)
        pivot = 321
        results = []
        for kernel in (partition_branched, partition_predicated, partition_two_sided):
            working = values.copy()
            results.append(kernel(working, pivot))
        assert len(set(results)) == 1

"""Equivalence tests for the construction-kernel seam (``repro.kernels``).

Two layers of checks:

* the in-place entry points (predicated, two-sided) against a pure-Python
  two-pointer reference on adversarial inputs — all-equal values, already
  partitioned data, reverse-sorted data, empty and single-element pieces,
  integer and floating point dtypes;
* the compiled backend against the NumPy backend, kernel by kernel and chunk
  by chunk, with Hypothesis: int64, uint64 around ``2**63`` and float64 with
  NaN, ±inf and −0.0; empty, size-1 and all-duplicate pieces; the resumable
  partition at every split point; the one-pass min/max.  Arrays are compared
  on their bits, float sums and extremes included — "close" is not the
  contract.

Beyond the kernels: ``queries_to_converge`` under ``FixedDelta`` is the same
on both backends (δ is in elements), a host without ``cc`` falls back with
one warning and the same answers, and two processes racing on a cold compile
cache end up loading one shared object.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import IndexingSession, Table, kernels
from repro.cracking.kernels import partition_predicated, partition_two_sided
from repro.progressive.blocks import BucketSet
from tests.conftest import partition_branched

requires_c = pytest.mark.skipif(
    kernels.info()["cache_path"] is None, reason="the compiled backend did not build here"
)

KERNELS = {
    "branched": partition_branched,
    "predicated": partition_predicated,
    "two_sided": partition_two_sided,
}

ADVERSARIAL_CASES = {
    "all_equal_below": (np.full(50, 3, dtype=np.int64), 10),
    "all_equal_above": (np.full(50, 30, dtype=np.int64), 10),
    "all_equal_at_pivot": (np.full(50, 10, dtype=np.int64), 10),
    "already_partitioned": (np.concatenate([np.arange(25), np.arange(100, 125)]).astype(np.int64), 50),
    "reverse_sorted": (np.arange(60, 0, -1).astype(np.int64), 30),
    "empty": (np.empty(0, dtype=np.int64), 5),
    "single_below": (np.array([1], dtype=np.int64), 5),
    "single_above": (np.array([9], dtype=np.int64), 5),
    "random_ints": (np.random.default_rng(0).integers(0, 100, 200), 50),
    "random_floats": (np.random.default_rng(1).uniform(0, 100, 200), 50.5),
    "duplicates_around_pivot": (np.array([5, 5, 5, 4, 6, 5, 4, 6], dtype=np.int64), 5),
    "pivot_outside_range": (np.arange(40, dtype=np.int64), 1_000),
    "negative_values": (np.array([-5, 3, -2, 0, 7, -9], dtype=np.int64), 0),
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_partition_property_holds(kernel_name, case):
    values, pivot = ADVERSARIAL_CASES[case]
    working = values.copy()
    boundary = KERNELS[kernel_name](working, pivot)
    assert boundary == int(np.sum(values < pivot))
    assert np.all(working[:boundary] < pivot)
    assert np.all(working[boundary:] >= pivot)
    # The partition is a permutation: same multiset before and after.
    assert Counter(working.tolist()) == Counter(values.tolist())


@pytest.mark.parametrize("case", sorted(ADVERSARIAL_CASES))
def test_kernels_agree_on_boundary(case):
    values, pivot = ADVERSARIAL_CASES[case]
    boundaries = set()
    partitions = []
    for kernel in KERNELS.values():
        working = values.copy()
        boundaries.add(kernel(working, pivot))
        partitions.append(working)
    assert len(boundaries) == 1
    # All kernels produce the same low-side and high-side multisets.
    boundary = boundaries.pop()
    reference_low = Counter(partitions[0][:boundary].tolist())
    reference_high = Counter(partitions[0][boundary:].tolist())
    for partition in partitions[1:]:
        assert Counter(partition[:boundary].tolist()) == reference_low
        assert Counter(partition[boundary:].tolist()) == reference_high


# ----------------------------------------------------------------------
# The compiled backend against the NumPy backend
# ----------------------------------------------------------------------
EDGES = {
    np.int64: [-(2**63), -(2**63) + 1, -1, 0, 1, 2**53 + 1, 2**63 - 2, 2**63 - 1],
    np.uint64: [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1],
    np.float64: [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1.5, -1.5,
                 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 + 2],
}
#: Bounds and pivots: every value edge of every dtype, and between them.
SCALARS = sorted({float(v) for edges in EDGES.values() for v in edges if v == v}) + [
    -(2**63), 2**63 - 1, 2**63, 2**64 - 1, 2**64, 7, 0.5, -0.5, float("nan")]


def element(dtype):
    if dtype is np.float64:
        wild = st.floats(allow_nan=True, allow_infinity=True, width=64)
    else:
        info = np.iinfo(dtype)
        wild = st.integers(int(info.min), int(info.max))
    # Few distinct values: duplicates, and bounds that hit them exactly.
    return st.one_of(st.sampled_from(EDGES[dtype]), st.integers(0, 9).map(dtype), wild)


@st.composite
def arrays(draw, max_size=120, count=1):
    """``count`` arrays of one dtype (a single array when ``count`` is 1)."""
    dtype = draw(st.sampled_from(sorted(EDGES, key=lambda d: d.__name__)))
    drawn = [
        np.array(draw(st.lists(element(dtype), min_size=0, max_size=max_size)), dtype=dtype)
        for _ in range(count)
    ]
    return drawn[0] if count == 1 else drawn


scalars = st.one_of(st.sampled_from(SCALARS), st.integers(-12, 12), st.floats(-12, 12))

#: Values the range routing must order exactly: the int64 ends, both sides of
#: 2**53, both zeros and both infinities; a NaN routes past every cut.
ROUTED_EDGES = {
    np.int64: [-(2**63), -(2**63) + 1, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 2, 2**63 - 1],
    np.float64: [float("-inf"), -0.0, 0.0, float("inf"), 2.0**53 - 1, 2.0**53, 2.0**53 + 2, float("nan")],
}


@st.composite
def routed(draw):
    """``(values, sorted cuts)`` of one column dtype: 0, 1, 7, 63 or 255 cuts
    with duplicates, and at least as many values as the grid has cells."""
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    if dtype is np.int64:
        wild = st.integers(-(2**63), 2**63 - 1)
    else:
        wild = st.floats(width=64)
    band = st.integers(-1_000, 1_000).map(dtype)  # cells that hold one cut, and several
    pool = st.one_of(st.sampled_from(ROUTED_EDGES[dtype]), band, wild)
    n_cuts = draw(st.sampled_from([0, 1, 7, 63, 255]))
    distinct = draw(st.lists(pool, min_size=min(n_cuts, 1), max_size=max(n_cuts, 1)))
    cuts = np.sort(np.array(draw(st.lists(st.sampled_from(distinct), min_size=n_cuts, max_size=n_cuts))
                            if distinct else [], dtype=dtype))
    values = draw(st.lists(st.one_of(pool, st.sampled_from(distinct or [0])), min_size=1, max_size=80))
    values = np.array(values, dtype=dtype)
    return np.resize(values, max(values.size, 16 * (n_cuts + 1) + draw(st.integers(0, 40)))), cuts



def bits(array) -> list:
    """An array as raw 64-bit patterns: NaN payloads and the sign of zero count."""
    return np.ascontiguousarray(array).view(np.uint64).tolist()


def on_backend(name, call, *args):
    previous = kernels.use_backend(name)
    try:
        return call(*args)
    finally:
        kernels.use_backend(previous)


def both(call, *args):
    """``call(*args)`` on the compiled and on the NumPy backend."""
    return on_backend("c", call, *args), on_backend("numpy", call, *args)


@requires_c
@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered in reduce")  # inf - inf
class TestCompiledAgainstNumpy:
    @settings(max_examples=150, deadline=None)
    @given(arrays(max_size=40), scalars)
    @example(np.empty(0, dtype=np.int64), 5)
    @example(np.array([2**63 + 1], dtype=np.uint64), 2**63)
    @example(np.full(7, -0.0), 0.0)
    @example(np.array([np.nan, 1.0, np.nan]), float("inf"))
    def test_resumable_partition_at_every_split_point(self, values, pivot):
        def run(split):
            out = np.zeros(values.size + 2, dtype=values.dtype)  # a guard slot at each end
            low_fill, high_fill = 1, values.size + 1
            counts = []
            for chunk in (values[:split], values[split:]):
                below = kernels.partition_chunk(chunk, pivot, out, low_fill, high_fill)
                low_fill += below
                high_fill -= chunk.size - below
                counts.append(below)
            assert low_fill == high_fill
            return counts, bits(out)

        for split in range(values.size + 1):
            compiled, reference = both(run, split)
            assert compiled == reference
            assert compiled[1][0] == compiled[1][-1] == 0  # guards untouched

    @settings(max_examples=150, deadline=None)
    @given(arrays(), scalars, st.sampled_from([None, 1, 7, 64]))
    def test_in_place_partitions(self, values, pivot, chunk_rows):
        def swap():
            working = values.copy()
            return kernels.partition_swap(working, pivot), bits(working)

        def streamed():
            working = values.copy()
            return kernels.partition_inplace(working, pivot, chunk_rows=chunk_rows), bits(working)

        for run in (swap, streamed):
            compiled, reference = both(run)
            assert compiled == reference
        boundary, partitioned = swap()
        partitioned = np.array(partitioned, dtype=np.uint64).view(values.dtype)
        assert sorted(bits(partitioned)) == sorted(bits(values))
        if pivot == pivot:
            below = [v < pivot for v in values.tolist()]
            assert boundary == sum(below)
            assert all(v < pivot for v in partitioned[:boundary].tolist())
            assert not any(v < pivot for v in partitioned[boundary:].tolist())

    @settings(max_examples=200, deadline=None)
    @given(arrays(), scalars, scalars)
    @example(np.array([0.1, 0.2, 0.3] * 40), 0.0, 1.0)
    def test_range_sum_count(self, values, low, high):
        def run():
            total, count = kernels.range_sum_count(values, low, high)
            assert type(total) is values.dtype.type
            return bits(np.array([total])), count

        compiled, reference = both(run)
        assert compiled == reference
        if values.dtype == np.float64:
            # Bit-identical to the expression the engine always evaluated.
            mask = (values >= low) & (values <= high)
            expected = values[mask].sum() if mask.any() else np.float64(0)
            assert compiled == (bits(np.array([expected])), int(mask.sum()))
        else:
            matching = [v for v in values.tolist() if low <= v <= high]
            assert compiled[1] == len(matching)
            assert int(compiled[0][0]) == sum(matching) % 2**64

    @settings(max_examples=200, deadline=None)
    @given(arrays().filter(lambda values: values.size))
    @example(np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64))
    @example(np.array([2**63 - 1], dtype=np.int64))
    @example(np.array([-0.0, 0.0, -0.0] * 7))
    @example(np.array([-0.0]))
    def test_minmax(self, values):
        def run():
            low, high = kernels.minmax(values)
            assert type(low) is type(high) is values.dtype.type
            return [low, high]

        compiled, reference = both(run)
        if values.dtype == np.float64 and np.isnan(values).any():
            assert np.isnan(compiled + reference).all()  # NaN wins, payload aside
            return
        assert bits(np.array(compiled)) == bits(np.array(reference))
        assert compiled == [values.min(), values.max()]
        assert not any(v == 0 and np.signbit(v) for v in compiled)  # a zero is +0.0

    @settings(max_examples=100, deadline=None)
    @given(arrays(), st.integers(1, 70), st.randoms(use_true_random=False))
    def test_scatter(self, values, n_buckets, random):
        ids = np.array([random.randrange(n_buckets) for _ in range(values.size)], dtype=np.int64)

        def run():
            out = np.zeros(values.size, dtype=values.dtype)
            counts, ends = kernels.scatter(values, ids, n_buckets, out)
            return counts.tolist(), ends.tolist(), bits(out)

        compiled, reference = both(run)
        assert compiled == reference
        counts, ends, out = compiled
        for bucket in range(n_buckets):
            assert out[ends[bucket] - counts[bucket] : ends[bucket]] == bits(values[ids == bucket])

    @settings(max_examples=150, deadline=None)
    @given(arrays(), st.integers(0, 63), st.sampled_from([1, 3, 63, 255]), st.integers(0, 2**64 - 1))
    def test_scatter_radix_and_order_keys(self, values, shift, mask, base):
        if values.dtype == np.uint64:
            values = values.view(np.int64)  # radix keys exist for the two column dtypes

        def run():
            out = np.zeros(values.size, dtype=values.dtype)
            counts, ends = kernels.scatter_radix(values, base, shift, mask, out)
            return counts.tolist(), ends.tolist(), bits(out)

        compiled, reference = both(run)
        assert compiled == reference
        # The digit is taken from the order key, and the order key orders.
        keys = kernels.order_keys(values).tolist()
        digits = [((key - base) % 2**64 >> shift) & mask for key in keys]
        expected = [value for _, value in sorted(zip(digits, bits(values)), key=lambda p: p[0])]
        assert compiled[2] == expected
        by_key = [v for _, v in sorted(zip(keys, values.tolist()), key=lambda p: p[0]) if v == v]
        assert all(a <= b for a, b in zip(by_key, by_key[1:]))

    @settings(max_examples=120, deadline=None)
    @given(routed())
    @example((np.array([5] * 9 + [6], dtype=np.int64), np.array([5, 5, 5, 5, 5, 5, 5], dtype=np.int64)))
    @example((np.array([-1.7976931348623157e308, -2.0, -0.5, 0.5, 2.0, 1.7976931348623157e308]),
              np.array([-1.0, -0.0, 0.0, 1.0, 1.0, 3.0, 9.0])))
    # NaN values through the grid (64 cells for 3 cuts), and a NaN cut, which
    # no grid spans.
    @example((np.resize([np.nan, -np.inf, np.inf, 0.5, -0.0, 0.0, -1.0, 2.0], 200), np.array([-1.0, 0.0, 1.0])))
    @example((np.resize([np.nan, -np.inf, np.inf, 0.5, -0.0, 0.0, -1.0, 2.0], 200), np.array([-1.0, 0.0, np.nan])))
    def test_route_cuts_through_the_grid(self, case):
        """The grid's proposal, its one step and its verification: rows enough
        for the grid (16 cells a cut), compared in the dtype."""
        values, cuts = case
        compiled, reference = both(lambda: kernels.route_cuts(values, cuts).tolist())
        assert compiled == reference
        assert compiled == np.searchsorted(cuts, values, side="left").tolist()

    @settings(max_examples=200, deadline=None)
    @given(arrays(count=2))
    @example([np.array([2**53, 2**53 + 1, 2**53 + 2], dtype=np.int64),
              np.array([2**53, 2**53 + 1], dtype=np.int64)])
    @example([np.array([np.nan, -0.0, 0.0, np.inf, -np.inf]), np.array([-np.inf, 0.0, -0.0, np.nan])])
    @example([np.arange(5), np.empty(0, dtype=np.int64)])
    def test_route_cuts(self, pair):
        values, cuts = pair[0], np.sort(pair[1])
        compiled, reference = both(lambda: kernels.route_cuts(values, cuts).tolist())
        assert compiled == reference
        # Exact in the dtype (no float64 promotion of an int64 past 2**53),
        # in NumPy's order: a NaN value sorts after every number, not after a NaN cut.
        numbers = [c for c in cuts.tolist() if c == c]
        assert compiled == [
            sum(c < v for c in numbers) if v == v else len(numbers) for v in values.tolist()
        ]

    @pytest.mark.parametrize("bad", [-1, 4, 2**62])
    def test_scatter_rejects_ids_out_of_range_without_writing(self, kernel_backend, bad):
        values = np.arange(5)
        out = np.full(5, -7)
        with pytest.raises(IndexError):
            kernels.scatter(values, np.array([0, 1, bad, 2, 3]), 4, out)
        assert out.tolist() == [-7] * 5

    @settings(max_examples=150, deadline=None)
    @given(arrays(count=2))
    def test_merge_sorted(self, pair):
        a, b = np.sort(pair[0]), np.sort(pair[1])
        compiled, reference = both(lambda: bits(kernels.merge_sorted(a, b)))
        assert compiled == reference
        # What the engine did before: concatenate, then a stable sort.
        assert compiled == bits(np.sort(np.concatenate([a, b]), kind="stable"))

    def test_strided_and_foreign_dtypes_take_the_numpy_path(self):
        for array in (np.arange(40, dtype=np.int64)[::2], np.arange(20, dtype=np.int32)):
            expected = [v for v in array.tolist() if 3 <= v <= 11]
            for total, count in both(kernels.range_sum_count, array, 3, 11):
                assert (int(total), count) == (sum(expected), len(expected))


def test_partition_chunk_refuses_a_chunk_that_does_not_fit(kernel_backend):
    out = np.zeros(4, dtype=np.int64)
    for low_fill, high_fill in ((0, 5), (-1, 4), (2, 4)):
        with pytest.raises(ValueError):
            kernels.partition_chunk(np.arange(3), 1, out, low_fill, high_fill)
    with pytest.raises(ValueError):
        kernels.partition_chunk(np.arange(3.0), 1, out, 0, 4)
    assert not out.any()


def test_integer_pivots_and_bounds_are_exact_beyond_2_53(kernel_backend):
    """NumPy would promote an int64 column and a float bound to float64,
    where 2**53 and 2**53 + 1 are the same number; the seam does not."""
    values = np.array([2**53, 2**53 + 1, 2**53 + 2], dtype=np.int64)
    assert int(np.count_nonzero(values <= float(2**53))) == 2  # the promotion at work
    assert kernels.range_sum_count(values, float(2**53), float(2**53)) == (2**53, 1)
    assert kernels.range_sum_count(values, 2**53 + 1, np.inf) == (2**54 + 3, 2)
    assert kernels.range_sum_count(values, np.nan, np.inf) == (0, 0)
    assert kernels.range_sum_count(values, 7.5, 7.9) == (0, 0)
    working = np.array([3, 1, 2], dtype=np.int64)
    assert kernels.partition_swap(working, 1.5) == 1 and working[0] == 1
    assert kernels.partition_swap(working, np.inf) == 3
    assert kernels.partition_swap(working, -np.inf) == 0
    assert kernels.partition_swap(working, np.nan) == 0


# ----------------------------------------------------------------------
# The block codec's frame-of-reference pack / unpack
# ----------------------------------------------------------------------
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@requires_c
@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("ref", [0, -12345, INT64_MIN, INT64_MAX - 2**32 + 1, INT64_MAX - 200])
def test_pack_and_unpack_for_agree_on_both_backends(width, ref):
    rng = np.random.default_rng(width)
    span = min(2 ** (8 * width), INT64_MAX - ref + 1)
    for rows in (0, 1, 7, 4097):
        deltas = rng.integers(0, span, rows)
        if rows:
            deltas[0], deltas[-1] = 0, span - 1  # the block's min and max
        values = (deltas.astype(np.uint64) + np.uint64(ref % 2**64)).astype(np.int64)
        compiled, reference = both(kernels.pack_for, values, ref, width)
        assert compiled == reference and len(compiled) == rows * width
        for unpacked in both(kernels.unpack_for, compiled, width, rows, ref):
            assert unpacked.dtype == np.int64 and bits(unpacked) == bits(values)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_unpack_for_wraps_like_int64_addition(kernel_backend, width):
    """A reference near the top of int64 plus a full-width delta wraps modulo
    2**64 on both backends — what ``deltas.astype(int64) + ref`` always did."""
    top = 2 ** (8 * width) - 1
    payload = np.array([0, 1, top], dtype=f"<u{width}").tobytes()
    unpacked = kernels.unpack_for(payload, width, 3, INT64_MAX)
    assert unpacked.tolist() == [INT64_MAX, INT64_MIN, INT64_MIN + top - 1]
    strided = np.arange(10, dtype=np.int64)[::2]  # not contiguous: the NumPy path, same bytes
    assert kernels.pack_for(strided, 0, width) == kernels.pack_for(strided.copy(), 0, width)


def test_the_seam_rejects_a_payload_of_the_wrong_length_before_reading_it(kernel_backend):
    class Opaque:
        """Has a length and no buffer: reading it would be a TypeError."""

        def __init__(self, length):
            self.length = length

        def __len__(self):
            return self.length

    for length, width, count in ((7, 2, 4), (9, 2, 4), (0, 4, 1), (3, 3, 1)):
        with pytest.raises(ValueError):
            kernels.unpack_for(Opaque(length), width, count, 0)
    with pytest.raises(ValueError):
        kernels.unpack_for(b"\0" * 8, 2, -4, 0)
    with pytest.raises(ValueError):
        kernels.unpack_for(b"\0" * 8, 2, 4, 2**63)  # a reference no int64 holds
    with pytest.raises(ValueError):
        kernels.pack_for(np.arange(4.0), 0, 2)
    with pytest.raises(ValueError):
        kernels.pack_for(np.arange(4), 0, 8)
    assert kernels.unpack_for(b"", 4, 0, 5).size == 0


# ----------------------------------------------------------------------
# The grouped scatter of BucketSet
# ----------------------------------------------------------------------
class TestGroupedScatterEquivalence:
    """``BucketSet.scatter`` vs. a masked reference on the NumPy backend."""

    @staticmethod
    def scatter_masked(buckets: BucketSet, values, bucket_ids) -> None:
        """Reference scatter: one boolean mask per distinct bucket id."""
        for bucket_id in np.unique(bucket_ids):
            buckets[int(bucket_id)].append_array(values[bucket_ids == bucket_id])

    def assert_bucket_sets_identical(self, left: BucketSet, right: BucketSet):
        assert left.n_buckets == right.n_buckets
        for bucket_id in range(left.n_buckets):
            assert np.array_equal(
                left[bucket_id].to_array(), right[bucket_id].to_array()
            ), f"bucket {bucket_id} differs"

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_matches_masked_reference(self, dtype, rng):
        values = rng.integers(0, 10_000, size=5_000).astype(dtype)
        bucket_ids = rng.integers(0, 16, size=5_000)
        grouped = BucketSet(16, block_size=128, dtype=dtype)
        reference = BucketSet(16, block_size=128, dtype=dtype)
        # Split into uneven chunks: later pieces must keep their order.
        for start, stop in ((0, 700), (700, 701), (701, 3_000), (3_000, 5_000)):
            grouped.scatter(values[start:stop], bucket_ids[start:stop])
            on_backend("numpy", self.scatter_masked, reference,
                       values[start:stop], bucket_ids[start:stop])
        self.assert_bucket_sets_identical(grouped, reference)
        assert grouped.total_allocations() == reference.total_allocations()

    def test_preserves_within_bucket_order(self, rng):
        buckets = BucketSet(4, block_size=8)
        values = np.arange(100)
        buckets.scatter(values, values % 4)
        for bucket_id in range(4):
            expected = values[values % 4 == bucket_id]
            assert np.array_equal(buckets[bucket_id].to_array(), expected)

    def test_empty_and_single_element_chunks(self):
        buckets = BucketSet(4, block_size=8)
        buckets.scatter(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        buckets.scatter(np.array([42]), np.array([3]))
        assert len(buckets) == 1
        assert np.array_equal(buckets[3].to_array(), [42])

    def test_skewed_single_bucket_chunk(self, rng):
        buckets = BucketSet(8, block_size=64)
        values = rng.integers(0, 100, size=1_000)
        buckets.scatter(values, np.full(1_000, 5))
        assert np.array_equal(buckets[5].to_array(), values)
        assert all(len(buckets[i]) == 0 for i in range(8) if i != 5)

    def test_fanout_beyond_uint16_is_not_truncated(self, kernel_backend):
        # Narrowing the ids (the NumPy backend's fast path) must not wrap
        # them when the fan-out exceeds the narrow dtype's range.
        buckets = BucketSet(70_000, block_size=64)
        buckets.scatter(np.array([1, 2, 3]), np.array([0, 65_536, 69_999]))
        assert buckets[0].to_array().tolist() == [1]
        assert buckets[65_536].to_array().tolist() == [2]
        assert buckets[69_999].to_array().tolist() == [3]


# ----------------------------------------------------------------------
# Whole indexes: same δ in elements, same number of queries
# ----------------------------------------------------------------------
def drive_to_convergence(method: str, data: np.ndarray, cap: int = 400):
    session = IndexingSession(Table({"a": data}))
    index = session.create_index("a", method=method, fixed_delta=0.25)
    rng = np.random.default_rng(11)
    answers = []
    while not index.converged and len(answers) < cap:
        low = int(rng.integers(0, 90_000))
        result = session.between("a", low, low + 5_000)
        answers.append((int(result.count), int(result.value_sum)))
    assert index.converged
    return answers


@requires_c
@pytest.mark.parametrize("method", ["PQ", "PMSD", "PB", "PLSD"])
def test_fixed_delta_queries_to_converge_do_not_depend_on_the_backend(method):
    data = np.random.default_rng(3).integers(0, 100_000, size=30_000)
    compiled, reference = both(drive_to_convergence, method, data)
    assert len(compiled) == len(reference)
    assert compiled == reference


# ----------------------------------------------------------------------
# Resolution: no compiler, and a cold cache under contention
# ----------------------------------------------------------------------
PROBE = """
import json, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import numpy as np
    from repro import IndexingSession, Table, kernels
values = np.random.default_rng(5).integers(0, 1000, size=5000)
session = IndexingSession(Table({"a": values}))
session.create_index("a", method="PQ", fixed_delta=0.5)
answers = [int(session.between("a", low, low + 100).value_sum) for low in range(0, 900, 100)]
print(json.dumps({"info": kernels.info(), "answers": answers,
                  "warnings": [str(w.message) for w in caught if "repro.kernels" in str(w.message)]}))
"""


def spawn_probe(cache_dir, path=None) -> subprocess.Popen:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_dir),
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.Popen([sys.executable, "-c", PROBE], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(process: subprocess.Popen) -> dict:
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    return json.loads(stdout.splitlines()[-1])


def test_without_a_compiler_the_numpy_backend_answers_with_one_warning(tmp_path):
    empty_path = tmp_path / "bin"
    empty_path.mkdir()
    fallback = finish(spawn_probe(tmp_path / "cache", path=empty_path))
    assert fallback["info"] == {"backend": "numpy", "cache_path": None}
    assert len(fallback["warnings"]) == 1 and "NumPy backend" in fallback["warnings"][0]
    here = finish(spawn_probe(tmp_path / "cache"))
    assert here["answers"] == fallback["answers"]
    assert here["warnings"] == ([] if here["info"]["backend"] == "c" else fallback["warnings"])


@requires_c
def test_an_unwritable_cache_directory_falls_back_to_a_temporary_one(tmp_path):
    blocked = tmp_path / "a-file-not-a-directory"
    blocked.write_text("")
    report = finish(spawn_probe(blocked))
    assert report["info"]["backend"] == "c" and not report["warnings"]
    assert not report["info"]["cache_path"].startswith(str(tmp_path))
    assert not os.path.exists(report["info"]["cache_path"])  # private, removed at exit


@requires_c
def test_two_processes_racing_on_a_cold_cache_load_one_library(tmp_path):
    cache = tmp_path / "cold"
    racers = [spawn_probe(cache) for _ in range(2)]
    reports = [finish(racer) for racer in racers]
    assert [r["info"]["backend"] for r in reports] == ["c", "c"]
    assert reports[0]["info"]["cache_path"] == reports[1]["info"]["cache_path"]
    assert reports[0]["answers"] == reports[1]["answers"]
    assert not any(r["warnings"] for r in reports)
    # One published object, no half-written temporaries left beside it.
    assert os.listdir(cache / "repro-kernels") == [os.path.basename(reports[0]["info"]["cache_path"])]

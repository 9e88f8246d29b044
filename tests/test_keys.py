"""Property tests for the order-preserving key codecs and radix key spaces.

The codecs are the foundation of every radix construction kernel: if
``encode`` is not a strictly order-preserving bijection, the LSD/MSD final
arrays come out unsorted and every downstream binary search silently returns
garbage (the seed's PLSD float defect).  These tests pin the properties the
construction layer relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import FloatKeyCodec, IntKeyCodec, RadixKeySpace, codec_for


class TestCodecSelection:
    def test_int_dtypes_get_int_codec(self):
        assert isinstance(codec_for(np.int64), IntKeyCodec)
        assert isinstance(codec_for(np.int32), IntKeyCodec)
        assert isinstance(codec_for(np.uint8), IntKeyCodec)

    def test_float_dtype_gets_float_codec(self):
        assert isinstance(codec_for(np.float64), FloatKeyCodec)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(TypeError):
            codec_for(np.dtype("U8"))


class TestOrderPreservation:
    """``encode`` must order keys exactly like the values they encode."""

    def test_int_keys_sort_like_values(self, rng):
        values = rng.integers(-(2**62), 2**62, size=5_000)
        keys = codec_for(np.int64).encode(values)
        assert np.array_equal(values[np.argsort(keys, kind="stable")], np.sort(values))

    def test_float_keys_sort_like_values(self, rng):
        values = np.concatenate(
            [
                rng.normal(0.0, 1.0, size=2_000),
                rng.normal(0.0, 1e300, size=2_000),
                [0.0, -0.0, 1e-308, -1e-308, np.finfo(np.float64).max, -np.finfo(np.float64).max],
            ]
        )
        keys = codec_for(np.float64).encode(values)
        assert np.array_equal(values[np.argsort(keys, kind="stable")], np.sort(values))

    def test_float_keys_are_strictly_monotone(self):
        values = np.array([-np.inf, -1e300, -1.5, -1e-300, -0.0, 0.0, 1e-300, 1.5, 1e300, np.inf])
        keys = codec_for(np.float64).encode(values)
        # -0.0 and +0.0 are equal floats with one key (a predicate on either
        # matches both); everything else is strictly increasing.
        deltas = np.diff(keys.astype(object)).tolist()
        assert deltas[4] == 0
        assert all(delta >= 1 for delta in deltas[:4] + deltas[5:])
        assert codec_for(np.float64).encode_scalar(-0.0) == keys[5]

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(allow_nan=False, width=64),
        b=st.floats(allow_nan=False, width=64),
    )
    def test_float_scalar_comparisons_transfer(self, a, b):
        codec = FloatKeyCodec()
        if a < b:
            assert codec.encode_scalar(a) < codec.encode_scalar(b)
        elif a > b:
            assert codec.encode_scalar(a) > codec.encode_scalar(b)
        else:
            # Equal floats, -0.0 == 0.0 included, have one key.
            assert codec.encode_scalar(a) == codec.encode_scalar(b)


class TestScalarVectorAgreement:
    def test_float_scalar_matches_vector(self, rng):
        values = np.concatenate([rng.normal(0, 10, 50), [-0.0, 0.0, -1e300, 1e300]])
        codec = FloatKeyCodec()
        vector = codec.encode(values)
        for position, value in enumerate(values.tolist()):
            assert codec.encode_scalar(value) == int(vector[position])

    def test_int_scalar_matches_vector(self, rng):
        values = rng.integers(-(2**40), 2**40, size=50)
        codec = IntKeyCodec()
        vector = codec.encode(values)
        for position, value in enumerate(values.tolist()):
            assert codec.encode_scalar(value) == int(vector[position])

    def test_int_scalar_floors_fractional_bounds(self):
        codec = IntKeyCodec()
        assert codec.encode_scalar(5.5) == codec.encode_scalar(5)
        assert codec.encode_scalar(-5.5) == codec.encode_scalar(-6)


class TestRadixKeySpace:
    def test_paper_pass_count_formula(self):
        # 16-bit domain with 64 buckets: ceil(16 / 6) = 3 passes (Section 3.4).
        space = RadixKeySpace(0, 2**16 - 1, np.int64, bits_per_digit=6)
        assert space.n_digits == 3
        assert space.top_shift == 10

    def test_digits_reconstruct_relative_key(self, rng):
        space = RadixKeySpace(-500, 12_345, np.int64, bits_per_digit=6)
        values = rng.integers(-500, 12_346, size=1_000)
        reconstructed = np.zeros(values.size, dtype=object)
        for digit_number in range(space.n_digits):
            digit = space.digit(values, digit_number).astype(object)
            reconstructed += digit * (1 << (digit_number * space.bits_per_digit))
        expected = space.relative_keys(values)
        assert np.array_equal(reconstructed.astype(np.uint64), expected)

    def test_lsd_digit_sequence_sorts_any_dtype(self, rng):
        """A stable LSD pass per digit must produce a fully sorted array —
        the exact invariant Progressive Radixsort (LSD) relies on."""
        for values in (
            rng.integers(-10_000, 10_000, size=4_000),
            rng.normal(0.0, 1.0, size=4_000),
        ):
            space = RadixKeySpace(values.min(), values.max(), values.dtype, bits_per_digit=6)
            working = values.copy()
            for digit_number in range(space.n_digits):
                order = np.argsort(space.digit(working, digit_number), kind="stable")
                working = working[order]
            assert np.array_equal(working, np.sort(values))

    def test_scalar_digit_matches_vector_digit(self, rng):
        space = RadixKeySpace(-3.5, 3.5, np.float64, bits_per_digit=6)
        values = rng.uniform(-3.5, 3.5, size=64)
        for digit_number in (0, space.n_digits - 1):
            vector = space.digit(values, digit_number)
            for position, value in enumerate(values.tolist()):
                assert space.digit_scalar(value, digit_number) == int(vector[position])

    def test_relative_key_clamps_out_of_domain_bounds(self):
        space = RadixKeySpace(0, 1_000, np.int64, bits_per_digit=6)
        assert space.relative_key(-50) == 0
        assert space.relative_key(2_000) == space.domain
        assert space.relative_key(500) == 500

    def test_single_value_domain(self):
        space = RadixKeySpace(9, 9, np.int64, bits_per_digit=6)
        assert space.n_digits == 1
        assert np.array_equal(space.digit(np.full(10, 9), 0), np.zeros(10, dtype=np.int64))

    def test_inverted_domain_rejected(self):
        with pytest.raises(ValueError):
            RadixKeySpace(10, 0, np.int64, bits_per_digit=6)

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            RadixKeySpace(0, 10, np.int64, bits_per_digit=0)

"""The radix seam: ``radix_histogram`` and ``scatter_cursor``, on both backends.

Every available backend is diffed against a pure-Python reference — on the
counts, on the output array (as bits) and on the advanced cursors — so the
compiled and the NumPy backend agree with each other by construction.  The
digit is taken from the order key (``kernels.order_keys``), so the edges that
matter are the key edges: int64 at ±2**63, float64 ±0.0, subnormals, NaN and
±inf; shift 0 and the top digit; empty input.  ``test_oracles_numpy_backend``
collects this module once more with the NumPy backend pinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels

EDGES = {
    np.int64: [-(2**63), -(2**63) + 1, -1, 0, 1, 63, 64, 2**62, 2**63 - 2, 2**63 - 1],
    np.float64: [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                 1.0, -1.0, float("inf"), float("-inf"), float("nan"), 1.7976931348623157e308],
}
#: (shift, mask) pairs: shift 0, the top digit of a 64-bit key, and between.
DIGITS = [(0, 1), (0, 63), (6, 63), (58, 63), (60, 15), (63, 1), (12, 255), (3, 4095)]


def backends() -> list:
    return ["c", "numpy"] if kernels.info()["cache_path"] is not None else ["numpy"]


def on_backend(name, call, *args):
    previous = kernels.use_backend(name)
    try:
        return call(*args)
    finally:
        kernels.use_backend(previous)


def bits(array) -> list:
    return np.ascontiguousarray(array).view(np.uint64).tolist()


def digits_of(values, base: int, shift: int, mask: int) -> list:
    """The reference digits, in Python integers."""
    return [((key - base) % 2**64 >> shift) & mask for key in kernels.order_keys(values).tolist()]


@st.composite
def radix_cases(draw, max_size=90):
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    if dtype is np.int64:
        wild = st.integers(-(2**63), 2**63 - 1)
    else:
        wild = st.floats(allow_nan=True, allow_infinity=True, width=64)
    element = st.one_of(st.sampled_from(EDGES[dtype]), wild)
    values = np.array(draw(st.lists(element, max_size=max_size)), dtype=dtype)
    shift, mask = draw(st.sampled_from(DIGITS))
    base = draw(st.one_of(st.just(0), st.just(2**63), st.integers(0, 2**64 - 1)))
    return values, base, shift, mask


@settings(max_examples=150, deadline=None)
@given(radix_cases(), st.integers(0, 3))
@example((np.empty(0, dtype=np.int64), 0, 0, 63), 0)
@example((np.array([-(2**63), 2**63 - 1, 0, -1]), 2**63, 58, 63), 1)
@example((np.array([-0.0, 0.0, 5e-324, -5e-324, -0.0]), 2**63, 0, 1), 2)
def test_radix_histogram_counts_the_digits(case, start):
    values, base, shift, mask = case
    expected = [start] * (mask + 1)
    for digit in digits_of(values, base, shift, mask):
        expected[digit] += 1
    for backend in backends():
        counts = np.full(mask + 1, start, dtype=np.int64)  # added to, not overwritten
        returned = on_backend(backend, kernels.radix_histogram, values, base, shift, mask, counts)
        assert returned is counts and counts.tolist() == expected, backend


@settings(max_examples=150, deadline=None)
@given(radix_cases(), st.integers(0, 100), st.integers(0, 2**32))
@example((np.empty(0, dtype=np.float64), 0, 0, 1), 0, 0)
@example((np.array([2**63 - 1, -(2**63), 5, -(2**63)]), 2**63, 63, 1), 2, 1)
@example((np.array([-0.0, 0.0, -5e-324, 5e-324, np.nan, -np.inf]), 0, 0, 63), 3, 2)
def test_scatter_cursor_writes_each_digit_in_input_order(case, split, seed):
    values, base, shift, mask = case
    split = min(split, values.size)
    # One region per digit: an already filled head, room for the digit's
    # values, and slack after them.
    digits = digits_of(values, base, shift, mask)
    counts = np.bincount(np.array(digits, dtype=np.int64), minlength=mask + 1)
    head, slack = np.random.default_rng(seed).integers(0, 3, (2, mask + 1))
    limits = np.cumsum(head + counts + slack)
    cursors = limits - slack - counts
    size = int(limits[-1])
    expected_out = [7] * size
    expected_cursors = cursors.tolist()
    for value, digit in zip(bits(values), digits):
        expected_out[expected_cursors[digit]] = value
        expected_cursors[digit] += 1

    def run():
        out = np.full(size, 7, dtype=np.uint64).view(values.dtype)
        moving = cursors.copy()
        # Two calls: the cursors live across them.
        for chunk in (values[:split], values[split:]):
            kernels.scatter_cursor(chunk, base, shift, mask, moving, limits, out)
        return bits(out), moving.tolist()

    for backend in backends():
        assert on_backend(backend, run) == (expected_out, expected_cursors), backend


@pytest.mark.parametrize("values", [np.arange(-6, 30, 3), np.linspace(-3.0, 5.0, 17)], ids=["int64", "float64"])
def test_scatter_cursor_refuses_what_does_not_fit(values):
    base, shift, mask = 2**63, 60, 15
    digits = digits_of(values, base, shift, mask)
    counts = np.bincount(digits, minlength=mask + 1)
    starts = np.concatenate([[0], np.cumsum(counts)])
    outcomes = []
    for backend in backends():
        out = np.zeros(values.size, dtype=values.dtype)
        cursors, limits = starts[:-1].copy(), starts[1:].copy()
        limits[digits[0]] -= 1  # one slot too few for the first value's digit
        with pytest.raises(ValueError, match="overflow"):
            on_backend(backend, kernels.scatter_cursor, values, base, shift, mask, cursors, limits, out)
        assert cursors.tolist() == limits.tolist()  # every region filled up to its end
        outcomes.append((bits(out), cursors.tolist()))
        negative = starts[:-1].copy()
        negative[0] = -1
        for cursors, limits in ((negative, starts[1:]), (starts[:-1], starts[1:] + 1)):
            untouched = np.full(values.size, 5, dtype=values.dtype)
            moving = cursors.copy()
            with pytest.raises(ValueError, match="negative"):
                on_backend(backend, kernels.scatter_cursor, values, base, shift, mask, moving, limits, untouched)
            assert (untouched == 5).all() and moving.tolist() == cursors.tolist()
    assert all(outcome == outcomes[0] for outcome in outcomes)

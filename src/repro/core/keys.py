"""Order-preserving key codecs and radix key spaces.

Every construction kernel that clusters by *bits* — the LSD/MSD radix passes,
their per-pass bucket routing and the point-query bucket lookups — must agree
on a single, totally ordered integer key space.  The seed implementation
derived radix keys by truncating values to integers, which silently destroys
the order of floating-point fractional parts (the ROADMAP's long-standing
"PLSD float columns are broken" defect).  This module provides the shared fix:

* :class:`IntKeyCodec` — ``int64`` values biased into ``uint64`` by flipping
  the sign bit (adding ``2^63``), an order-preserving bijection;
* :class:`FloatKeyCodec` — the classic IEEE-754 monotone bit-pattern
  transform: the raw ``float64`` bits with the sign bit flipped for
  non-negative values and *all* bits flipped for negative values.  The
  resulting ``uint64`` keys sort exactly like the floats they encode, and
  ``-0.0`` gets the key of ``+0.0`` (the two compare equal, so a predicate
  on one matches both);
* :class:`RadixKeySpace` — a codec anchored to a column's ``[min, max]``
  domain, exposing dtype-aware radix-digit extraction for both vectors and
  scalars.  All digits are taken from the *biased* key ``encode(v) -
  encode(min)``, so the number of passes for integer columns is identical to
  the seed's ``(max - min)`` formulation while float columns get exact
  64-bit ordering.

All vector maths stays in ``uint64`` (no signed overflow possible: biased
keys are non-negative and subtraction of the domain minimum is exact);
scalars are plain Python integers.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

#: Bias turning an ``int64`` into an order-preserving ``uint64``.
_SIGN_BIT = 1 << 63

#: Largest encodable key.
_KEY_MASK = (1 << 64) - 1


class IntKeyCodec:
    """Order-preserving ``int64 -> uint64`` codec (sign-bit bias).

    ``encode`` is the bijection ``v -> v + 2^63`` (as 64-bit wrap-around),
    which maps the signed range monotonically onto ``[0, 2^64)``.
    """

    dtype = np.dtype(np.int64)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Vector of ``uint64`` keys ordered exactly like ``values``."""
        return kernels.order_keys(np.asarray(values, dtype=np.int64))

    def encode_scalar(self, value) -> int:
        """Key of a single (possibly fractional) bound as a Python int.

        Non-integral bounds are floored, which keeps the mapping monotone —
        exactly what bucket-range routing needs: any value ``v >= bound``
        satisfies ``encode(v) >= encode_scalar(bound)`` and any integer
        ``v <= bound`` satisfies ``encode(v) <= encode_scalar(bound)``.
        """
        key = int(np.floor(value)) + _SIGN_BIT
        return min(max(key, 0), _KEY_MASK)


class FloatKeyCodec:
    """Order-preserving ``float64 -> uint64`` codec (IEEE-754 bit trick)."""

    dtype = np.dtype(np.float64)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Vector of ``uint64`` keys ordered exactly like ``values``."""
        return kernels.order_keys(np.ascontiguousarray(values, dtype=np.float64))

    def encode_scalar(self, value) -> int:
        """Key of a single bound as a Python int (exact, no rounding)."""
        bits = int(np.float64(value + 0.0).view(np.uint64))
        if bits >> 63:
            return _KEY_MASK ^ bits
        return bits ^ _SIGN_BIT


def codec_for(dtype) -> "IntKeyCodec | FloatKeyCodec":
    """The order-preserving codec for a column dtype."""
    dtype = np.dtype(dtype)
    if dtype.kind in ("i", "u", "b"):
        return IntKeyCodec()
    if dtype.kind == "f":
        return FloatKeyCodec()
    raise TypeError(f"no order-preserving key codec for dtype {dtype}")


class RadixKeySpace:
    """Radix key space anchored to a column's value domain.

    Parameters
    ----------
    column_min, column_max:
        Value domain of the column (inclusive).
    dtype:
        Column dtype; selects the codec.
    bits_per_digit:
        ``log2`` of the radix fan-out ``b``.

    Attributes
    ----------
    total_bits:
        Number of significant bits of ``encode(max) - encode(min)``; the
        paper's ``log2(max - min)`` generalised to any encodable dtype.
    n_digits:
        Number of radix passes required to fully order the domain
        (``ceil(total_bits / bits_per_digit)``).
    """

    def __init__(self, column_min, column_max, dtype, bits_per_digit: int) -> None:
        if bits_per_digit < 1:
            raise ValueError(f"bits_per_digit must be positive, got {bits_per_digit}")
        self.codec = codec_for(dtype)
        self.bits_per_digit = int(bits_per_digit)
        self.key_min = self.codec.encode_scalar(column_min)
        self.key_max = self.codec.encode_scalar(column_max)
        if self.key_max < self.key_min:
            raise ValueError(f"invalid domain [{column_min!r}, {column_max!r}]")
        self.domain = self.key_max - self.key_min
        self.total_bits = max(1, self.domain.bit_length())
        self.n_digits = -(-self.total_bits // self.bits_per_digit)
        self._digit_mask = (1 << self.bits_per_digit) - 1

    # ------------------------------------------------------------------
    @property
    def top_shift(self) -> int:
        """Shift selecting the most significant digit (MSD bucket routing)."""
        return max(0, self.total_bits - self.bits_per_digit)

    def relative_keys(self, values: np.ndarray) -> np.ndarray:
        """Biased keys ``encode(values) - encode(min)`` as ``uint64``."""
        return self.codec.encode(values) - np.uint64(self.key_min)

    def relative_key(self, value) -> int:
        """Biased key of a scalar bound, clamped into ``[0, domain]``.

        Clamping keeps out-of-domain predicate bounds routable: the bucket
        scans re-check actual values, so an overapproximated bucket is safe.
        """
        key = self.codec.encode_scalar(value) - self.key_min
        return min(max(key, 0), self.domain)

    # ------------------------------------------------------------------
    def digit(self, values: np.ndarray, digit_number: int) -> np.ndarray:
        """The ``digit_number``-th radix digit (LSD order) of every value.

        Returns an ``int64`` vector in ``[0, 2^bits_per_digit)`` suitable for
        bucket indexing and ``np.bincount``.
        """
        shift = np.uint64(digit_number * self.bits_per_digit)
        digits = (self.relative_keys(values) >> shift) & np.uint64(self._digit_mask)
        return digits.astype(np.int64)

    def digit_scalar(self, value, digit_number: int) -> int:
        """The ``digit_number``-th radix digit of one (clamped) bound."""
        return (self.relative_key(value) >> (digit_number * self.bits_per_digit)) & self._digit_mask

    def shifted(self, values: np.ndarray, shift: int) -> np.ndarray:
        """Biased keys right-shifted by ``shift`` bits (MSD node routing)."""
        return (self.relative_keys(values) >> np.uint64(shift)).astype(np.int64)

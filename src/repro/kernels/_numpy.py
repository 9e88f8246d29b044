"""The NumPy backend: the boolean-mask pipelines the engine always ran.

Mandatory — it is what runs without a C compiler — and the oracle the
compiled backend is diffed against.  Bounds and pivots arrive already in the
array's own type (see :mod:`repro.kernels`, which documents each function).
"""

from __future__ import annotations

import numpy as np

name = "numpy"

_SIGN_BIT = np.uint64(1 << 63)

#: Grid cells per bound of :func:`route_bounds`.
GRID_CELLS_PER_BOUND = 16


def partition_chunk(src, pivot, out, low_fill: int, high_fill: int) -> int:
    mask = src < pivot
    lows = src[mask]
    highs = src[~mask]
    out[low_fill : low_fill + lows.size] = lows
    out[high_fill - highs.size : high_fill] = highs
    return int(lows.size)


def partition_swap(values, pivot) -> int:
    mask = values < pivot
    boundary = int(np.count_nonzero(mask))
    misplaced_low = np.flatnonzero(~mask[:boundary])
    if misplaced_low.size:
        misplaced_high = boundary + np.flatnonzero(mask[boundary:])
        stash = values[misplaced_low]
        values[misplaced_low] = values[misplaced_high]
        values[misplaced_high] = stash
    return boundary


def range_sum_count(values, low, high):
    mask = (values >= low) & (values <= high)
    count = int(np.count_nonzero(mask))
    if count == 0:
        return values.dtype.type(0), 0
    return values[mask].sum(), count


def scatter(values, ids, n_buckets: int, out):
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= n_buckets):
        raise IndexError(f"bucket id outside [0, {n_buckets})")
    # A stable argsort of integer keys is a radix sort whose pass count
    # follows the key width: one- or two-byte ids group ~8x faster.
    if n_buckets <= 65536:
        ids = ids.astype(np.uint8 if n_buckets <= 256 else np.uint16)
    np.take(values, np.argsort(ids, kind="stable"), out=out, mode="clip")
    counts = np.bincount(ids, minlength=n_buckets)
    return counts, np.cumsum(counts)


def minmax(values):
    low, high = values.min(), values.max()
    if values.dtype.kind == "f":
        return low + 0.0, high + 0.0
    return low, high


def order_keys(values):
    """Order-preserving ``uint64`` keys of an int64 or float64 array: the
    sign-bit bias, and the IEEE-754 monotone bit pattern (``core/keys.py``)
    of the values plus zero, so that ``-0.0`` has the key of ``+0.0``."""
    if values.dtype.kind == "f":
        bits = (values + 0.0).view(np.uint64)
        return np.where(bits >> np.uint64(63) == np.uint64(1), ~bits, bits ^ _SIGN_BIT)
    return values.astype(np.uint64) ^ _SIGN_BIT


def _digits(values, base: int, shift: int, mask: int):
    """Every value's radix digit, in the narrowest dtype that holds it (a
    stable argsort of one- or two-byte keys takes fewer radix passes)."""
    digits = ((order_keys(values) - np.uint64(base)) >> np.uint64(shift)) & np.uint64(mask)
    return digits.astype(np.uint8 if mask < 256 else np.uint16 if mask < 65536 else np.int64)


def radix_histogram(values, base: int, shift: int, mask: int, counts) -> None:
    counts += np.bincount(_digits(values, base, shift, mask), minlength=mask + 1)


def scatter_cursor(values, base: int, shift: int, mask: int, cursors, limits, out) -> int:
    if (cursors < 0).any() or (limits > out.size).any():
        return -1
    digits = _digits(values, base, shift, mask)
    order = np.argsort(digits, kind="stable")
    grouped = digits[order]
    counts = np.bincount(digits, minlength=mask + 1)
    # The k-th value of digit d goes to cursors[d] + k while that is below limits[d].
    rank = np.arange(values.size) - (np.cumsum(counts) - counts)[grouped]
    room = np.clip(limits - cursors, 0, counts)
    fits = rank < room[grouped]
    out[(cursors[grouped] + rank)[fits]] = values[order[fits]]
    cursors += room
    return int(values.size - room.sum())


def route_cuts(values, cuts):
    return np.searchsorted(cuts, values, side="left").astype(np.int64, copy=False)


def route_bounds(values, bounds):
    # On random data every probe of np.searchsorted is a mispredicted branch,
    # so a uniform grid over the bounds' domain proposes each value's bucket
    # with one multiply and one gather; the proposal is verified exactly
    # against the neighbouring bounds, and only the values that fail — those
    # in cells straddling a bound — take the binary search.
    span = float(bounds[-1]) - float(bounds[0]) if bounds.size else 0.0  # inf - inf: NaN
    if not 0 < span < np.inf:
        return np.searchsorted(bounds, values, side="right")
    n_cells = GRID_CELLS_PER_BOUND * (bounds.size + 1)
    scale = n_cells / span
    low = float(bounds[0])
    cell_bucket = np.searchsorted(bounds, low + np.arange(n_cells) / scale, side="right")
    padded = np.concatenate([[-np.inf], bounds, [np.inf]])
    with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf cells fail the verification
        cells = ((values - low) * scale).astype(np.int64)
    ids = cell_bucket[np.clip(cells, 0, n_cells - 1, out=cells)]
    misses = np.flatnonzero(~((padded[ids] <= values) & (values < padded[ids + 1])))
    if misses.size:
        ids[misses] = np.searchsorted(bounds, values[misses], side="right")
    return ids


def merge_sorted(a, b):
    return np.insert(a, np.searchsorted(a, b, side="right"), b)


def pack_for(values, ref: int, width: int) -> bytes:
    deltas = (values.astype(np.int64) - np.int64(ref)).astype(np.uint64)
    return deltas.astype(np.dtype(f"<u{width}")).tobytes()


def unpack_for(payload, width: int, count: int, ref: int):
    deltas = np.frombuffer(payload, dtype=np.dtype(f"<u{width}"), count=count)
    return deltas.astype(np.int64) + np.int64(ref)

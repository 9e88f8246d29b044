"""The NumPy backend: the boolean-mask pipelines the engine always ran.

Mandatory — it is what runs without a C compiler — and the oracle the
compiled backend is diffed against.  Bounds and pivots arrive already in the
array's own type (see :mod:`repro.kernels`, which documents each function).
"""

from __future__ import annotations

import numpy as np

name = "numpy"

_SIGN_BIT = np.uint64(1 << 63)

#: Grid cells per cut of :func:`route_cuts`.
GRID_CELLS_PER_CUT = 16


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


def grid_cells(n_values: int, n_cuts: int) -> int:
    """Cells of :func:`route_cuts`' grid; 0 (no grid) for fewer than two cuts
    or fewer values than cells, where one binary search each is cheaper."""
    cells = GRID_CELLS_PER_CUT * (n_cuts + 1)
    return cells if n_cuts > 1 and n_values >= cells else 0


def route_cuts(values, cuts):
    # On random data every probe of np.searchsorted is a mispredicted branch,
    # so a uniform grid over the cuts' domain (its last cell takes every value
    # above the last cut) proposes each value's id with one multiply and one
    # gather, and the proposal is verified in the dtype against the
    # neighbouring cuts, padded with the dtype's extremes.  The grid
    # arithmetic rounds harmlessly; the values that fail (those in cells that
    # hold a cut, a NaN, an extreme) take the binary search.
    n_cells = grid_cells(values.size, cuts.size)
    span = float(cuts[-1]) - float(cuts[0]) if n_cells and values.dtype == cuts.dtype else 0.0
    if not 0 < span < np.inf or cuts.dtype.kind not in "iuf":  # NaN fails too
        return np.searchsorted(cuts, values, side="left").astype(np.int64, copy=False)
    grid, low = n_cells - 1, float(cuts[0])
    scale = grid / span * (1 - 2.0**-40)  # the last cut lands below the last cell
    cell_id = np.searchsorted(cuts.astype(np.float64), low + np.arange(n_cells) / scale, side="left")
    cell_id[grid] = cuts.size
    padded = np.empty(cuts.size + 2, dtype=cuts.dtype)
    limits = np.iinfo(cuts.dtype) if cuts.dtype.kind in "iu" else None
    padded[0], padded[1:-1], padded[-1] = (limits.min, cuts, limits.max) if limits else (-np.inf, cuts, np.inf)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf cells fail the verification
        cells = ((values - low) * scale).astype(np.int64)
    ids = cell_id[np.clip(cells, 0, grid, out=cells)]
    misses = np.flatnonzero(~((padded[ids] < values) & (values <= padded[ids + 1])))
    if misses.size:
        ids[misses] = np.searchsorted(cuts, values[misses], side="left")
    return ids


def merge_sorted(a, b):
    return np.insert(a, np.searchsorted(a, b, side="right"), b)


def pack_for(values, ref: int, width: int) -> bytes:
    deltas = (values.astype(np.int64) - np.int64(ref)).astype(np.uint64)
    return deltas.astype(np.dtype(f"<u{width}")).tobytes()


def unpack_for(payload, width: int, count: int, ref: int):
    deltas = np.frombuffer(payload, dtype=np.dtype(f"<u{width}"), count=count)
    return deltas.astype(np.int64) + np.int64(ref)

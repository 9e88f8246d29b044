"""Vectorized zone-map primitives shared by shard routing and imprints.

A *zone map* summarises a region of a column (a shard, or a cache-line
block) with statistics a range query can test without touching the data:

* **interval bounds** — the region's ``[min, max]``: a query ``[low, high]``
  can skip the region iff the intervals do not intersect;
* **bin occupancy bitmaps** — the column domain is cut into up to 64
  equi-width bins and each region stores one ``uint64`` with a bit per bin
  that occurs in it (column imprints, Sidirourgos & Kersten, SIGMOD 2013).
  A query can skip every region whose bitmap does not intersect the bins
  the query range covers, which prunes *inside* the interval bounds when
  the region's values are clustered.

Everything here is a pure NumPy function over arrays of region summaries —
one code path serves the per-shard router (:mod:`repro.shard.router`) and
the per-block pruning of
:class:`~repro.extensions.column_imprints.ProgressiveColumnImprints`.
All bitmap math stays in ``uint64``; bins are clamped to ``[0, 63]``.
"""

from __future__ import annotations

import numpy as np

#: Maximum number of bins a bitmap zone map may use (one bit per bin).
MAX_BINS = 64

#: All 64 bits set.
_FULL_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def bin_edges(low: float, high: float, n_bins: int) -> np.ndarray:
    """Internal edges of ``n_bins`` equi-width bins over ``[low, high]``.

    Returns ``n_bins - 1`` edges; values below the first edge fall in bin
    0, values past the last edge in bin ``n_bins - 1``, so out-of-domain
    values (e.g. later inserts) clamp into the boundary bins instead of
    overflowing the bitmap.
    """
    if not 2 <= n_bins <= MAX_BINS:
        raise ValueError(f"n_bins must be within [2, {MAX_BINS}], got {n_bins}")
    low = float(low)
    high = float(high)
    if high <= low:
        high = low + 1.0
    return np.linspace(low, high, n_bins + 1)[1:-1]


def bins_of(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bin number of every value (``0 .. len(edges)``), vectorized."""
    return np.searchsorted(edges, values, side="right")


def bin_range_bitmap(low_bin: int, high_bin: int) -> np.uint64:
    """Bitmap with bits ``low_bin .. high_bin`` (inclusive) set, closed form.

    Replaces the per-bin Python loop: the contiguous run of bits is two
    mask subtractions computed in Python integers and cast once.
    """
    low_bin = max(0, int(low_bin))
    high_bin = min(MAX_BINS - 1, int(high_bin))
    if high_bin < low_bin:
        return np.uint64(0)
    if high_bin >= MAX_BINS - 1:
        high_mask = _FULL_MASK
    else:
        high_mask = np.uint64((1 << (high_bin + 1)) - 1)
    return high_mask & ~np.uint64((1 << low_bin) - 1)


def query_bitmap(edges: np.ndarray, low, high) -> np.uint64:
    """Bitmap of every bin a range query ``[low, high]`` intersects."""
    bounds = bins_of(edges, np.asarray([low, high], dtype=np.float64))
    return bin_range_bitmap(int(bounds[0]), int(bounds[1]))


def occupancy_bitmap(edges: np.ndarray, values: np.ndarray) -> np.uint64:
    """Bitmap of every bin occurring in ``values`` (empty input → 0)."""
    values = np.asarray(values)
    if values.size == 0:
        return np.uint64(0)
    bins = bins_of(edges, values).astype(np.uint64, copy=False)
    return np.bitwise_or.reduce(np.left_shift(np.uint64(1), bins))


def occupancy_bitmaps(edges: np.ndarray, values: np.ndarray, block_elements: int) -> np.ndarray:
    """Per-block occupancy bitmaps of ``values``, vectorized over full blocks.

    The trailing partial block (if any) gets its own bitmap.  Returns a
    ``(ceil(len(values) / block_elements),)`` ``uint64`` array.
    """
    values = np.asarray(values)
    n = values.size
    block_elements = int(block_elements)
    n_full = n // block_elements
    n_blocks = -(-n // block_elements)
    bitmaps = np.zeros(n_blocks, dtype=np.uint64)
    if n_full:
        bins = bins_of(edges, values[: n_full * block_elements])
        bits = np.left_shift(
            np.uint64(1), bins.astype(np.uint64).reshape(n_full, block_elements)
        )
        bitmaps[:n_full] = np.bitwise_or.reduce(bits, axis=1)
    if n_blocks > n_full:
        bitmaps[n_full] = occupancy_bitmap(edges, values[n_full * block_elements :])
    return bitmaps


def bitmap_candidates(bitmaps: np.ndarray, query: np.uint64) -> np.ndarray:
    """Indices of the regions whose occupancy bitmap intersects ``query``."""
    return np.flatnonzero(np.asarray(bitmaps, dtype=np.uint64) & np.uint64(query))


def interval_overlap_matrix(
    mins: np.ndarray, maxs: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """Boolean ``(n_queries, n_regions)`` intersection matrix for a batch."""
    lows = np.asarray(lows)[:, None]
    highs = np.asarray(highs)[:, None]
    return (np.asarray(maxs)[None, :] >= lows) & (np.asarray(mins)[None, :] <= highs)

"""Lazy, chunk-addressable array views for out-of-core columns.

The out-of-core substrate replaces "the base is a big ``np.ndarray``" with
"the base is *array-like*": either a real ndarray (possibly an ``np.memmap``
over a column file) or a :class:`LazyArray` that materializes only the rows
a read actually touches.  Two lazy shapes exist:

* :class:`~repro.persist.compress.PagedArray` — a compressed column file
  decompressed one block at a time through a shared
  :class:`~repro.persist.compress.BlockCache`;
* :class:`ChainArray` (here) — a lazy concatenation of parts, used by
  :class:`~repro.storage.column.Column` snapshots so a written-to mapped
  column exposes ``base ⧺ inserts`` without copying the base into RAM.

Every consumer that only needs *bounded* pieces (chunked scans, the
streaming construction kernels, slice reads) stays bounded; anything that
genuinely needs the whole array (``copy_data`` for cracking,
``np.asarray``) still works via :meth:`LazyArray.__array__`, it just pays
the materialization it asks for.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro import kernels

#: Default number of rows per streamed chunk when no budget says otherwise.
DEFAULT_CHUNK_ROWS = 1 << 18


def is_lazy(array) -> bool:
    """Whether ``array`` is a lazy view rather than a real ndarray."""
    return isinstance(array, LazyArray)


class LazyArray:
    """Abstract 1-D read-only array-like with chunked access.

    Subclasses implement :meth:`_read` (contiguous row range → ndarray) and
    may override :meth:`take`, :meth:`min` and :meth:`max` with cheaper
    paths.  The base class provides slicing, iteration, NumPy interop and
    chunk streaming on top.
    """

    dtype: np.dtype
    size: int
    #: Rows per storage block of an array that is read block-wise
    #: (:class:`~repro.persist.compress.PagedArray`): chunk streams keep to
    #: that grid.
    block_rows: int | None = None

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int]:
        return (self.size,)

    @property
    def ndim(self) -> int:
        return 1

    @property
    def nbytes(self) -> int:
        """Logical (decompressed) payload size."""
        return int(self.size) * self.dtype.itemsize

    def __len__(self) -> int:
        return int(self.size)

    # ------------------------------------------------------------------
    def _read(self, start: int, stop: int) -> np.ndarray:
        """Materialize rows ``[start, stop)`` (contiguous)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __getitem__(self, item):
        if isinstance(item, (int, np.integer)):
            index = int(item)
            if index < 0:
                index += self.size
            if not 0 <= index < self.size:
                raise IndexError(f"index {item} out of range for size {self.size}")
            return self._read(index, index + 1)[0]
        if isinstance(item, slice):
            start, stop, step = item.indices(self.size)
            if step == 1:
                if stop <= start:
                    return np.empty(0, dtype=self.dtype)
                return self._read(start, stop)
            return self.take(np.arange(start, stop, step, dtype=np.int64))
        indices = np.asarray(item)
        if indices.dtype == bool:
            if indices.size != self.size:
                raise IndexError("boolean mask length does not match array size")
            return self.take(np.flatnonzero(indices))
        return self.take(indices.astype(np.int64, copy=False))

    def __iter__(self) -> Iterator:
        for _, chunk in self.iter_chunks():
            yield from chunk

    def __array__(self, dtype=None, copy=None):
        array = self.materialize()
        if dtype is not None and np.dtype(dtype) != array.dtype:
            array = array.astype(dtype)
        return array

    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> np.ndarray:
        """Gather arbitrary rows; the default reads chunk-grouped ranges."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.empty(0, dtype=self.dtype)
        if indices.size and (indices.min() < 0 or indices.max() >= self.size):
            raise IndexError("gather index out of range")
        out = np.empty(indices.size, dtype=self.dtype)
        order = np.argsort(indices, kind="stable")
        sorted_idx = indices[order]
        span = DEFAULT_CHUNK_ROWS
        pos = 0
        while pos < sorted_idx.size:
            lo = int(sorted_idx[pos])
            chunk_start = (lo // span) * span
            chunk_stop = min(chunk_start + span, self.size)
            end = int(np.searchsorted(sorted_idx, chunk_stop, side="left"))
            chunk = self._read(chunk_start, chunk_stop)
            out[order[pos:end]] = chunk[sorted_idx[pos:end] - chunk_start]
            pos = end
        return out

    def materialize(self) -> np.ndarray:
        """Materialize the full array (callers opt into the O(N) copy)."""
        if self.size == 0:
            return np.empty(0, dtype=self.dtype)
        return self._read(0, self.size)

    def iter_chunks(
        self,
        chunk_rows: int | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(offset, values)`` over rows ``[start, stop)``.

        On a block grid a chunk crosses a block edge only when it is whole
        blocks — from an unaligned offset it ends at the next edge — so a
        stream settles on the grid and a chunk within one block can be a view
        of that block instead of a copy assembled from two.
        """
        span = int(chunk_rows or DEFAULT_CHUNK_ROWS)
        stop = self.size if stop is None else min(int(stop), self.size)
        cursor = max(0, int(start))
        grid = self.block_rows
        while cursor < stop:
            upto = min(cursor + span, stop)
            if grid and cursor % grid + upto - cursor > grid:
                into = cursor % grid
                upto = cursor + (grid - into if into else (upto - cursor) // grid * grid)
            yield cursor, self._read(cursor, upto)
            cursor = upto

    # ------------------------------------------------------------------
    def min(self):
        """Smallest value (streamed; subclasses may answer from metadata)."""
        best = None
        for _, chunk in self.iter_chunks():
            low = chunk.min()
            best = low if best is None else min(best, low)
        if best is None:
            raise ValueError("min() of an empty lazy array")
        return best

    def max(self):
        """Largest value (streamed; subclasses may answer from metadata)."""
        best = None
        for _, chunk in self.iter_chunks():
            high = chunk.max()
            best = high if best is None else max(best, high)
        if best is None:
            raise ValueError("max() of an empty lazy array")
        return best

    def copy(self) -> np.ndarray:
        """Writable materialized copy (mirrors ``ndarray.copy``)."""
        return self.materialize()

    def setflags(self, write: bool = False) -> None:
        """No-op: lazy arrays are read-only by construction."""
        if write:
            raise ValueError("lazy arrays are read-only")


class ChainArray(LazyArray):
    """Lazy concatenation of array-like parts (ndarrays or lazy arrays).

    A snapshot of a written-to mapped column is ``ChainArray([base_memmap,
    frozen_inserts])`` — the base stays on disk, only the (small) insert
    tail is resident.  Reads spanning the seam are assembled on the fly.
    """

    def __init__(self, parts: Sequence) -> None:
        kept = [part for part in parts if len(part)]
        if not kept:
            raise ValueError("ChainArray needs at least one non-empty part")
        dtypes = {np.dtype(part.dtype) for part in kept}
        if len(dtypes) != 1:
            raise ValueError(f"ChainArray parts disagree on dtype: {dtypes}")
        self._parts = kept
        self.dtype = dtypes.pop()
        bounds = np.cumsum([0] + [len(part) for part in kept])
        self._starts = bounds[:-1]
        self._stops = bounds[1:]
        self.size = int(bounds[-1])

    @property
    def parts(self) -> tuple:
        return tuple(self._parts)

    def _read(self, start: int, stop: int) -> np.ndarray:
        first = int(np.searchsorted(self._stops, start, side="right"))
        last = int(np.searchsorted(self._starts, stop, side="left"))
        pieces = []
        for i in range(first, last):
            lo = max(start, int(self._starts[i])) - int(self._starts[i])
            hi = min(stop, int(self._stops[i])) - int(self._starts[i])
            pieces.append(np.asarray(self._parts[i][lo:hi]))
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def min(self):
        return min(part.min() for part in self._parts)

    def max(self):
        return max(part.max() for part in self._parts)

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.empty(0, dtype=self.dtype)
        if indices.min() < 0 or indices.max() >= self.size:
            raise IndexError("gather index out of range")
        out = np.empty(indices.size, dtype=self.dtype)
        for i, part in enumerate(self._parts):
            mask = (indices >= self._starts[i]) & (indices < self._stops[i])
            if not mask.any():
                continue
            local = indices[mask] - int(self._starts[i])
            if isinstance(part, LazyArray):
                out[mask] = part.take(local)
            else:
                out[mask] = part[local]
        return out


# ----------------------------------------------------------------------
# Chunk-streaming helpers shared by columns and kernels
# ----------------------------------------------------------------------
def array_chunks(
    array,
    chunk_rows: int | None = None,
    start: int = 0,
    stop: int | None = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(offset, values)`` chunks over any ndarray or lazy array."""
    if is_lazy(array):
        yield from array.iter_chunks(chunk_rows, start=start, stop=stop)
        return
    span = int(chunk_rows or DEFAULT_CHUNK_ROWS)
    stop = array.size if stop is None else min(int(stop), array.size)
    cursor = max(0, int(start))
    while cursor < stop:
        upto = min(cursor + span, stop)
        yield cursor, array[cursor:upto]
        cursor = upto


def chunked_scan_range(
    array,
    low,
    high,
    start: int = 0,
    stop: int | None = None,
    chunk_rows: int | None = None,
) -> Tuple:
    """Predicated ``(sum, count)`` over ``array[start:stop]``, streamed."""
    total = np.dtype(array.dtype).type(0)
    count = 0
    for _, chunk in array_chunks(array, chunk_rows, start=start, stop=stop):
        chunk_sum, hits = kernels.range_sum_count(chunk, low, high)
        if hits:
            total = total + chunk_sum
            count += hits
    return total, count


def chunked_rids_where(
    array,
    low,
    high,
    chunk_rows: int | None = None,
    alive_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row ids of values in ``[low, high]``, streamed over ``array``."""
    found = []
    for offset, chunk in array_chunks(array, chunk_rows):
        mask = (chunk >= low) & (chunk <= high)
        if alive_mask is not None:
            mask &= alive_mask[offset : offset + chunk.size]
        hits = np.flatnonzero(mask)
        if hits.size:
            found.append(hits.astype(np.int64) + offset)
    if not found:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(found)

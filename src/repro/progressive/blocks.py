"""Linked lists of fixed-size blocks backing the bucket-based algorithms.

Section 3.2 of the paper: "To avoid having to allocate large regions of
sequential data for every bucket, the buckets are implemented as a linked
list of blocks of memory that each hold up to ``sb`` elements."

:class:`BlockList` keeps that layout's *accounting* — ``n_blocks`` is what
the ``t_bscan = t_scan + phi * N / sb`` and allocation cost terms price —
over the contiguous pieces the scatter kernel produced: appending to a
bucket is one list append instead of a per-block copy loop, a read folds
the pieces into one array first, and a bucket can be drained into the final
sorted index when it is merged.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import kernels
from repro.core.calibration import DEFAULT_BLOCK_SIZE
from repro.core.query import QueryResult


class BlockList:
    """An append-only list of values, accounted in fixed-size blocks.

    The values are held as the contiguous *pieces* they arrived in (one per
    :meth:`append_array` or per :meth:`BucketSet.scatter` call that reached
    this list); ``n_blocks`` / :meth:`memory_footprint` report the paper's
    ``ceil(size / sb)`` blocks, which is what the cost model prices.

    Parameters
    ----------
    block_size:
        Maximum number of elements per block (paper: ``sb``).
    dtype:
        Element dtype; defaults to ``int64`` to match the paper's 8-byte
        integers.
    arena:
        Optional :class:`~repro.storage.scratch.BlockArena`; when set,
        copied-in pieces are slab views that spill past the memory budget
        instead of anonymous allocations summing to O(N).
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE, dtype=np.int64, arena=None) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = int(block_size)
        self.dtype = np.dtype(dtype)
        self._arena = arena
        self._pieces: List[np.ndarray] = []
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def n_blocks(self) -> int:
        """Number of ``block_size`` blocks the stored values fill."""
        return -(-self._size // self.block_size)

    @property
    def n_allocations(self) -> int:
        """Alias of :attr:`n_blocks`; each block is one allocation (cost τ)."""
        return self.n_blocks

    def memory_footprint(self) -> int:
        """Bytes allocated by the block list."""
        return self.n_blocks * self.block_size * self.dtype.itemsize

    # ------------------------------------------------------------------
    def append_array(self, values: np.ndarray, owned: bool = False) -> None:
        """Append ``values`` (in order) as one piece.

        ``owned=True`` asserts the caller relinquishes ``values`` (a freshly
        materialised array, or a slice of one, that no one else mutates):
        it is kept as is.  Otherwise it is copied — into the arena's
        spillable slabs under a memory budget.
        """
        values = np.asarray(values, dtype=self.dtype)
        if values.size == 0:
            return
        if not owned:
            if self._arena is not None:
                piece = self._arena.allocate(values.size)
                piece[:] = values
                values = piece
            else:
                values = values.copy()
        self._adopt(values)

    def _adopt(self, piece: np.ndarray) -> None:
        self._pieces.append(piece)
        self._size += piece.size

    def append(self, value) -> None:
        """Append a single value (convenience wrapper for tests)."""
        self.append_array(np.asarray([value], dtype=self.dtype), owned=True)

    # ------------------------------------------------------------------
    def _readable(self) -> List[np.ndarray]:
        """The pieces, for reading.  Many small pieces are first folded into
        one — a read touches every value anyway, and pays per piece — except
        under a memory budget, where the copy would be one more slab that
        only frees with its neighbours."""
        if len(self._pieces) > 1 and self._arena is None:
            self._pieces = [np.concatenate(self._pieces)]
        return self._pieces

    def scan(self, low, high) -> QueryResult:
        """Predicated scan of all stored values against ``[low, high]``."""
        total = QueryResult.empty()
        for piece in self._readable():
            total += QueryResult.from_range(piece, low, high)
        return total

    def to_array(self) -> np.ndarray:
        """Concatenate the stored values into a single contiguous array."""
        if not self._pieces:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(self._pieces)  # always a copy

    def _iter_range(self, start: int, count: int):
        """Yield the parts of pieces covering logical range ``[start, start+count)``,
        clamped to the stored data, in order."""
        if count <= 0:
            return
        start = max(0, start)
        stop = min(self._size, start + count)
        piece_start = 0
        for piece in self._readable():
            if piece_start >= stop:
                break
            piece_stop = piece_start + piece.size
            if piece_stop > start:
                yield piece[max(0, start - piece_start) : stop - piece_start]
            piece_start = piece_stop

    def slice_array(self, start: int, count: int) -> np.ndarray:
        """Return ``count`` elements starting at logical offset ``start``.

        Used by the progressive merge step, which drains a bucket a bounded
        number of elements at a time.
        """
        parts = list(self._iter_range(start, count))
        if len(parts) == 1:
            return parts[0]  # a view: callers only read it
        if not parts:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(parts)

    def drain_into(self, target: np.ndarray, target_start: int, start: int, count: int) -> int:
        """Copy ``count`` elements from logical offset ``start`` straight into
        ``target[target_start:]``; returns the number of elements copied."""
        copied = 0
        for part in self._iter_range(start, count):
            position = target_start + copied
            target[position : position + part.size] = part
            copied += part.size
        return copied

    def clear(self) -> None:
        """Release all stored values."""
        self._pieces = []
        self._size = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BlockList(size={self._size}, blocks={self.n_blocks}, "
            f"block_size={self.block_size})"
        )


class BucketSet:
    """A fixed number of :class:`BlockList` buckets addressed by bucket id."""

    def __init__(
        self,
        n_buckets: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        dtype=np.int64,
        arena=None,
    ) -> None:
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        self.block_size = int(block_size)
        self.dtype = np.dtype(dtype)
        self._arena = arena
        self.buckets: List[BlockList] = [
            BlockList(block_size=block_size, dtype=dtype, arena=arena)
            for _ in range(n_buckets)
        ]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets)

    def __getitem__(self, bucket_id: int) -> BlockList:
        return self.buckets[bucket_id]

    def scatter(self, values: np.ndarray, bucket_ids: np.ndarray) -> None:
        """Append each value to the bucket named by ``bucket_ids`` (stable).

        One counting-sort pass per chunk (:func:`repro.kernels.scatter`)
        groups the chunk by bucket into one buffer — the arena's under a
        memory budget — and every non-empty bucket receives its slice of it:
        ``O(n)`` regardless of the fan-out, within-bucket input order kept.
        """
        values = np.asarray(values, dtype=self.dtype)
        bucket_ids = np.asarray(bucket_ids)
        if bucket_ids.dtype != np.int64:
            bucket_ids = bucket_ids.astype(np.int64)
        if values.size:
            grouped = self._grouped_buffer(values.size)
            self._distribute(grouped, *kernels.scatter(values, bucket_ids, self.n_buckets, grouped))

    def scatter_radix(self, values: np.ndarray, base: int, shift: int) -> None:
        """:meth:`scatter` by the radix digit ``((key - base) >> shift) %
        n_buckets`` of every value's order key (``n_buckets`` a power of two;
        see :class:`~repro.core.keys.RadixKeySpace`), computed inside the
        kernel instead of being passed in."""
        values = np.asarray(values, dtype=self.dtype)
        if values.size:
            grouped = self._grouped_buffer(values.size)
            self._distribute(grouped, *kernels.scatter_radix(
                values, base, shift, self.n_buckets - 1, grouped))

    def _grouped_buffer(self, n_rows: int) -> np.ndarray:
        if self._arena is not None:
            return self._arena.allocate(n_rows)
        return np.empty(n_rows, dtype=self.dtype)

    def _distribute(self, grouped: np.ndarray, counts: np.ndarray, ends: np.ndarray) -> None:
        buckets = self.buckets
        for bucket_id, (count, end) in enumerate(zip(counts.tolist(), ends.tolist())):
            if count:
                buckets[bucket_id]._adopt(grouped[end - count : end])

    def scan(self, low, high, bucket_range: range | None = None) -> QueryResult:
        """Scan the given buckets (all by default) for values in ``[low, high]``."""
        total = QueryResult.empty()
        indices = bucket_range if bucket_range is not None else range(self.n_buckets)
        for bucket_id in indices:
            total += self.buckets[bucket_id].scan(low, high)
        return total

    def sizes(self) -> np.ndarray:
        """Array of bucket sizes."""
        return np.array([len(bucket) for bucket in self.buckets], dtype=np.int64)

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot: every bucket flattened to one array.

        Block boundaries are an allocation detail, not semantics — the
        restored set holds identical values in identical order, re-blocked.
        """
        return {
            "n_buckets": self.n_buckets,
            "block_size": self.block_size,
            "dtype": self.dtype.name,
            "buckets": [bucket.to_array() for bucket in self.buckets],
        }

    @classmethod
    def from_state(cls, state: dict, arena=None) -> "BucketSet":
        """Rebuild a bucket set from :meth:`state_dict` output; with an
        ``arena``, what is scattered into it later is carved from its slabs."""
        bucket_set = cls(
            int(state["n_buckets"]),
            block_size=int(state["block_size"]),
            dtype=np.dtype(str(state["dtype"])),
            arena=arena,
        )
        for bucket, values in zip(bucket_set.buckets, state["buckets"]):
            bucket.append_array(values, owned=True)
        return bucket_set

    def total_allocations(self) -> int:
        """Total number of block allocations across all buckets."""
        return sum(bucket.n_allocations for bucket in self.buckets)

    def memory_footprint(self) -> int:
        """Bytes allocated across all buckets."""
        return sum(bucket.memory_footprint() for bucket in self.buckets)

    def clear(self) -> None:
        """Release every bucket's blocks."""
        for bucket in self.buckets:
            bucket.clear()

"""Bucket storage of the bucket-based algorithms.

Section 3.2 of the paper: "To avoid having to allocate large regions of
sequential data for every bucket, the buckets are implemented as a linked
list of blocks of memory that each hold up to ``sb`` elements."  A bucket
set comes in two kinds, decided by whether its buckets' final sizes are known
before it is filled:

* **Pieces** (:class:`BucketSet`): the sizes are unknown — the creation
  phase fills buckets from the base column, ``δ·N`` rows a query.  Every
  bucket is a :class:`BlockList`, the contiguous *pieces* the scatter kernel
  produced: a chunk is grouped by bucket into one buffer and each bucket
  adopts its slice of it, accounted in the paper's ``sb``-element blocks
  (``n_blocks`` is what the ``t_bscan = t_scan + phi * N / sb`` and
  allocation cost terms price).
* **Exact offsets** (:class:`ExactBucketSet`): the sizes are known — a radix
  generation whose digit histogram was counted first (PLSD's refinement
  passes, a PMSD node's children).  One flat array holds every bucket at a
  fixed start offset, with one fill cursor per bucket; the cursor scatter
  kernel writes each value straight into its slot, and a bucket is a view.
  The buckets lie in bucket order, so a full set read in bucket order is one
  slice of the array.

Both read alike: a bucket (``bucket_set[i]``) is a :class:`BlockList`, a set
reads in bucket order with :meth:`BucketSet.read`, and checkpoints store one
array per bucket whichever the kind.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro import kernels
from repro.core.calibration import DEFAULT_BLOCK_SIZE
from repro.core.query import QueryResult


class BlockList:
    """An append-only list of values, accounted in fixed-size blocks.

    The values are held as the contiguous *pieces* they arrived in (one per
    :meth:`append_array` or per :meth:`BucketSet.scatter` call that reached
    this list; a bucket of an :class:`ExactBucketSet` is one piece, a view);
    ``n_blocks`` / :meth:`memory_footprint` report the paper's
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

    def histogram(self, base: int, shift: int, counts: np.ndarray) -> None:
        """Add the radix histogram of the stored values (digit ``((key -
        base) >> shift) & (counts.size - 1)``) to ``counts``."""
        for piece in self._readable():
            kernels.radix_histogram(piece, base, shift, counts.size - 1, counts)

    def to_array(self) -> np.ndarray:
        """Concatenate the stored values into a single contiguous array."""
        if not self._pieces:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(self._pieces)  # always a copy

    def read(self, start: int, count: int) -> Iterator[np.ndarray]:
        """Yield the parts of pieces covering logical range ``[start, start+count)``,
        clamped to the stored data, in order (views: callers only read them)."""
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
        """Return ``count`` elements starting at logical offset ``start``."""
        parts = list(self.read(start, count))
        if len(parts) == 1:
            return parts[0]  # a view: callers only read it
        if not parts:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(parts)

    def drain_into(self, target: np.ndarray, target_start: int, start: int, count: int) -> int:
        """Copy ``count`` elements from logical offset ``start`` straight into
        ``target[target_start:]``; returns the number of elements copied."""
        copied = 0
        for part in self.read(start, count):
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
    """A fixed number of :class:`BlockList` buckets addressed by bucket id,
    filled piece by piece (the *pieces* kind of the module docstring)."""

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
            total += self[bucket_id].scan(low, high)
        return total

    def sizes(self) -> np.ndarray:
        """Array of bucket sizes."""
        return np.array([len(bucket) for bucket in self.buckets], dtype=np.int64)

    def histogram(self, base: int, shift: int) -> np.ndarray:
        """Radix histogram (``n_buckets`` digits) of every stored value: the
        sizes of the set one radix pass over this one fills."""
        counts = np.zeros(self.n_buckets, dtype=np.int64)
        for bucket in self.buckets:
            bucket.histogram(base, shift, counts)
        return counts

    def read(self, start: int, count: int) -> Iterator[np.ndarray]:
        """The values at positions ``[start, start+count)`` of the set read
        bucket after bucket, as contiguous views."""
        stop = start + count
        at = 0
        for bucket in self.buckets:
            size = len(bucket)
            if at + size > start:
                yield from bucket.read(start - at, stop - max(start, at))
            at += size
            if at >= stop:
                break

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot: every bucket flattened to one array.

        Block boundaries and the set's kind are an allocation detail, not
        semantics — the restored set holds identical values in identical
        order.
        """
        return {
            "n_buckets": self.n_buckets,
            "block_size": self.block_size,
            "dtype": self.dtype.name,
            "buckets": [self[bucket_id].to_array() for bucket_id in range(self.n_buckets)],
        }

    @classmethod
    def from_state(cls, state: dict, arena=None) -> "BucketSet":
        """Rebuild a pieces set from :meth:`state_dict` output; with an
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
        return sum(self[bucket_id].n_allocations for bucket_id in range(self.n_buckets))

    def memory_footprint(self) -> int:
        """Bytes allocated across all buckets."""
        return sum(bucket.memory_footprint() for bucket in self.buckets)

    def clear(self) -> None:
        """Release every bucket's blocks."""
        for bucket in self.buckets:
            bucket.clear()


class ExactBucketSet(BucketSet):
    """Buckets of known final sizes in one flat array (the *exact offsets*
    kind of the module docstring).

    Bucket ``b`` occupies ``data[starts[b] : starts[b + 1]]`` and holds
    ``data[starts[b] : fill[b]]`` so far; :meth:`scatter_radix` advances the
    ``fill`` cursors in place (:func:`repro.kernels.scatter_cursor`), and a
    value that would pass its bucket's end raises.  The array is carved from
    the ``arena`` under a memory budget, so it spills like every other
    construction array.

    Parameters
    ----------
    sizes:
        The final size of every bucket (their number is the fan-out).
    block_size, dtype, arena:
        As for :class:`BucketSet`.
    """

    def __init__(self, sizes, block_size: int = DEFAULT_BLOCK_SIZE, dtype=np.int64, arena=None) -> None:
        sizes = np.asarray(sizes, dtype=np.int64)
        self.n_buckets = int(sizes.size)
        self.block_size = int(block_size)
        self.dtype = np.dtype(dtype)
        self.starts = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.starts[1:])
        self.fill = self.starts[:-1].copy()
        self._limits = self.starts[1:]
        total = int(self.starts[-1])
        self.data = arena.allocate(total) if arena is not None else np.empty(total, dtype=self.dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, bucket_id: int) -> BlockList:
        bucket = BlockList(self.block_size, self.dtype)
        bucket.append_array(self.data[self.starts[bucket_id] : self.fill[bucket_id]], owned=True)
        return bucket

    @property
    def full(self) -> bool:
        """Whether every bucket holds its final size."""
        return self._size == self.data.size

    def scatter_radix(self, values: np.ndarray, base: int, shift: int) -> None:
        """Write every value at its bucket's fill cursor (digit as in
        :meth:`BucketSet.scatter_radix`)."""
        values = np.asarray(values, dtype=self.dtype)
        kernels.scatter_cursor(
            values, base, shift, self.n_buckets - 1, self.fill, self._limits, self.data)
        self._size += values.size

    def sizes(self) -> np.ndarray:
        return self.fill - self.starts[:-1]

    def read(self, start: int, count: int) -> Iterator[np.ndarray]:
        if not self.full:
            yield from super().read(start, count)
        elif count > 0:
            yield self.data[max(0, start) : start + count]

    @property
    def buckets(self) -> List[BlockList]:
        return [self[bucket_id] for bucket_id in range(self.n_buckets)]

    def restore(self, arrays) -> None:
        """Refill every bucket from the arrays :meth:`state_dict` saved (a
        prefix of each bucket when the set was caught mid-fill)."""
        for bucket_id, values in enumerate(arrays):
            start = int(self.starts[bucket_id])
            if values.size > self.starts[bucket_id + 1] - start:
                raise ValueError(f"bucket {bucket_id}: {values.size} values exceed its size")
            self.data[start : start + values.size] = values
            self.fill[bucket_id] = start + values.size
        self._size = int(self.sizes().sum())

    def memory_footprint(self) -> int:
        return int(self.data.nbytes)

    def clear(self) -> None:
        self.data = np.empty(0, dtype=self.dtype)
        self.starts[:] = 0
        self.fill[:] = 0
        self._size = 0

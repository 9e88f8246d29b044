"""Spillable scratch allocations for the streaming construction kernels.

Progressive construction needs *writable* working arrays: the quicksort
index array, bucket blocks, radix final arrays, sorter partition scratch.
In-memory those are ``np.empty`` allocations proportional to ``N`` — the
exact thing out-of-core operation must avoid.  :class:`ScratchAllocator`
hands out the same writable arrays but tracks the anonymous bytes it has
granted; once a configured budget is exceeded, further allocations are
backed by unlinked temp files (``np.memmap``), so the OS pages them in and
out instead of the process holding them resident.

Spilled arrays behave exactly like ndarrays for every kernel (slicing,
in-place ``sort``, fancy writes); :meth:`ScratchAllocator.trim` additionally
flushes and ``madvise(DONTNEED)``-drops their clean/dirty pages, bounding
peak RSS between construction bursts.

**Spill files are reused.**  When a spilled array is collected its file —
unlinked from birth, alive through the allocator's descriptor — joins a free
list of at most :data:`MAX_FREE_SPILL_FILES`, and the next spilled allocation
maps the smallest free file that is large enough instead of creating a sparse
one (whose every first touch is a page fault that allocates file blocks).  So
a spilled array's contents are **unspecified**, as ``np.empty``'s are.  A reuse
counts as a spill, and in ``spill_reused``.  Free files are closed when the
list is full, by :meth:`ScratchAllocator.trim`, and when the allocator is
collected — after every array it handed out, so no descriptor outlives it.
"""

from __future__ import annotations

import mmap
import os
import tempfile
import threading
import weakref

import numpy as np

#: Allocations below this many bytes never spill — file churn would cost
#: more than the resident footprint they avoid.
SMALL_ALLOCATION_BYTES = 1 << 18

#: Released spill files kept open for reuse (an index under construction
#: holds its array and one partition scratch: two files cover a rebuild).
MAX_FREE_SPILL_FILES = 2


class ScratchAllocator:
    """Budgeted allocator for writable scratch arrays.

    Parameters
    ----------
    budget_bytes:
        Anonymous-RAM allowance.  ``None`` disables spilling entirely (the
        in-memory engine, unchanged).
    directory:
        Where spill files live; a private temp directory by default.
    """

    def __init__(self, budget_bytes: int | None = None, directory: str | None = None) -> None:
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self._directory = directory
        # Re-entrant: the release finalizers below take it too, and the
        # collector may run them on a thread that is inside one of these blocks.
        self._lock = threading.RLock()
        self._resident_bytes = 0
        self._spilled: list = []  # weakrefs (np.memmap is unhashable, no WeakSet)
        self._free: list = []  # (size, file object) of released spill files, by size
        self.spill_count = 0
        self.spilled_bytes = 0
        self.spill_reused = 0
        weakref.finalize(self, _close_files, self._free)
        # Pull-mode metrics: the allocator's own counters are read lazily
        # at snapshot time — no per-allocation overhead.
        from repro import obs

        registry = obs.metrics()
        registry.register_pull("scratch.spill.count", self,
                               lambda a: a.spill_count,
                               help="Scratch allocations spilled to disk")
        registry.register_pull("scratch.spill.bytes", self,
                               lambda a: a.spilled_bytes,
                               help="Bytes of scratch spilled to disk")
        registry.register_pull("scratch.spill.reused", self,
                               lambda a: a.spill_reused,
                               help="Spilled allocations that mapped a released spill file")
        registry.register_pull("scratch.resident.bytes", self,
                               lambda a: a._resident_bytes, kind="gauge",
                               help="Resident (in-budget) scratch bytes")

    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        if self._directory is None:
            self._directory = tempfile.mkdtemp(prefix="repro-scratch-")
        else:
            os.makedirs(self._directory, exist_ok=True)
        return self._directory

    @property
    def resident_bytes(self) -> int:
        """Anonymous scratch bytes currently alive."""
        return self._resident_bytes

    # ------------------------------------------------------------------
    def allocate(self, n_rows: int, dtype) -> np.ndarray:
        """Return a writable array of ``n_rows``; spilled past the budget."""
        dtype = np.dtype(dtype)
        n_rows = int(n_rows)
        nbytes = n_rows * dtype.itemsize
        if not self._should_spill(nbytes):
            array = np.empty(n_rows, dtype=dtype)
            with self._lock:
                self._resident_bytes += nbytes
            weakref.finalize(array, self._released, nbytes)
            return array
        return self._spill(n_rows, dtype, nbytes)

    def _should_spill(self, nbytes: int) -> bool:
        if self.budget_bytes is None or nbytes < SMALL_ALLOCATION_BYTES:
            return False
        with self._lock:
            return self._resident_bytes + nbytes > self.budget_bytes

    def _released(self, nbytes: int) -> None:
        with self._lock:
            self._resident_bytes = max(0, self._resident_bytes - nbytes)

    def _spill(self, n_rows: int, dtype: np.dtype, nbytes: int) -> np.ndarray:
        found = self._take_free(nbytes)
        size, handle = found or self._create_file(max(1, nbytes))
        try:
            if found is None:
                os.ftruncate(handle.fileno(), size)  # sparse: blocks come with the first touch
            array = np.memmap(handle, dtype=dtype, mode="r+", shape=(n_rows,))
        except BaseException:
            handle.close()
            raise
        # The mapping holds its own duplicate of the descriptor; ours goes
        # back on the free list once the array (and every view of it) is gone.
        weakref.finalize(array, self._release_file, size, handle)
        with self._lock:
            self.spill_count += 1
            self.spilled_bytes += nbytes
            self.spill_reused += found is not None
            self._spilled.append(weakref.ref(array))
        return array

    def _create_file(self, size: int):
        """``(size, handle)`` of a new, still empty spill file, unlinked at once:
        the descriptor keeps it alive, and a crashed process leaves no litter."""
        fd, path = tempfile.mkstemp(prefix="scratch-", suffix=".spill", dir=self.directory)
        os.unlink(path)
        return size, os.fdopen(fd, "r+b", buffering=0)

    def _take_free(self, nbytes: int):
        """``(size, handle)`` of the smallest free spill file holding
        ``nbytes``, removed from the free list; ``None`` when there is none."""
        with self._lock:
            for entry in self._free:
                if entry[0] >= nbytes:
                    self._free.remove(entry)
                    return entry
        return None

    def _release_file(self, size: int, handle) -> None:
        with self._lock:
            if len(self._free) < MAX_FREE_SPILL_FILES:
                self._free.append((size, handle))
                self._free.sort(key=lambda entry: entry[0])
                return
        handle.close()

    # ------------------------------------------------------------------
    def trim(self) -> None:
        """Flush spilled arrays, drop their resident pages (best effort) and
        close the released spill files kept for reuse."""
        with self._lock:
            refs = [ref for ref in self._spilled if ref() is not None]
            self._spilled = refs
            _close_files(self._free)
        for ref in refs:
            array = ref()
            if array is not None:
                trim_mapped(array)

    def stats(self) -> dict:
        return {
            "budget_bytes": self.budget_bytes,
            "resident_bytes": int(self._resident_bytes),
            "spill_count": int(self.spill_count),
            "spilled_bytes": int(self.spilled_bytes),
            "spill_reused": int(self.spill_reused),
        }


def _close_files(free: list) -> None:
    """Close and forget the released spill files on an allocator's free list."""
    while free:
        free.pop()[1].close()


def trim_mapped(array: np.ndarray) -> None:
    """Write back and drop the resident pages of one ``np.memmap``."""
    raw = getattr(array, "_mmap", None)
    if raw is None:
        return
    try:
        array.flush()
        raw.madvise(mmap.MADV_DONTNEED)
    except (AttributeError, ValueError, OSError):  # pragma: no cover
        pass


class BlockArena:
    """Supplier of block-list storage carved out of spillable slabs.

    The linked-block structures (:class:`~repro.progressive.blocks.BlockList`)
    hold many small arrays; as anonymous allocations those collectively
    reach O(N) and — each below the spill threshold — could never leave RAM.
    An arena instead allocates large slabs through the
    :class:`ScratchAllocator` (which spills them once past budget) and hands
    out views: the scatter kernel's per-chunk output buffer, a copy target, or
    the flat array of an :class:`~repro.progressive.blocks.ExactBucketSet`.
    """

    def __init__(
        self,
        allocator: ScratchAllocator,
        block_size: int,
        dtype,
        slab_blocks: int = 64,
    ) -> None:
        self.allocator = allocator
        self.block_size = int(block_size)
        self.dtype = np.dtype(dtype)
        self.slab_rows = self.block_size * max(1, int(slab_blocks))
        self._slab: np.ndarray | None = None
        self._used = 0
        self._lock = threading.Lock()

    def allocate(self, n_rows: int) -> np.ndarray:
        """A writable array of ``n_rows`` rows: a view into the current slab,
        or an allocation of its own when it is at least a slab long."""
        n_rows = int(n_rows)
        if n_rows >= self.slab_rows:
            return self.allocator.allocate(n_rows, self.dtype)
        with self._lock:
            if self._slab is None or self._used + n_rows > self.slab_rows:
                self._slab = self.allocator.allocate(self.slab_rows, self.dtype)
                self._used = 0
            start = self._used
            self._used += n_rows
            return self._slab[start : start + n_rows]

"""Mutable column of numeric values: read-optimized base + delta store.

A :class:`Column` is the unit every index in this library operates on.  Since
the mutable-substrate refactor it is no longer a frozen array but a *versioned*
pair of

* a contiguous, read-only **base array** (the read-optimized majority of the
  data — indexes build their structures from it), and
* an append-only :class:`~repro.storage.delta.DeltaStore` absorbing every
  ``insert``/``delete``/``update`` without ever reorganising the base
  (updates are a delete plus an insert, mirroring column stores).

Reads are **snapshot-versioned**: :meth:`Column.snapshot` freezes the rows
visible at a version into a :class:`ColumnSnapshot`, which exposes the exact
read API the old immutable column had (``data``, ``min``/``max``,
``scan_range``, ``copy_data``).  Indexes pin a snapshot at creation time and
answer structural queries against it; the per-index delta overlay corrects
their answers with whatever writes happened after the pinned version, and
merge work moves those writes into the structures under the same budget
policies that pace construction.

The live column's own read API (``data``, ``scan_range`` …) always reflects
the *current* visible rows — base minus deleted plus inserted — through the
current version's snapshot.  A version has one snapshot per process (an
unwritten column's shares the base array), so its rows are materialized at
most once and its ``min``/``max`` computed at most once, in one pass
(:func:`repro.kernels.minmax`), for every index, shard and session that
reads that version.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Iterator, Optional, Union

import numpy as np

from repro import kernels
from repro.errors import DroppedColumnError, InvalidColumnError
from repro.storage.delta import DeltaStore
from repro.storage.lazy import (
    ChainArray,
    LazyArray,
    array_chunks,
    chunked_rids_where,
    chunked_scan_range,
    is_lazy,
)
from repro.storage.membudget import MemoryBudget, budget_of

ArrayLike = Union[np.ndarray, list, tuple]

#: Number of materialized snapshot versions a column retains.  Snapshots at
#: the same version are shared (index creation over a written column pays the
#: base∪delta materialization once), but a long write stream must not pin
#: every historical version's array in memory — older entries are LRU-evicted
#: and later requests for them re-materialize from the delta store.
SNAPSHOT_CACHE_SIZE = 4


class _ReadableColumn:
    """Shared read API over a one-dimensional numeric array.

    Subclasses provide :meth:`_view` returning the array the reads should
    target, and :meth:`value_range` the statistics of those rows.
    """

    _name: str

    def _view(self) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Attribute name of the column."""
        return self._name

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the visible values."""
        return self._view()

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype of the stored values (``int64`` or ``float64``)."""
        return self._view().dtype

    def __len__(self) -> int:
        return int(self._view().size)

    def __iter__(self) -> Iterator:
        return iter(self._view())

    def __getitem__(self, item):
        return self._view()[item]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def min(self):
        """Smallest visible value."""
        return self.value_range()[0]

    def max(self):
        """Largest visible value."""
        return self.value_range()[1]

    def value_range(self):
        """Return ``(min, max)`` of the visible values."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Scan primitives
    # ------------------------------------------------------------------
    def scan_range(self, low, high, start: int = 0, stop: int | None = None):
        """Predicated scan: sum and count of values in ``[low, high]``.

        Mirrors the paper's ``SELECT SUM(R.A) WHERE R.A BETWEEN low AND high``
        executed with predication (no data-dependent branches, through
        :func:`repro.kernels.range_sum_count`) regardless of selectivity.

        Parameters
        ----------
        low, high:
            Inclusive range bounds.
        start, stop:
            Optional element offsets restricting the scan to
            ``data[start:stop]``; used by partial indexes that only need to
            scan the not-yet-indexed tail of their snapshot.

        Returns
        -------
        tuple
            ``(matching_sum, matching_count)``.
        """
        view = self._view()
        if is_lazy(view):
            total, count = chunked_scan_range(
                view, low, high, start=start,
                stop=view.size if stop is None else stop,
                chunk_rows=self._chunk_rows(),
            )
            return (total, count) if count else (view.dtype.type(0), 0)
        return kernels.range_sum_count(view[start:stop], low, high)

    def scan_count(self, low, high, start: int = 0, stop: int | None = None) -> int:
        """Count of values in ``[low, high]`` within ``data[start:stop]``."""
        view = self._view()
        if is_lazy(view):
            return chunked_scan_range(
                view, low, high, start=start,
                stop=view.size if stop is None else stop,
                chunk_rows=self._chunk_rows(),
            )[1]
        segment = view[start:stop]
        mask = (segment >= low) & (segment <= high)
        return int(np.count_nonzero(mask))

    def _chunk_rows(self) -> int | None:
        """Streamed chunk size for lazy reads (budget-derived when set)."""
        budget = budget_of(self)
        if budget is not None:
            return budget.chunk_rows(self.dtype)
        return None

    def copy_data(self) -> np.ndarray:
        """Return a writable copy of the visible values.

        Indexes that physically reorganise data (cracking, progressive
        quicksort) call this to obtain their private working array.  Under
        a memory budget the copy is allocated through the shared scratch
        allocator (pager-backed past the allowance) and filled chunk by
        chunk, so a paged base never materializes wholesale into RAM.
        """
        view = self._view()
        budget = budget_of(self)
        if budget is not None:
            out = budget.scratch.allocate(len(view), view.dtype)
            for offset, chunk in array_chunks(view, budget.chunk_rows(view.dtype)):
                out[offset : offset + len(chunk)] = chunk
            return out
        return self._view().copy()


def require_finite(values, name: str) -> None:
    """Raise :class:`InvalidColumnError` naming column ``name`` when float
    data holds NaN or ±inf; integer data is not read.

    Range predicates, quantile cuts, zone maps and pivots all assume totally
    ordered values: a NaN lands in no range and poisons every min/max it
    touches, so it would turn into wrong counts, not errors.  Two reductions
    find one (``min``/``max`` propagate NaN); a lazy array is streamed.
    """
    if np.dtype(values.dtype).kind != "f":
        return
    chunks = (chunk for _, chunk in values.iter_chunks()) if is_lazy(values) else (values,)
    for chunk in chunks:
        if chunk.size and not (np.isfinite(chunk.min()) and np.isfinite(chunk.max())):
            raise InvalidColumnError(
                f"column {name!r} holds NaN or infinite values; range queries need "
                "totally ordered data, so drop or replace them before ingest"
            )


def _coerce(values: ArrayLike, dtype: Optional[np.dtype] = None, name: str = "value"):
    """Validate and normalise column data to a contiguous int64/float64 array.

    Lazy arrays (paged compressed columns, chained snapshot views) pass
    through untouched — materializing them here would defeat out-of-core
    operation; they are already read-only and dtype-normalized at creation.
    Float data must be finite (:func:`require_finite`).
    """
    if is_lazy(values):
        dtype_name = np.dtype(values.dtype).name
        if dtype_name not in ("int64", "float64"):
            raise InvalidColumnError(f"column data must be numeric, got dtype {dtype_name}")
        if dtype is not None and np.dtype(dtype) != np.dtype(values.dtype):
            raise InvalidColumnError(
                f"lazy column data has dtype {dtype_name}, expected {np.dtype(dtype).name}"
            )
        return values
    array = np.asarray(values)
    if array.ndim != 1:
        raise InvalidColumnError(
            f"column data must be one-dimensional, got shape {array.shape}"
        )
    if (array.dtype == np.uint64 and (dtype is None or np.dtype(dtype).kind == "i")
            and array.size and array.max() > np.iinfo(np.int64).max):
        # The int64 cast would wrap them to negative values.
        raise InvalidColumnError(
            f"column {name!r}: uint64 values of 2**63 or more do not fit an int64 column"
        )
    if dtype is not None:
        if array.dtype.kind not in ("i", "u", "b", "f"):
            raise InvalidColumnError(
                f"column data must be numeric, got dtype {array.dtype}"
            )
        if np.dtype(dtype).kind == "i" and array.dtype.kind == "f":
            # Casting 2.7 into an int64 column would silently store 2 — the
            # row the user wrote would never match the predicate they query.
            if not np.all(np.isfinite(array)) or not np.array_equal(
                array, np.trunc(array)
            ):
                raise InvalidColumnError(
                    "cannot write non-integral float values into an int64 "
                    "column; convert the values (or the column) explicitly"
                )
        array = array.astype(dtype, copy=False)
    elif array.dtype.kind in ("i", "u", "b"):
        array = array.astype(np.int64, copy=False)
    elif array.dtype.kind == "f":
        array = array.astype(np.float64, copy=False)
    else:
        raise InvalidColumnError(
            f"column data must be numeric, got dtype {array.dtype}"
        )
    require_finite(array, name)
    return np.ascontiguousarray(array)


class Column(_ReadableColumn):
    """A mutable, versioned column of numeric values.

    Parameters
    ----------
    values:
        One-dimensional numeric data.  Integer data is stored as ``int64``
        (the paper uses 8-byte integers); floating point data is stored as
        ``float64``.
    name:
        Optional attribute name, used only for display purposes.
    memory_budget:
        Optional :class:`~repro.storage.membudget.MemoryBudget` (or byte
        count) bounding what the column and everything built on it holds
        resident; ``None`` keeps the fully in-memory behavior.
    """

    def __init__(
        self,
        values: ArrayLike,
        name: str = "value",
        memory_budget=None,
    ) -> None:
        array = _coerce(values, name=name)
        if array.size == 0:
            raise InvalidColumnError("column data must not be empty")
        self._base = array
        self._base.setflags(write=False)
        self.memory_budget = MemoryBudget.coerce(memory_budget)
        self._name = str(name)
        self._delta: Optional[DeltaStore] = None
        self._dropped = False
        # version -> ColumnSnapshot LRU (see SNAPSHOT_CACHE_SIZE).  It is
        # read from concurrent reader threads while the serving layer's
        # writer advances the version, so get/insert/evict run under a lock;
        # ``move_to_end`` on an entry another thread is evicting would
        # otherwise corrupt the OrderedDict.
        self._snapshot_cache: "OrderedDict[int, ColumnSnapshot]" = OrderedDict()
        self._cache_lock = threading.RLock()
        # The snapshot of the newest version asked for, read without the
        # lock: the live column's own reads go through it.
        self._latest: Optional[ColumnSnapshot] = None

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    @property
    def base_data(self) -> np.ndarray:
        """The read-only base array (excludes all delta-store writes)."""
        return self._base

    @property
    def base_size(self) -> int:
        """Number of rows in the base array."""
        return int(self._base.size)

    @property
    def dtype(self) -> np.dtype:
        """The base's dtype, which every write is coerced to (asking the
        visible rows would materialize them after a write)."""
        return self._base.dtype

    @property
    def version(self) -> int:
        """Monotone write version (0 = never written to)."""
        return 0 if self._delta is None else self._delta.version

    @property
    def delta(self) -> Optional[DeltaStore]:
        """The write log (``None`` until the first write)."""
        return self._delta

    @property
    def dropped(self) -> bool:
        """Whether this column has been dropped from its table."""
        return self._dropped

    def _view(self) -> np.ndarray:
        delta = self._delta
        if delta is None or delta.version == 0:
            return self._base
        return self.snapshot()._data

    def value_range(self):
        """``(min, max)`` of the visible rows: the current version's
        snapshot's, so a version is described once however it is read."""
        return self.snapshot().value_range()

    def _visible_view(self, version: int):
        """The rows visible at ``version`` — without copying a paged base.

        When the base is pager-backed (an ``np.memmap`` over a v1 column
        file or a paged view of a v2 compressed file) and no base row has
        been deleted, the result is a :class:`ChainArray` of the on-disk
        base plus the frozen insert tail: the base never materializes into
        RAM.  Base deletes fall back to full materialization (the visible
        base is then a gather, inherently O(alive rows)).
        """
        delta = self._delta
        if self.is_paged and delta.visible_base_mask(version) is None:
            inserts = delta.visible_insert_values(version)
            if inserts.size == 0:
                return self._base
            # Advanced indexing in visible_insert_values already copied the
            # log values out; freezing the copy makes the view immutable.
            inserts.setflags(write=False)
            return ChainArray([self._base, inserts])
        return delta.visible_array(version)

    def snapshot(self, version: Optional[int] = None) -> "ColumnSnapshot":
        """Freeze the rows visible at ``version`` (default: now).

        With no writes this is zero-copy (the snapshot shares the base
        array, which may itself be a read-only ``np.memmap`` over a column
        file); after writes the visible rows are materialized once per
        version.  Every version's snapshot is cached in a small LRU, so
        repeated snapshots of a version share one array and one statistics
        pass, while versions left behind by a long write stream are evicted
        instead of retained forever (indexes pinning an evicted snapshot
        keep it alive through their own reference).
        """
        if version is None:
            version = self.version
        latest = self._latest
        if latest is not None and latest.version == version:
            return latest
        snapshot = self._cached_snapshot(version)
        if version == self.version:
            self._latest = snapshot
        return snapshot

    def _cached_snapshot(self, version: int) -> "ColumnSnapshot":
        with self._cache_lock:
            cached = self._snapshot_cache.get(version)
            if cached is not None:
                self._snapshot_cache.move_to_end(version)
                return cached
        # Materialize outside the lock: only cache bookkeeping must be
        # serialized, and materializing a large delta is the expensive part
        # concurrent readers should overlap.
        array = self._base if version == 0 else self._visible_view(version)
        if array is self._base or is_lazy(array):
            snapshot = ColumnSnapshot(array, self._name, version, self)
        else:
            array = np.ascontiguousarray(array)
            array.setflags(write=False)
            snapshot = ColumnSnapshot(array, self._name, version, self)
        with self._cache_lock:
            raced = self._snapshot_cache.get(version)
            if raced is not None:
                # Another thread materialized the same version first; share
                # its snapshot so equal versions stay identity-comparable.
                self._snapshot_cache.move_to_end(version)
                return raced
            self._snapshot_cache[version] = snapshot
            while len(self._snapshot_cache) > SNAPSHOT_CACHE_SIZE:
                self._snapshot_cache.popitem(last=False)
        return snapshot

    def cached_snapshot_versions(self) -> tuple:
        """Versions currently held by the snapshot LRU (oldest first)."""
        with self._cache_lock:
            return tuple(self._snapshot_cache.keys())

    # ------------------------------------------------------------------
    # Write operations
    # ------------------------------------------------------------------
    def _writable_delta(self) -> DeltaStore:
        if self._dropped:
            raise DroppedColumnError(
                f"column {self._name!r} has been dropped; writes are rejected"
            )
        if self._delta is None:
            self._delta = DeltaStore(self._base, memory_budget=self.memory_budget,
                                     name=self._name)
        return self._delta

    def insert(self, values, handle=None) -> np.ndarray:
        """Append rows; returns the stable row ids of the new rows."""
        delta = self._writable_delta()
        coerced = _coerce(np.atleast_1d(np.asarray(values)), dtype=self.dtype, name=self._name)
        return delta.insert(coerced, handle=handle)

    def delete_rows(self, rids, handle=None) -> int:
        """Delete the rows with the given stable row ids."""
        return self._writable_delta().delete(rids, handle=handle)

    def delete_where(self, low, high, handle=None) -> np.ndarray:
        """Delete all visible rows with values in ``[low, high]``.

        Returns the rids of the deleted rows (empty when nothing matched).
        """
        rids = self.rids_where(low, high)
        if rids.size:
            self.delete_rows(rids, handle=handle)
        return rids

    def update_rows(self, rids, values, handle=None) -> np.ndarray:
        """Replace the values of ``rids``; returns the *new* rids.

        An update is a delete plus an insert — the old rows become
        tombstones and the new values land in the insert log with fresh
        stable rids, exactly how a column store absorbs in-place writes.
        """
        rids = np.atleast_1d(np.asarray(rids, dtype=np.int64))
        values = np.atleast_1d(np.asarray(values))
        if values.size == 1 and rids.size > 1:
            values = np.repeat(values, rids.size)
        if values.size != rids.size:
            raise InvalidColumnError(
                f"update_rows() got {rids.size} rids but {values.size} values"
            )
        # Insert before deleting so an update touching every visible row
        # never passes through an empty column state.
        new_rids = self.insert(values, handle=handle)
        self.delete_rows(rids, handle=handle)
        return new_rids

    def update_where(self, low, high, value, handle=None) -> np.ndarray:
        """Set every visible row in ``[low, high]`` to ``value``; returns new rids."""
        rids = self.rids_where(low, high)
        if rids.size == 0:
            return rids
        return self.update_rows(rids, np.repeat(np.asarray(value), rids.size), handle=handle)

    def rids_where(self, low, high) -> np.ndarray:
        """Stable rids of the currently visible rows in ``[low, high]``."""
        if self._delta is None or self._delta.version == 0:
            if is_lazy(self._base):
                return chunked_rids_where(
                    self._base, low, high, chunk_rows=self._chunk_rows()
                )
            mask = (self._base >= low) & (self._base <= high)
            return np.flatnonzero(mask).astype(np.int64)
        delta = self._delta
        if is_lazy(self._base):
            base_rids = chunked_rids_where(
                self._base, low, high,
                chunk_rows=self._chunk_rows(),
                alive_mask=delta.visible_base_mask(),
            )
        else:
            base_mask = (self._base >= low) & (self._base <= high)
            alive = delta.visible_base_mask()
            if alive is not None:
                base_mask &= alive
            base_rids = np.flatnonzero(base_mask).astype(np.int64)
        ins_values = delta.insert_values
        ins_mask = (
            delta.visible_insert_mask() & (ins_values >= low) & (ins_values <= high)
        )
        ins_rids = delta.base_size + np.flatnonzero(ins_mask).astype(np.int64)
        return np.concatenate([base_rids, ins_rids])

    def values_at(self, rids) -> np.ndarray:
        """Current values of the rows with the given stable rids."""
        rids = np.atleast_1d(np.asarray(rids, dtype=np.int64))
        if self._delta is None:
            if rids.size and (rids.min() < 0 or rids.max() >= self._base.size):
                raise InvalidColumnError(
                    f"row id out of range (0 .. {self._base.size - 1})"
                )
            return self._base[rids]
        return self._delta.values_at(rids)

    def drop(self) -> None:
        """Mark the column dropped; subsequent writes raise loudly."""
        self._dropped = True

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Column(name={self._name!r}, size={len(self)}, dtype={self.dtype}, "
            f"version={self.version})"
        )

    # ------------------------------------------------------------------
    # Persistence hooks
    # ------------------------------------------------------------------
    def restore_delta(self, state: dict) -> None:
        """Re-attach a checkpointed delta store (recovery path).

        Only legal on a column that has never been written to in this
        process — recovery rebuilds the write log *before* replaying the
        WAL tail on top of it.
        """
        if self._delta is not None:
            raise InvalidColumnError(
                f"column {self._name!r} already has a live delta store; "
                "restore_delta() is a recovery-only operation"
            )
        self._delta = DeltaStore.from_state(
            self._base, state, memory_budget=self.memory_budget
        )

    @property
    def is_mapped(self) -> bool:
        """Whether the base array is a memory map over a column file.

        ``_coerce`` turns a contiguous native-dtype ``np.memmap`` into a
        zero-copy base-class view, so the mapping is found by walking the
        ``base`` chain rather than an ``isinstance`` check on ``_base``.
        """
        array = self._base
        while array is not None and not is_lazy(array):
            if isinstance(array, np.memmap):
                return True
            array = getattr(array, "base", None)
        return False

    @property
    def is_paged(self) -> bool:
        """Whether the base lives on disk (memmap or compressed paged view)."""
        return is_lazy(self._base) or self.is_mapped

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_file(
        cls,
        path: str,
        name: str = "value",
        memory_budget=None,
        cache=None,
    ) -> "Column":
        """Build a column whose base array is paged in from ``path``.

        A v1 file (:func:`repro.persist.pager.write_column_file`) maps
        read-only and zero-copy; a v2 compressed file
        (:func:`repro.persist.compress.write_compressed_column`) reads
        through a block cache — the ``memory_budget``'s shared cache when
        one is given, the process default otherwise.
        """
        from repro.persist.pager import map_column_file

        budget = MemoryBudget.coerce(memory_budget)
        if cache is None and budget is not None:
            cache = budget.block_cache
        return cls(
            map_column_file(path, cache=cache), name=name, memory_budget=budget
        )


class ColumnSnapshot(_ReadableColumn):
    """A frozen, versioned view of a column's visible rows.

    Quacks exactly like the pre-refactor immutable column, which is what the
    index implementations build their structures against: the snapshot array
    never changes, so every cached statistic and derived structure stays
    valid no matter how many writes land on the live column afterwards.
    """

    def __init__(
        self,
        array: np.ndarray,
        name: str,
        version: int,
        source: Optional[Column] = None,
    ) -> None:
        self._data = array
        self._name = str(name)
        self._range = None
        #: Version of the live column this snapshot froze.
        self.version = int(version)
        # Weak: the column caches its snapshots, and a cycle would keep a
        # dropped column's arrays until the cyclic collector runs.
        self._source = None if source is None else weakref.ref(source)

    @property
    def source(self) -> Optional[Column]:
        """The live column the snapshot was taken from (``None`` if
        detached, or once that column is gone)."""
        return None if self._source is None else self._source()

    def _view(self) -> np.ndarray:
        return self._data

    def value_range(self):
        """``(min, max)`` of the frozen rows, computed on first use in one
        pass over the array this snapshot holds (a paged or chained array
        answers from its own ``min``/``max``: block directory, parts)."""
        stats = self._range
        if stats is None:
            data = self._data
            stats = self._range = (data.min(), data.max()) if is_lazy(data) else kernels.minmax(data)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ColumnSnapshot(name={self._name!r}, size={len(self)}, "
            f"version={self.version})"
        )

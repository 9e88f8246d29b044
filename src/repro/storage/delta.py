"""Append-only delta store backing the mutable column substrate.

The paper amortizes index *construction* into queries; the delta store
extends the same pay-as-you-go idea to *maintenance*.  A
:class:`~repro.storage.column.Column` stays a read-optimized base array
forever; every write lands in its :class:`DeltaStore` instead:

* an ``insert`` appends the new values to an append-only log;
* a ``delete`` marks the victim row in a deleted-rid bitmap and records the
  deleted *value* in a tombstone log (aggregate queries only ever need the
  value, never the position);
* an ``update`` is a delete plus an insert.

Every row — base or inserted — has a stable row id (rid): base rows are
``0 .. base_size - 1``, inserted rows continue from ``base_size`` in
insertion order.  Every individual write is stamped with a monotonically
increasing sequence number; the store can answer "which inserts/deletes
happened in the window ``(after, upto]``" with two binary searches, which is
exactly what an index's delta overlay needs to correct a structural answer
computed over an older snapshot.  Sequence numbers are **dense**: every
logged row (insert or tombstone) consumes exactly one, so ``1 .. version``
has no gaps and the window ``(after, upto]`` holds ``upto - after`` rows —
counting pending writes is subtraction, never a search.

The log arrays grow by amortized doubling, so a write is O(1) and the log
views handed to overlays are zero-copy slices.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.errors import InvalidColumnError


def _spill_backing(capacity: int, dtype: np.dtype, directory: Optional[str]) -> np.ndarray:
    """A writable array of ``capacity`` backed by an unlinked temp file.

    The mapping keeps the file alive; unlinking immediately means a crashed
    process leaves no spill litter behind, and the kernel reclaims the
    bytes the moment the array is garbage collected.
    """
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="delta-", suffix=".spill", dir=directory)
    try:
        os.ftruncate(fd, max(1, int(capacity) * dtype.itemsize))
        array = np.memmap(path, dtype=dtype, mode="r+", shape=(int(capacity),))
    finally:
        os.close(fd)
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - platform quirks
            pass
    return array


class _GrowableArray:
    """A contiguous NumPy array with amortized-O(1) append.

    With ``spill_bytes`` set, a regrow that would exceed it re-homes the
    log into an unlinked-temp-file ``np.memmap`` instead of anonymous RAM:
    every existing semantic survives — ``values`` stays a zero-copy
    *writable* view (the delete path stamps dead-sequence numbers in
    place) — but the OS pages the log in and out instead of the process
    holding it resident.
    """

    __slots__ = ("_data", "_size", "_spill_bytes", "_spill_dir", "spilled")

    def __init__(
        self,
        dtype,
        initial_capacity: int = 16,
        spill_bytes: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        self._data = np.empty(int(initial_capacity), dtype=dtype)
        self._size = 0
        self._spill_bytes = spill_bytes
        self._spill_dir = spill_dir
        self.spilled = False

    def __len__(self) -> int:
        return self._size

    @property
    def values(self) -> np.ndarray:
        """Zero-copy view of the appended elements."""
        return self._data[: self._size]

    def tail(self, start: int) -> np.ndarray:
        """Zero-copy view of the elements appended from position ``start`` on."""
        return self._data[start : self._size]

    def append(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self._data.dtype)
        needed = self._size + values.size
        if needed > self._data.size:
            capacity = max(self._data.size * 2, needed)
            if (
                self._spill_bytes is not None
                and capacity * self._data.dtype.itemsize > self._spill_bytes
            ):
                grown = _spill_backing(capacity, self._data.dtype, self._spill_dir)
                if not self.spilled:
                    from repro import obs

                    obs.metrics().counter(
                        "delta.spills",
                        help="Delta write logs spilled to disk backing",
                    ).inc()
                self.spilled = True
            else:
                grown = np.empty(capacity, dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : needed] = values
        self._size = needed


class DeltaStore:
    """Versioned write log of one column.

    Parameters
    ----------
    base:
        The column's immutable base array; deleted base rids index into it.
    memory_budget:
        Optional :class:`~repro.storage.membudget.MemoryBudget`; when set,
        each write log spills its backing to an unlinked temp file once it
        outgrows its share of the budget's delta allowance.
    """

    def __init__(self, base, memory_budget=None, name=None) -> None:
        self._base = base
        self.base_size = int(base.size)
        dtype = np.dtype(base.dtype)
        self.memory_budget = memory_budget
        if memory_budget is not None:
            spill = {
                "spill_bytes": max(1, memory_budget.delta_cap_bytes // 4),
                "spill_dir": memory_budget.spill_dir,
            }
        else:
            spill = {}
        # Insert log: value, sequence number, and the sequence number of the
        # delete that later killed the row (-1 while alive).
        self._ins_values = _GrowableArray(dtype, **spill)
        self._ins_seq = _GrowableArray(np.int64, **spill)
        self._ins_dead_seq = _GrowableArray(np.int64, **spill)
        # Delete log: sequence number and the value of the deleted row.
        self._del_seq = _GrowableArray(np.int64, **spill)
        self._del_values = _GrowableArray(dtype, **spill)
        # Deleted-rid bitmap over the base rows, stored as the sequence
        # number of the delete (-1 = alive); allocated on the first delete.
        self._base_dead_seq: Optional[np.ndarray] = None
        #: Sequence number of the most recent write (0 = no writes yet).
        self.version = 0
        #: Distinct non-``None`` write handles with uncommitted deltas,
        #: keyed on ``id(handle)`` with a weak reference alongside: a
        #: garbage-collected writer auto-commits (its flag is pruned), which
        #: also defuses CPython id reuse resurrecting a stale flag.
        self.pending_handles: Dict[int, Optional[weakref.ref]] = {}
        self._handle_names: dict = {}
        # Lazily-read pull series: write counts and the log footprint are
        # already tracked, so the write hot path pays nothing.
        from repro import obs

        registry = obs.metrics()
        column_name = name or "column"
        registry.register_pull("delta.inserts", self, lambda d: d.n_inserts,
                               help="Rows in the insert log",
                               column=column_name)
        registry.register_pull("delta.deletes", self, lambda d: d.n_deletes,
                               help="Rows in the delete log",
                               column=column_name)
        registry.register_pull("delta.bytes", self, lambda d: d.memory_footprint(),
                               kind="gauge", help="Delta log footprint in bytes",
                               column=column_name)

    # ------------------------------------------------------------------
    # Write operations
    # ------------------------------------------------------------------
    def insert(self, values: np.ndarray, handle=None) -> np.ndarray:
        """Append ``values``; returns the stable rids of the new rows."""
        values = np.atleast_1d(np.asarray(values))
        first_rid = self.base_size + len(self._ins_values)
        seqs = self.version + 1 + np.arange(values.size, dtype=np.int64)
        self._ins_values.append(values)
        self._ins_seq.append(seqs)
        self._ins_dead_seq.append(np.full(values.size, -1, dtype=np.int64))
        self.version += int(values.size)
        self._note_handle(handle)
        return first_rid + np.arange(values.size, dtype=np.int64)

    def delete(self, rids: np.ndarray, handle=None) -> int:
        """Mark ``rids`` deleted; returns the number of rows deleted.

        Every rid must reference a currently visible row — deleting an
        unknown or already-deleted row is an error, not a no-op.
        """
        rids = np.atleast_1d(np.asarray(rids, dtype=np.int64))
        if rids.size == 0:
            return 0
        if rids.size != np.unique(rids).size:
            raise InvalidColumnError("delete() received duplicate row ids")
        if self.visible_count() - rids.size <= 0:
            raise InvalidColumnError(
                "cannot delete every visible row: a column must keep at "
                "least one row (min/max statistics and index construction "
                "require non-empty data)"
            )
        values = self.values_at(rids, require_alive=True)
        base_mask = rids < self.base_size
        base_rids = rids[base_mask]
        if base_rids.size:
            if self._base_dead_seq is None:
                self._base_dead_seq = np.full(self.base_size, -1, dtype=np.int64)
        seqs = self.version + 1 + np.arange(rids.size, dtype=np.int64)
        if base_rids.size:
            self._base_dead_seq[base_rids] = seqs[base_mask]
        insert_ordinals = rids[~base_mask] - self.base_size
        if insert_ordinals.size:
            self._ins_dead_seq.values[insert_ordinals] = seqs[~base_mask]
        self._del_seq.append(seqs)
        self._del_values.append(values)
        self.version += int(rids.size)
        self._note_handle(handle)
        return int(rids.size)

    def _note_handle(self, handle) -> None:
        if handle is None:
            return
        try:
            ref: Optional[weakref.ref] = weakref.ref(handle)
        except TypeError:
            ref = None  # non-weakrefable handles stay pending until commit()
        self.pending_handles[id(handle)] = ref
        self._handle_names[id(handle)] = repr(handle)

    def commit(self, handle) -> None:
        """Mark ``handle``'s writes committed (clears its pending flag)."""
        self.pending_handles.pop(id(handle), None)
        self._handle_names.pop(id(handle), None)

    def foreign_handles(self, handle) -> list:
        """Pending write handles other than ``handle`` (display names).

        Handles whose writer object has been garbage collected are pruned —
        an abandoned, uncommitted writer must not block ``create_index``
        forever.
        """
        own = id(handle) if handle is not None else None
        names = []
        for key in sorted(self.pending_handles):
            ref = self.pending_handles[key]
            if ref is not None and ref() is None:
                self.pending_handles.pop(key)
                self._handle_names.pop(key, None)
                continue
            if key != own:
                names.append(self._handle_names.get(key, str(key)))
        return names

    # ------------------------------------------------------------------
    # Row lookups
    # ------------------------------------------------------------------
    def is_alive(self, rid: int, version: Optional[int] = None) -> bool:
        """Whether ``rid`` is visible at ``version`` (default: now)."""
        upto = self.version if version is None else int(version)
        rid = int(rid)
        if rid < 0:
            return False
        if rid < self.base_size:
            if self._base_dead_seq is None:
                return True
            dead = int(self._base_dead_seq[rid])
            return dead < 0 or dead > upto
        ordinal = rid - self.base_size
        if ordinal >= len(self._ins_values):
            return False
        if int(self._ins_seq.values[ordinal]) > upto:
            return False
        dead = int(self._ins_dead_seq.values[ordinal])
        return dead < 0 or dead > upto

    def values_at(self, rids: np.ndarray, require_alive: bool = False) -> np.ndarray:
        """Current values of ``rids`` (base or inserted rows)."""
        rids = np.atleast_1d(np.asarray(rids, dtype=np.int64))
        highest = self.base_size + len(self._ins_values)
        if rids.size and (rids.min() < 0 or rids.max() >= highest):
            bad = rids[(rids < 0) | (rids >= highest)][0]
            raise InvalidColumnError(
                f"row id {int(bad)} is out of range (0 .. {highest - 1})"
            )
        base_mask = rids < self.base_size
        if require_alive:
            # Vectorized liveness check (this sits on the range-delete hot
            # path): a row is dead iff its dead-seq is set; at the current
            # version every logged insert is already visible.
            base_rids = rids[base_mask]
            if base_rids.size and self._base_dead_seq is not None:
                dead = self._base_dead_seq[base_rids] >= 0
                if dead.any():
                    raise InvalidColumnError(
                        f"row id {int(base_rids[dead][0])} is already deleted"
                    )
            ordinals = rids[~base_mask] - self.base_size
            if ordinals.size:
                dead = self._ins_dead_seq.values[ordinals] >= 0
                if dead.any():
                    raise InvalidColumnError(
                        f"row id {int(ordinals[dead][0] + self.base_size)} "
                        "is already deleted"
                    )
        values = np.empty(rids.size, dtype=self._base.dtype)
        if base_mask.any():
            values[base_mask] = self._base[rids[base_mask]]
        if (~base_mask).any():
            values[~base_mask] = self._ins_values.values[
                rids[~base_mask] - self.base_size
            ]
        return values

    # ------------------------------------------------------------------
    # Snapshot materialization
    # ------------------------------------------------------------------
    def visible_base_mask(self, version: Optional[int] = None) -> Optional[np.ndarray]:
        """Bool mask of base rows alive at ``version`` (``None`` = all alive)."""
        upto = self.version if version is None else int(version)
        if self._base_dead_seq is None:
            return None
        dead = (self._base_dead_seq >= 0) & (self._base_dead_seq <= upto)
        if not dead.any():
            return None
        return ~dead

    def visible_insert_mask(self, version: Optional[int] = None) -> np.ndarray:
        """Bool mask over the insert log of rows alive at ``version``."""
        upto = self.version if version is None else int(version)
        seqs = self._ins_seq.values
        dead = self._ins_dead_seq.values
        return (seqs <= upto) & ((dead < 0) | (dead > upto))

    def visible_insert_values(self, version: Optional[int] = None) -> np.ndarray:
        """Values of inserted rows alive at ``version``."""
        return self._ins_values.values[self.visible_insert_mask(version)]

    @property
    def insert_values(self) -> np.ndarray:
        """The full insert log values (including later-deleted rows)."""
        return self._ins_values.values

    def visible_array(self, version: Optional[int] = None) -> np.ndarray:
        """Materialize the visible rows at ``version`` (base order + inserts)."""
        mask = self.visible_base_mask(version)
        base_part = self._base if mask is None else self._base[mask]
        inserts = self.visible_insert_values(version)
        if inserts.size == 0:
            return base_part
        return np.concatenate([base_part, inserts])

    def visible_count(self, version: Optional[int] = None) -> int:
        """Number of rows visible at ``version``."""
        upto = self.version if version is None else int(version)
        count = self.base_size
        if self._base_dead_seq is not None:
            count -= int(
                np.count_nonzero(
                    (self._base_dead_seq >= 0) & (self._base_dead_seq <= upto)
                )
            )
        seqs = self._ins_seq.values
        dead = self._ins_dead_seq.values
        count += int(np.count_nonzero((seqs <= upto) & ((dead < 0) | (dead > upto))))
        return count

    # ------------------------------------------------------------------
    # Windows (the overlay's view of "what happened since my watermark")
    # ------------------------------------------------------------------
    def insert_window(self, after: int, upto: int) -> np.ndarray:
        """Values inserted with sequence numbers in ``(after, upto]``."""
        seqs = self._ins_seq.values
        lo = int(np.searchsorted(seqs, after, side="right"))
        hi = int(np.searchsorted(seqs, upto, side="right"))
        return self._ins_values.values[lo:hi]

    def delete_window(self, after: int, upto: int) -> np.ndarray:
        """Values deleted with sequence numbers in ``(after, upto]``."""
        seqs = self._del_seq.values
        lo = int(np.searchsorted(seqs, after, side="right"))
        hi = int(np.searchsorted(seqs, upto, side="right"))
        return self._del_values.values[lo:hi]

    def cursors_at(self, seq: int) -> Tuple[int, int]:
        """Insert-log and delete-log positions of the first write after ``seq``
        (an overlay stores them once; :meth:`raw_window` is then two slices)."""
        ins_cursor = int(np.searchsorted(self._ins_seq.values, seq, side="right"))
        # Dense sequence: the writes up to ``seq`` that are not inserts are deletes.
        return ins_cursor, min(int(seq), self.version) - ins_cursor

    def raw_window(self, ins_cursor: int, del_cursor: int) -> Tuple[np.ndarray, np.ndarray]:
        """Inserted and deleted values from the given log positions to the newest."""
        return self._ins_values.tail(ins_cursor), self._del_values.tail(del_cursor)

    # ------------------------------------------------------------------
    @property
    def n_inserts(self) -> int:
        """Total rows ever inserted (including later-deleted ones)."""
        return len(self._ins_values)

    @property
    def n_deletes(self) -> int:
        """Total rows ever deleted."""
        return len(self._del_seq)

    def memory_footprint(self) -> int:
        """Approximate bytes held by the write logs and bitmaps."""
        total = (
            self._ins_values.values.nbytes
            + self._ins_seq.values.nbytes
            + self._ins_dead_seq.values.nbytes
            + self._del_seq.values.nbytes
            + self._del_values.values.nbytes
        )
        if self._base_dead_seq is not None:
            total += self._base_dead_seq.nbytes
        return total

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the write log (pending handles excluded).

        Handles are process-local writer identities; after a restart every
        surviving (checkpointed or WAL-replayed) operation is committed by
        definition, so they are deliberately not part of the durable state.
        """
        state = {
            "version": int(self.version),
            "base_size": int(self.base_size),
            "ins_values": np.array(self._ins_values.values),
            "ins_seq": np.array(self._ins_seq.values),
            "ins_dead_seq": np.array(self._ins_dead_seq.values),
            "del_seq": np.array(self._del_seq.values),
            "del_values": np.array(self._del_values.values),
        }
        if self._base_dead_seq is not None:
            state["base_dead_seq"] = np.array(self._base_dead_seq)
        return state

    @classmethod
    def from_state(cls, base, state: dict, memory_budget=None) -> "DeltaStore":
        """Rebuild a delta store over ``base`` from :meth:`state_dict` output."""
        store = cls(base, memory_budget=memory_budget)
        if int(state["base_size"]) != store.base_size:
            raise InvalidColumnError(
                f"delta-store state covers a base of {state['base_size']} rows, "
                f"but the column base holds {store.base_size}"
            )
        store._ins_values.append(state["ins_values"])
        store._ins_seq.append(state["ins_seq"])
        store._ins_dead_seq.append(state["ins_dead_seq"])
        store._del_seq.append(state["del_seq"])
        store._del_values.append(state["del_values"])
        dead = state.get("base_dead_seq")
        if dead is not None:
            store._base_dead_seq = np.array(dead, dtype=np.int64)
        store.version = int(state["version"])
        return store

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DeltaStore(version={self.version}, inserts={self.n_inserts}, "
            f"deletes={self.n_deletes})"
        )


# ----------------------------------------------------------------------
# Sealed sorted runs (the spilled half of the overlay side buffers)
# ----------------------------------------------------------------------
class SealedRun:
    """One immutable sorted run of values spilled to disk.

    Alongside the sorted values the run stores their prefix sums, so a
    range correction ``(sum, count)`` costs two binary searches plus one
    prefix difference — O(log n) pages touched, exactly like the resident
    side buffers, never a full read of the run.
    """

    def __init__(self, values_sorted: np.ndarray, directory: Optional[str] = None) -> None:
        values_sorted = np.ascontiguousarray(values_sorted)
        if values_sorted.size == 0:
            raise InvalidColumnError("cannot seal an empty run")
        self.size = int(values_sorted.size)
        self.dtype = values_sorted.dtype
        prefix_dtype = np.float64 if values_sorted.dtype.kind == "f" else np.int64
        # Values and prefix sums are both 8-byte elements, so one file of
        # 2n + 1 slots holds both sections.
        backing = _spill_backing(2 * self.size + 1, values_sorted.dtype, directory)
        # Two sections in one unlinked file: values, then prefix sums.
        self.values = backing[: self.size]
        self.values[:] = values_sorted
        prefix_view = backing[self.size :].view(prefix_dtype)[: self.size + 1]
        prefix_view[0] = 0
        np.cumsum(values_sorted, dtype=prefix_dtype, out=prefix_view[1:])
        self.prefix = prefix_view
        if hasattr(backing, "flush"):
            backing.flush()

    def correction(self, low, high) -> Tuple:
        """``(sum, count)`` of run values in ``[low, high]``, as Python scalars."""
        lo = int(np.searchsorted(self.values, low, side="left"))
        hi = int(np.searchsorted(self.values, high, side="right"))
        return (self.prefix[hi] - self.prefix[lo]).item(), hi - lo

    def correct_many(self, lows: np.ndarray, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`correction` over predicate batches."""
        los = np.searchsorted(self.values, lows, side="left")
        his = np.searchsorted(self.values, highs, side="right")
        return self.prefix[his] - self.prefix[los], (his - los).astype(np.int64)

    def materialize(self) -> np.ndarray:
        """The sorted values, resident (used only by O(n) folds)."""
        return np.array(self.values)


class SortedRunStore:
    """A stack of :class:`SealedRun` files plus aggregate corrections.

    The overlay seals its resident sorted buffer into a run whenever it
    outgrows the budget's allowance; corrections then combine the resident
    buffer with every sealed run.  Folding (the merge phase) drains all
    runs back into the index structure and clears the store.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self.runs: List[SealedRun] = []

    def seal(self, values_sorted: np.ndarray) -> None:
        if values_sorted.size:
            self.runs.append(SealedRun(values_sorted, self.directory))

    @property
    def total_rows(self) -> int:
        return sum(run.size for run in self.runs)

    def correction(self, low, high) -> Tuple:
        """Aggregated ``(sum, count)`` over every sealed run."""
        total = 0  # python int: int64 runs stay exact past 2**53
        count = 0
        for run in self.runs:
            part_sum, part_count = run.correction(low, high)
            total = total + part_sum
            count += int(part_count)
        return total, count

    def correct_many(self, lows: np.ndarray, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        sum_dtype = self.runs[0].prefix.dtype if self.runs else np.float64
        sums = np.zeros(len(lows), dtype=sum_dtype)
        counts = np.zeros(len(lows), dtype=np.int64)
        for run in self.runs:
            part_sums, part_counts = run.correct_many(lows, highs)
            sums += part_sums
            counts += part_counts
        return sums, counts

    def merged(self) -> np.ndarray:
        """All run values merged into one sorted resident array."""
        if not self.runs:
            return np.empty(0, dtype=np.int64)
        parts = [run.materialize() for run in self.runs]
        out = np.concatenate(parts)
        out.sort(kind="stable")
        return out

    def clear(self) -> None:
        self.runs = []


# ----------------------------------------------------------------------
# Sorted-merge helpers shared by the index-side delta overlays
# ----------------------------------------------------------------------
def remove_tombstones(sorted_values: np.ndarray, tombstones_sorted: np.ndarray) -> np.ndarray:
    """Remove one occurrence per tombstone value from a sorted array.

    Every tombstone corresponds to exactly one deleted row whose value is
    guaranteed to be present in ``sorted_values`` (aggregate queries make
    equal values interchangeable, so *which* occurrence is removed does not
    matter).  Duplicated tombstone values remove consecutive occurrences.
    """
    if tombstones_sorted.size == 0:
        return sorted_values
    positions = np.searchsorted(sorted_values, tombstones_sorted, side="left")
    first_of_value = np.searchsorted(tombstones_sorted, tombstones_sorted, side="left")
    occurrence = np.arange(tombstones_sorted.size) - first_of_value
    return np.delete(sorted_values, positions + occurrence)


def merge_sorted_with_delta(
    sorted_values: np.ndarray,
    inserts_sorted: np.ndarray,
    tombstones_sorted: np.ndarray,
) -> np.ndarray:
    """Fold sorted insert/tombstone buffers into a sorted array.

    Returns a new sorted array equal to ``sorted_values`` plus the inserts
    minus one occurrence per tombstone.
    """
    combined = sorted_values
    if inserts_sorted.size:
        combined = kernels.merge_sorted(sorted_values, inserts_sorted)
    return remove_tombstones(combined, tombstones_sorted)

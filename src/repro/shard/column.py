"""Sharded columns: one logical column, K physical partitions.

A :class:`ShardedColumn` splits a column's rows into K partitions, each a
normal :class:`~repro.storage.column.Column` with its own delta store —
and, once indexed, its own progressive index with an independent
:class:`~repro.core.phase.IndexLifecycle`.  All columns of one table share
a single :class:`~repro.shard.partition.ShardLayout` (the *shard set*), so
every row lands in the same shard across columns and multi-column
conjunctions keep composing.

Stable global row ids
---------------------
Base rows of shard ``s`` own the contiguous global rid block
``[offsets[s], offsets[s+1])`` — per-shard rid answers concatenate in shard
order into a globally ascending rid array with **no re-sorting**.  Inserted
rows continue from ``total_base_rows`` in table insertion order; the column
keeps the ``(shard, local rid)`` mapping of every insert, and per-shard
insert rids are ascending too, so only the (small) insert tail of a
``rids_where`` answer ever needs a merge.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import DroppedColumnError, InvalidColumnError
from repro.shard.partition import ShardLayout, build_layout, group_column, split_rows
from repro.storage.column import Column, _coerce, _ReadableColumn
from repro.storage.delta import _GrowableArray


class ShardSet:
    """The table-level sharding contract shared by sibling columns."""

    def __init__(self, layout: ShardLayout) -> None:
        self.layout = layout
        #: Names of the converted sibling columns.
        self.column_names: List[str] = []

    @property
    def driving_column(self) -> str:
        return self.layout.driving_column

    def route_values(self, values) -> np.ndarray:
        """Shard assignment of an insert batch (driving-column values)."""
        return self.layout.route_values(values)


class ShardedColumn(_ReadableColumn):
    """One logical column stored as K partition :class:`Column` objects.

    Construct via :func:`shard_column` / :func:`shard_table`, which build
    the shared layout; the constructor wires pre-partitioned pieces.
    """

    def __init__(
        self,
        shards: List[Column],
        layout: ShardLayout,
        shard_set: ShardSet,
        name: str = "value",
    ) -> None:
        if len(shards) != layout.n_shards:
            raise InvalidColumnError(
                f"layout expects {layout.n_shards} shards, got {len(shards)}"
            )
        self._shards = list(shards)
        self._layout = layout
        self._shard_set = shard_set
        self._name = str(name)
        self._dropped = False
        # Delta-aware zone maps: the base extremes, widened by every insert
        # (deletes are conservatively ignored, so a pruned shard provably
        # holds no qualifying row).  Exact scalars in the column's domain —
        # Python ints for an integer column: a float64 rounds an edge past
        # 2**53 and would prune the shard that holds the row.
        self._dtype = shards[0].base_data.dtype
        ranges = [shard.snapshot(0).value_range() for shard in shards]
        self._mins = [low.item() for low, _ in ranges]
        self._maxs = [high.item() for _, high in ranges]
        self._bounds: Optional[tuple] = None
        # Global insert rid k -> owning shard and shard-local rid.
        self._ins_shard = _GrowableArray(np.int64)
        self._ins_local = _GrowableArray(np.int64)
        # Per shard: insert ordinal -> global insert rid (ascending).
        self._shard_ins_global: List[_GrowableArray] = [
            _GrowableArray(np.int64) for _ in range(layout.n_shards)
        ]
        self._visible_cache: Optional[tuple] = None
        #: Callables invoked with every write op (the router widens its
        #: bin bitmaps through this).
        self._write_listeners: List[Callable[[dict], None]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def layout(self) -> ShardLayout:
        """The shared table-level shard layout."""
        return self._layout

    @property
    def shard_set(self) -> ShardSet:
        """The table-level shard set this column belongs to."""
        return self._shard_set

    @property
    def n_shards(self) -> int:
        return self._layout.n_shards

    @property
    def shards(self) -> List[Column]:
        """The per-shard live columns."""
        return self._shards

    @property
    def total_base_rows(self) -> int:
        return self._layout.total_base_rows

    @property
    def version(self) -> int:
        """Monotone write version (sum of the shard versions)."""
        return sum(shard.version for shard in self._shards)

    @property
    def dtype(self) -> np.dtype:
        """The shards' dtype (asking the visible rows would concatenate them)."""
        return self._dtype

    @property
    def dropped(self) -> bool:
        return self._dropped

    def drop(self) -> None:
        self._dropped = True
        for shard in self._shards:
            shard.drop()

    @property
    def is_mapped(self) -> bool:
        """Whether the shard bases are memory-mapped column files."""
        return all(shard.is_mapped for shard in self._shards)

    def __array__(self, dtype=None):
        view = self._view()
        return view if dtype is None else view.astype(dtype, copy=False)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _view(self) -> np.ndarray:
        """All visible rows, concatenated in (shard, local rid) order.

        Every sibling :class:`ShardedColumn` of the table enumerates rows
        in the same (shard, local rid) order, so boolean masks over
        ``.data`` stay row-aligned across columns — the property the
        multi-column ``where()`` path relies on.
        """
        key = tuple(shard.version for shard in self._shards)
        cached = self._visible_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        if len(self._shards) == 1:
            view = self._shards[0].data
        else:
            view = np.concatenate([shard.data for shard in self._shards])
            view.setflags(write=False)
        self._visible_cache = (key, view)
        return view

    def value_range(self):
        ranges = [shard.value_range() for shard in self._shards]
        return min(low for low, _ in ranges), max(high for _, high in ranges)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def shard_bounds(self) -> tuple:
        """Delta-aware per-shard ``(mins, maxs)`` zone maps.

        Arrays in the column's dtype.  Deletes are ignored, so bounds are
        conservative: a shard outside them provably contains no qualifying
        row, while a shard inside them may still be empty.
        """
        return self._zone_maps()[3:]

    def _zone_maps(self) -> tuple:
        """``(mins, maxs, ordered, min_array, max_array)`` for the router.

        ``ordered`` says both scalar lists ascend (a range layout), so a
        predicate's survivors are one run of shards found by bisection.
        Rebuilt only after an insert widened a bound.
        """
        maps = self._bounds
        if maps is None:
            mins, maxs = self._mins, self._maxs
            ordered = all(a <= b for a, b in zip(mins, mins[1:])) and all(
                a <= b for a, b in zip(maxs, maxs[1:])
            )
            arrays = np.array(mins, dtype=self._dtype), np.array(maxs, dtype=self._dtype)
            for array in arrays:  # shared by every caller until the next widening
                array.setflags(write=False)
            maps = self._bounds = (mins, maxs, ordered, *arrays)
        return maps

    # ------------------------------------------------------------------
    # Global rid mapping
    # ------------------------------------------------------------------
    def _locate(self, rids: np.ndarray) -> tuple:
        """Map global rids to ``(shard_ids, local_rids)`` arrays."""
        rids = np.atleast_1d(np.asarray(rids, dtype=np.int64))
        total_base = self._layout.total_base_rows
        n_ins = len(self._ins_shard)
        if rids.size and (rids.min() < 0 or rids.max() >= total_base + n_ins):
            raise InvalidColumnError(
                f"row id out of range (0 .. {total_base + n_ins - 1})"
            )
        shard_ids = np.empty(rids.size, dtype=np.int64)
        local_rids = np.empty(rids.size, dtype=np.int64)
        base_mask = rids < total_base
        if base_mask.any():
            base_rids = rids[base_mask]
            owners = self._layout.shard_of_base_rid(base_rids)
            shard_ids[base_mask] = owners
            local_rids[base_mask] = base_rids - self._layout.offsets[owners]
        if not base_mask.all():
            ins_mask = ~base_mask
            ordinals = rids[ins_mask] - total_base
            shard_ids[ins_mask] = self._ins_shard.values[ordinals]
            local_rids[ins_mask] = self._ins_local.values[ordinals]
        return rids, shard_ids, local_rids

    def values_at(self, rids) -> np.ndarray:
        """Current values of the rows with the given global rids."""
        rids, shard_ids, local_rids = self._locate(rids)
        out = np.empty(rids.size, dtype=self.dtype)
        for shard_number, positions in split_rows(shard_ids, self.n_shards):
            out[positions] = self._shards[shard_number].values_at(local_rids[positions])
        return out

    def rids_where(self, low, high) -> np.ndarray:
        """Global rids of the visible rows in ``[low, high]``, ascending.

        Per-shard base answers concatenate in shard order (the stable
        offset map makes that globally sorted); only the insert tail —
        whose global rids interleave across shards — is merge-sorted, so
        no full row-id set is ever re-sorted.
        """
        offsets = self._layout.offsets
        base_parts: List[np.ndarray] = []
        insert_parts: List[np.ndarray] = []
        mins, maxs = self._mins, self._maxs
        for shard_number, shard in enumerate(self._shards):
            if maxs[shard_number] < low or mins[shard_number] > high:
                continue  # zone map: provably no qualifying rows
            local = shard.rids_where(low, high)
            base_size = shard.base_size
            split = int(np.searchsorted(local, base_size))
            if split:
                base_parts.append(local[:split] + offsets[shard_number])
            if split < local.size:
                ordinals = local[split:] - base_size
                insert_parts.append(
                    self._shard_ins_global[shard_number].values[ordinals]
                )
        base = (
            np.concatenate(base_parts) if base_parts
            else np.empty(0, dtype=np.int64)
        )
        if not insert_parts:
            return base
        inserts = np.concatenate(insert_parts)
        inserts.sort()  # only the delta tail, never the base rid blocks
        return np.concatenate([base, inserts])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _check_writable(self) -> None:
        if self._dropped:
            raise DroppedColumnError(
                f"column {self._name!r} has been dropped; writes are rejected"
            )

    def _notify(self, op: dict) -> None:
        self._visible_cache = None
        for listener in self._write_listeners:
            listener(op)

    def add_write_listener(self, listener: Callable[[dict], None]) -> None:
        self._write_listeners.append(listener)

    def insert(self, values, handle=None, shard_ids=None) -> np.ndarray:
        """Append rows; returns their stable *global* rids.

        ``shard_ids`` carries the table-level routing decision (computed
        once per batch from the driving column).  Without it, only the
        driving column may route itself — inserting into a non-driving
        sharded column directly would desync the sibling columns.
        """
        self._check_writable()
        # Validated before routing, so a rejected batch reaches no shard.
        values = _coerce(np.atleast_1d(np.asarray(values)), dtype=self._dtype, name=self._name)
        if shard_ids is None:
            if self._name != self._shard_set.driving_column:
                raise InvalidColumnError(
                    f"column {self._name!r} is sharded by "
                    f"{self._shard_set.driving_column!r}; insert through the "
                    "table so rows route consistently across columns"
                )
            shard_ids = self._shard_set.route_values(values)
        shard_ids = np.asarray(shard_ids, dtype=np.int64)
        if shard_ids.size != values.size:
            raise InvalidColumnError(
                f"insert() got {values.size} values but {shard_ids.size} shard ids"
            )
        start = self._layout.total_base_rows + len(self._ins_shard)
        local_rids = np.empty(values.size, dtype=np.int64)
        for shard_number, positions in split_rows(shard_ids, self.n_shards):
            chunk = values[positions]
            local_rids[positions] = self._shards[shard_number].insert(chunk, handle=handle)
            self._shard_ins_global[shard_number].append(start + positions)
            chunk_min = self._dtype.type(chunk.min()).item()
            chunk_max = self._dtype.type(chunk.max()).item()
            if chunk_min < self._mins[shard_number]:
                self._mins[shard_number], self._bounds = chunk_min, None
            if chunk_max > self._maxs[shard_number]:
                self._maxs[shard_number], self._bounds = chunk_max, None
        self._ins_shard.append(shard_ids)
        self._ins_local.append(local_rids)
        self._invalidate()
        self._notify({"op": "insert", "shard_ids": shard_ids, "values": values})
        return start + np.arange(values.size, dtype=np.int64)

    def delete_rows(self, rids, handle=None) -> int:
        """Delete the rows with the given global rids (across shards)."""
        self._check_writable()
        rids, shard_ids, local_rids = self._locate(rids)
        deleted = 0
        per_shard: Dict[int, np.ndarray] = {}
        for shard_number, positions in split_rows(shard_ids, self.n_shards):
            locals_here = local_rids[positions]
            per_shard[shard_number] = locals_here
            deleted += self._shards[shard_number].delete_rows(locals_here, handle=handle)
        self._invalidate()
        self._notify({"op": "delete", "per_shard": per_shard})
        return deleted

    def delete_where(self, low, high, handle=None) -> np.ndarray:
        """Delete all visible rows in ``[low, high]``; returns their rids."""
        rids = self.rids_where(low, high)
        if rids.size:
            self.delete_rows(rids, handle=handle)
        return rids

    @property
    def delta(self) -> Optional["ShardedDelta"]:
        """Aggregated write-log facade (``None`` until the first write)."""
        if all(shard.delta is None for shard in self._shards):
            return None
        return ShardedDelta(self._shards)

    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._visible_cache = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedColumn(name={self._name!r}, size={len(self)}, "
            f"shards={self.n_shards}, kind={self._layout.kind!r})"
        )


class ShardedDelta:
    """Aggregate view over the per-shard delta stores.

    Quacks like the slice of :class:`~repro.storage.delta.DeltaStore` the
    session layer consumes: pending-handle bookkeeping for the
    ``PendingDeltaError`` check, commit, and the write counters surfaced
    by ``session.status()``.
    """

    def __init__(self, shards: List[Column]) -> None:
        self._deltas = [shard.delta for shard in shards if shard.delta is not None]

    @property
    def n_inserts(self) -> int:
        return sum(delta.n_inserts for delta in self._deltas)

    @property
    def n_deletes(self) -> int:
        return sum(delta.n_deletes for delta in self._deltas)

    @property
    def version(self) -> int:
        return sum(delta.version for delta in self._deltas)

    def memory_footprint(self) -> int:
        return sum(delta.memory_footprint() for delta in self._deltas)

    def commit(self, handle) -> None:
        for delta in self._deltas:
            delta.commit(handle)

    def foreign_handles(self, handle) -> list:
        foreign: list = []
        for delta in self._deltas:
            for other in delta.foreign_handles(handle):
                if other not in foreign:
                    foreign.append(other)
        return foreign


# ----------------------------------------------------------------------
# Conversion helpers
# ----------------------------------------------------------------------
def shard_column(
    column: Column,
    n_shards: int,
    kind: str = "range",
    shard_set: Optional[ShardSet] = None,
    shard_ids: Optional[np.ndarray] = None,
) -> ShardedColumn:
    """Partition one column, either standalone or following a shard set
    (whose rows ``shard_ids`` assigns)."""
    if column.version:
        raise InvalidColumnError(
            f"column {column.name!r} has delta-store writes; shard the table "
            "before writing to it"
        )
    data = column.base_data
    if shard_set is None:
        layout, shard_ids = build_layout(data, n_shards, kind=kind, driving_column=column.name)
        shard_set = ShardSet(layout)
    elif shard_ids is None:
        raise InvalidColumnError(
            "sharding a sibling column requires the driving column's shard ids"
        )
    layout = shard_set.layout
    shards = [
        Column(values, name=column.name)
        for values in group_column(data, shard_ids, layout.n_shards)
    ]
    sharded = ShardedColumn(shards, layout, shard_set, name=column.name)
    shard_set.column_names.append(column.name)
    return sharded


def shard_table(table, driving_column: str, n_shards: int, kind: str = "range"):
    """Convert every column of ``table`` to :class:`ShardedColumn` in place.

    All columns follow one layout built from ``driving_column``'s values,
    so rows stay aligned across columns (global rid spaces are identical).
    Returns the shared :class:`ShardSet`.  Only legal on a table with no
    delta-store writes — shard before writing.
    """
    driving = table.column(driving_column)
    if isinstance(driving, ShardedColumn):
        return driving.shard_set
    for name in table.column_names:
        if table.column(name).version:
            raise InvalidColumnError(
                f"column {name!r} has delta-store writes; shard the table "
                "before writing to it"
            )
    layout, shard_ids = build_layout(
        driving.base_data, n_shards, kind=kind, driving_column=driving_column
    )
    shard_set = ShardSet(layout)
    for name in table.column_names:
        table._columns[name] = shard_column(
            table.column(name), n_shards, kind=kind, shard_set=shard_set, shard_ids=shard_ids
        )
    return shard_set

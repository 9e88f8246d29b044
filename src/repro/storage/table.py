"""A minimal named-column table with row-oriented writes.

The paper's experiments only touch a single attribute, but a downstream user
of the library typically starts from a table.  :class:`Table` groups columns
by name and is the entry point used by the high-level
:class:`repro.engine.session.IndexingSession` API.

Writes are **row oriented**: :meth:`Table.insert_rows`,
:meth:`Table.delete_rows` and :meth:`Table.update_where` apply the same
stable row ids to *every* column in lockstep, so the columns' delta stores
stay aligned and multi-column conjunctions (``session.where``) remain
correct after any interleaving of writes.  Writing to a single column of a
multi-column table directly (``table.column("a").insert(...)``) would break
that alignment — always go through the table-level methods.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

from repro.errors import InvalidColumnError, UnknownColumnError
from repro.storage.column import Column, _coerce


class Table:
    """A collection of equally sized named columns.

    Parameters
    ----------
    columns:
        Mapping from column name to column data (NumPy arrays, lists or
        :class:`Column` instances).  All columns must have the same length.
    name:
        Optional table name for display purposes.
    """

    def __init__(self, columns: Mapping[str, object], name: str = "table") -> None:
        if not columns:
            raise InvalidColumnError("a table requires at least one column")
        self._name = str(name)
        self._columns: Dict[str, Column] = {}
        length = None
        for col_name, values in columns.items():
            column = values if isinstance(values, Column) else Column(values, name=col_name)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise InvalidColumnError(
                    f"column {col_name!r} has length {len(column)}, expected {length}"
                )
            self._columns[str(col_name)] = column

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Table name."""
        return self._name

    @property
    def column_names(self) -> Iterable[str]:
        """Names of the columns in insertion order."""
        return tuple(self._columns.keys())

    def __len__(self) -> int:
        return len(next(iter(self._columns.values())))

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._columns

    def column(self, column_name: str) -> Column:
        """Return the column registered under ``column_name``."""
        try:
            return self._columns[column_name]
        except KeyError:
            raise UnknownColumnError(
                f"table {self._name!r} has no column {column_name!r}; "
                f"available columns: {sorted(self._columns)}"
            ) from None

    def __getitem__(self, column_name: str) -> Column:
        return self.column(column_name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table(name={self._name!r}, rows={len(self)}, columns={list(self._columns)})"

    # ------------------------------------------------------------------
    # Row-oriented writes
    # ------------------------------------------------------------------
    def insert_rows(self, values_by_column: Mapping[str, object], handle=None) -> np.ndarray:
        """Insert full rows; returns the stable rids of the new rows.

        ``values_by_column`` must provide a value (or equal-length sequence
        of values) for **every** column of the table — partial rows would
        leave the columns misaligned.
        """
        unknown = set(values_by_column) - set(self._columns)
        if unknown:
            raise UnknownColumnError(
                f"insert_rows() references unknown columns {sorted(unknown)}; "
                f"available: {sorted(self._columns)}"
            )
        missing = set(self._columns) - set(values_by_column)
        if missing:
            raise InvalidColumnError(
                f"insert_rows() must cover every column; missing {sorted(missing)}"
            )
        # Every batch is validated before any column is written, so a
        # rejected value (NaN, a fraction into an int64 column) leaves the
        # columns aligned.
        arrays = {
            name: _coerce(
                np.atleast_1d(np.asarray(values)), dtype=self._columns[name].dtype, name=name
            )
            for name, values in values_by_column.items()
        }
        sizes = {array.size for array in arrays.values()}
        if len(sizes) != 1:
            raise InvalidColumnError(
                f"insert_rows() received ragged row data (lengths {sorted(sizes)})"
            )
        # Sharded tables route every column's batch with ONE assignment
        # computed from the driving column's values, so a row lands in the
        # same shard across columns (duck-typed to avoid a storage -> shard
        # import cycle; unsharded columns take the plain path).
        shard_ids = None
        first = next(iter(self._columns.values()))
        shard_set = getattr(first, "shard_set", None)
        if shard_set is not None:
            shard_ids = shard_set.route_values(arrays[shard_set.driving_column])
        rids = None
        for name, column in self._columns.items():
            if shard_ids is not None:
                rids = column.insert(arrays[name], handle=handle, shard_ids=shard_ids)
            else:
                rids = column.insert(arrays[name], handle=handle)
        return rids

    def delete_rows(self, rids, handle=None) -> int:
        """Delete the rows with the given stable rids from every column."""
        deleted = 0
        for column in self._columns.values():
            deleted = column.delete_rows(rids, handle=handle)
        return deleted

    def delete_where(self, column_name: str, low, high, handle=None) -> int:
        """Delete every row whose ``column_name`` value lies in ``[low, high]``."""
        rids = self.column(column_name).rids_where(low, high)
        if rids.size:
            self.delete_rows(rids, handle=handle)
        return int(rids.size)

    def update_plan(self, column_name: str, low, high, value):
        """The insert + delete pair an update decomposes into.

        Returns ``(rids, replacements)``: the stable rids of the matching
        rows and the full replacement rows (target column substituted, all
        other column values preserved).  ``rids`` is empty when nothing
        matches.  Shared by :meth:`update_where` and the durability layer's
        write-ahead logging, so the logged operations are exactly the ones
        the table applies.
        """
        target = self.column(column_name)
        rids = target.rids_where(low, high)
        if rids.size == 0:
            return rids, {}
        replacements = {
            name: (
                np.repeat(np.asarray(value), rids.size)
                if name == column_name
                else column.values_at(rids)
            )
            for name, column in self._columns.items()
        }
        return rids, replacements

    def update_where(self, column_name: str, low, high, value, handle=None) -> int:
        """Set ``column_name`` to ``value`` for every row in ``[low, high]``.

        The matching rows are deleted and re-inserted with the target column
        substituted, so every column sees the same delete + insert pair and
        the stable-rid alignment across columns is preserved.
        """
        rids, replacements = self.update_plan(column_name, low, high, value)
        if rids.size == 0:
            return 0
        # Insert before deleting so an update touching every visible row
        # never passes through an empty column state.
        self.insert_rows(replacements, handle=handle)
        self.delete_rows(rids, handle=handle)
        return int(rids.size)

    def drop_column(self, column_name: str) -> None:
        """Remove ``column_name`` from the table and mark it dropped.

        Writes through stale references to the dropped column raise
        :class:`~repro.errors.DroppedColumnError` instead of silently
        mutating data no query will see.
        """
        if len(self._columns) == 1:
            raise InvalidColumnError(
                f"cannot drop {column_name!r}: a table requires at least one column"
            )
        column = self.column(column_name)
        column.drop()
        del self._columns[column_name]

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, name: str = "table", **columns: np.ndarray) -> "Table":
        """Convenience constructor: ``Table.from_arrays(a=array1, b=array2)``."""
        return cls(columns, name=name)

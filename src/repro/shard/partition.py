"""Shard layouts: how a table's rows map onto K partitions.

A :class:`ShardLayout` is the *table-level* partitioning contract every
:class:`~repro.shard.column.ShardedColumn` of one table shares: the same
per-row shard assignment is applied to every column, so a row's values land
in the same shard across columns and the stable global row-id space stays
aligned for multi-column conjunctions.

Two partitioning schemes are supported:

* **range** — the driving column's value domain is cut at K-1 boundaries
  (quantiles of the base data, so the base rows split evenly even under
  skew).  Clustered predicates then touch few shards and the router's zone
  maps prune the rest — the scheme to pick for range-query workloads.
* **hash** — rows are spread by a 64-bit multiplicative hash of the driving
  value.  Shard sizes stay balanced no matter how the workload writes, but
  every range query touches all shards; pick it when the goal is parallel
  construction bandwidth rather than routing.

Global row ids use the **stable offset map**: base rows of shard ``s``
occupy the contiguous block ``[offsets[s], offsets[s+1])``, so per-shard
rid answers concatenate in shard order into a globally sorted rid array
without any re-sorting; inserted rows continue from ``total_base_rows``
in table insertion order (see :mod:`repro.shard.column`).

Cost of a layout over ``n`` rows: **one sort, one routing pass, one
scatter**.  A range layout sorts a copy of the driving column once and
takes its cuts at ``sorted[ceil(q * (n - 1))]`` for ``q = s / K`` — exactly
what ``np.quantile(values, q, method="higher")`` returns, without its
partition.  Every row's shard id then comes from
:meth:`ShardLayout.route_values`, the same routing inserts take
(:func:`repro.kernels.route_cuts`, compared in the column's own dtype; the
hash of a hash layout).  Last, one stable counting scatter of the row
numbers by shard id (:func:`repro.kernels.scatter`, through
:func:`group_rows`) yields ``source_rows`` and the offset map at once; the
per-shard write loops group their rows with the same call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from repro import kernels
from repro.errors import InvalidColumnError
from repro.storage.column import require_finite

#: Knuth's multiplicative constant for the 64-bit value hash.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _hash_shards(values: np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic shard assignment by 64-bit multiplicative hashing."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        bits = values.astype(np.float64, copy=False).view(np.uint64)
    else:
        bits = values.astype(np.int64, copy=False).view(np.uint64)
    mixed = bits * _HASH_MULTIPLIER
    mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(n_shards)).astype(np.int64)


@dataclass
class ShardLayout:
    """The shared per-table partitioning: scheme, boundaries and offsets.

    Attributes
    ----------
    kind:
        ``"range"`` or ``"hash"``.
    n_shards:
        Number of partitions K.
    driving_column:
        Name of the column whose values decide a row's shard; every other
        column of the table follows its assignment.
    boundaries:
        For range layouts, the K-1 internal cut points (``values <=
        boundaries[0]`` → shard 0, etc.); empty for hash layouts.
    offsets:
        Stable global offset map: base rows of shard ``s`` own global rids
        ``[offsets[s], offsets[s+1])``.  ``offsets[-1] == total_base_rows``.
    """

    kind: str
    n_shards: int
    driving_column: str
    boundaries: np.ndarray
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    @property
    def total_base_rows(self) -> int:
        """Number of base (pre-insert) rows across all shards."""
        return int(self.offsets[-1])

    def shard_sizes(self) -> np.ndarray:
        """Base rows per shard."""
        return np.diff(self.offsets)

    def route_values(self, values) -> np.ndarray:
        """Shard id of every value, vectorized: the one routing definition,
        shared by :func:`build_layout` and every insert."""
        values = np.atleast_1d(np.asarray(values))
        if self.kind == "hash":
            return _hash_shards(values, self.n_shards)
        return kernels.route_cuts(values, self.boundaries)

    def shard_of_base_rid(self, rids: np.ndarray) -> np.ndarray:
        """Shard owning each global *base* rid (``rid < total_base_rows``)."""
        rids = np.asarray(rids, dtype=np.int64)
        return np.searchsorted(self.offsets, rids, side="right") - 1

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "n_shards": int(self.n_shards),
            "driving_column": self.driving_column,
            "base_rows": self.total_base_rows,
            "shard_sizes": [int(size) for size in self.shard_sizes()],
        }


def build_layout(
    values: np.ndarray,
    n_shards: int,
    kind: str = "range",
    driving_column: str = "value",
) -> Tuple[ShardLayout, List[np.ndarray], np.ndarray]:
    """Partition ``values`` into ``n_shards`` and return the shared layout.

    Returns ``(layout, source_rows, shard_ids)`` where ``source_rows[s]``
    holds the original row numbers assigned to shard ``s`` (in their
    original order, so the partition is stable) and ``shard_ids`` is the
    per-row assignment.  Every column of the table is then gathered with
    the same ``source_rows``, keeping rows aligned across shards.

    Range boundaries are value quantiles of the data, so the base rows
    split near-evenly even when the value distribution is skewed.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise InvalidColumnError("shard layouts require non-empty 1-D column data")
    n_shards = int(n_shards)
    if n_shards < 1:
        raise InvalidColumnError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > values.size:
        raise InvalidColumnError(
            f"cannot split {values.size} rows into {n_shards} shards"
        )
    kind = str(kind).lower()
    if kind not in ("range", "hash"):
        raise InvalidColumnError(f"unknown shard layout kind {kind!r}")
    require_finite(values, driving_column)

    boundaries = np.empty(0, dtype=values.dtype)
    if kind == "range" and n_shards > 1:
        # np.quantile(values, q, method="higher") is sorted[ceil((n - 1) * q)],
        # in NumPy's own float arithmetic for the index.
        quantiles = np.arange(1, n_shards) / n_shards
        boundaries = np.sort(values)[np.ceil((values.size - 1) * quantiles).astype(np.intp)]
    layout = ShardLayout(
        kind=kind,
        n_shards=n_shards,
        driving_column=str(driving_column),
        boundaries=boundaries,
    )
    shard_ids = layout.route_values(values)
    rows, layout.offsets = group_rows(shard_ids, n_shards)
    source_rows = [rows[start:stop] for start, stop in zip(layout.offsets, layout.offsets[1:])]
    # Duplicate-heavy data can starve shards: a quantile boundary repeated
    # across cuts leaves some shards empty.  Empty shards are legal (their
    # zone maps prune them everywhere) but a fully empty shard cannot host
    # a Column, so guard by collapsing to fewer effective shards is NOT
    # done here — callers see the honest layout and the sharded column
    # backfills single-row floors instead.
    return layout, source_rows, shard_ids


def group_rows(shard_ids: np.ndarray, n_shards: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row positions grouped by shard, stably: ``(rows, offsets)``.

    Shard ``s`` owns ``rows[offsets[s]:offsets[s + 1]]``, ascending (input
    order) — one counting scatter of the positions by id.  Raises
    :class:`IndexError` on an id outside ``[0, n_shards)``.
    """
    shard_ids = np.ascontiguousarray(shard_ids, dtype=np.int64)
    rows = np.empty(shard_ids.size, dtype=np.int64)
    _, ends = kernels.scatter(
        np.arange(shard_ids.size, dtype=np.int64), shard_ids, n_shards, rows
    )
    offsets = np.zeros(n_shards + 1, dtype=np.int64)
    offsets[1:] = ends
    return rows, offsets


def split_rows(shard_ids: np.ndarray, n_shards: int) -> Iterator[Tuple[int, np.ndarray]]:
    """``(shard, positions)`` for every shard that owns rows, in shard order;
    the positions ascend (:func:`group_rows`)."""
    rows, offsets = group_rows(shard_ids, n_shards)
    for shard in np.flatnonzero(offsets[1:] > offsets[:-1]).tolist():
        yield shard, rows[offsets[shard] : offsets[shard + 1]]


def rebalance_empty_shards(
    layout: ShardLayout, source_rows: List[np.ndarray]
) -> List[np.ndarray]:
    """Give every empty shard one row from the largest shard.

    :class:`~repro.storage.column.Column` rejects empty data, so a layout
    whose quantile cuts starved a shard (duplicate-heavy columns) moves
    single rows from the biggest shard into the starved ones and rebuilds
    the offset map in place.  Range-routing correctness is unaffected —
    the router prunes by *observed* per-shard bounds, not by boundary
    arithmetic.
    """
    sizes = np.array([rows.size for rows in source_rows], dtype=np.int64)
    while (sizes == 0).any():
        donor = int(sizes.argmax())
        if sizes[donor] <= 1:
            raise InvalidColumnError(
                "cannot populate every shard: not enough rows"
            )
        taker = int(np.flatnonzero(sizes == 0)[0])
        source_rows[taker] = source_rows[donor][-1:]
        source_rows[donor] = source_rows[donor][:-1]
        sizes[donor] -= 1
        sizes[taker] += 1
    offsets = np.zeros(layout.n_shards + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    layout.offsets = offsets
    return source_rows

"""Shard layouts: how a table's rows map onto K partitions.

A :class:`ShardLayout` is the *table-level* partitioning contract every
:class:`~repro.shard.column.ShardedColumn` of one table shares: the same
per-row shard assignment is applied to every column, so a row's values land
in the same shard across columns and the stable global row-id space stays
aligned for multi-column conjunctions.

Two partitioning schemes are supported:

* **range** — the driving column's value domain is cut at K-1 boundaries
  (quantiles of a sample of the base data, so the base rows split evenly
  even under skew).  Clustered predicates then touch few shards and the
  router's zone maps prune the rest — the scheme to pick for range-query
  workloads.
* **hash** — rows are spread by a 64-bit multiplicative hash of the driving
  value.  Shard sizes stay balanced no matter how the workload writes, but
  every range query touches all shards; pick it when the goal is parallel
  construction bandwidth rather than routing.

Global row ids use the **stable offset map**: base rows of shard ``s``
occupy the contiguous block ``[offsets[s], offsets[s+1])``, so per-shard
rid answers concatenate in shard order into a globally sorted rid array
without any re-sorting; inserted rows continue from ``total_base_rows``
in table insertion order (see :mod:`repro.shard.column`).

Cost of a layout over ``n`` rows: **one sample sort, two routing passes,
one scatter per column and one more for the cuts**.  A range layout's cuts
are the exact quantiles ``np.quantile(values, s / K, method="higher")`` in
the column's dtype, found without sorting every row (:func:`range_cuts`):
Progressive Bucketsort's sorted strided sample
(:func:`repro.progressive.bucketsort.sorted_sample`) brackets each one, and
a routing pass and a scatter over the brackets gather the few rows inside
them.  Exact cuts put the shards where the data's quantiles are; a
sample's own quantiles would move each by about ``n / (2 sqrt(65536))``
rows, and a range read near a shard's edge onto its neighbour.  Every
row's shard id then comes from :meth:`ShardLayout.route_values`, the same
routing inserts take (:func:`repro.kernels.route_cuts`, compared in the
column's own dtype; the hash of a hash layout).  The one id array groups every column of the
table: one stable counting scatter of the column's values by shard id
(:func:`repro.kernels.scatter`, through :func:`group_column`), whose output
the shards share; the per-shard write loops group their rows the same way
(:func:`split_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from repro import kernels
from repro.errors import InvalidColumnError
from repro.progressive.bucketsort import sorted_sample
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
) -> Tuple[ShardLayout, np.ndarray]:
    """Partition ``values`` into ``n_shards``: ``(layout, shard_ids)``.

    ``shard_ids`` is the per-row assignment; every column of the table is
    grouped by it (:func:`group_column`), keeping rows aligned across
    shards.  Range cuts are the data's quantiles (:func:`range_cuts`), so
    the base rows split evenly even when the value distribution is skewed.
    Duplicate-heavy data can leave a shard empty (one value repeated across
    cuts); a :class:`~repro.storage.column.Column` cannot be empty, so one
    row of the largest shard moves into each empty one
    (:func:`rebalance_empty_shards`) — routing stays exact, since the router
    prunes by *observed* per-shard bounds, not by the cuts.
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

    layout = ShardLayout(kind, n_shards, str(driving_column), np.empty(0, dtype=values.dtype))
    if kind == "range" and n_shards > 1:
        layout.boundaries, at_or_below = range_cuts(values, n_shards)
    shard_ids = layout.route_values(values)
    layout.offsets = np.zeros(n_shards + 1, dtype=np.int64)
    if layout.boundaries.size:
        layout.offsets[1:] = [*at_or_below, values.size]
    else:
        np.cumsum(np.bincount(shard_ids, minlength=n_shards), out=layout.offsets[1:])
    rebalance_empty_shards(layout, shard_ids)
    return layout, shard_ids


def range_cuts(values: np.ndarray, n_shards: int) -> Tuple[np.ndarray, List[int]]:
    """``np.quantile(values, s / n_shards, method="higher")`` for every inner
    ``s``, in the values' dtype, and the count of values at or below each.

    A quantile lies (but for a chance near 1e-9) in a bracket of the sorted
    sample six standard errors wide; brackets that touch (few distinct
    values) or miss (a sample in step with the data) sort every value."""
    quantiles = np.arange(1, n_shards) / n_shards
    ranks = np.ceil((values.size - 1) * quantiles).astype(np.intp)  # np.quantile's "higher" rule
    sample = sorted_sample(values)
    if sample.size < values.size:
        centre, spread = ranks * (sample.size / values.size), 6 * np.sqrt(sample.size * quantiles * (1 - quantiles))
        ends = np.clip(np.stack([np.floor(centre - spread) - 1, np.ceil(centre + spread) + 1], axis=1).ravel(),
                       0, sample.size - 1)
        brackets = sample[ends.astype(np.intp)]
        if (brackets[1:] > brackets[:-1]).all():
            grouped = np.empty_like(values)
            _, stops = kernels.scatter(values, kernels.route_cuts(values, brackets), brackets.size + 1, grouped)
            below, inside = stops[0:-1:2].tolist(), stops[1::2].tolist()
            if all(low <= rank < high for low, rank, high in zip(below, ranks.tolist(), inside)):
                bands = [np.partition(grouped[low:high], rank - low) for low, rank, high in zip(below, ranks, inside)]
                cuts = np.array([band[rank - low] for band, low, rank in zip(bands, below, ranks)], dtype=values.dtype)
                return cuts, [low + int(np.count_nonzero(band <= cut)) for band, low, cut in zip(bands, below, cuts)]
    ordered = sample if sample.size == values.size else np.sort(values)
    cuts = ordered[ranks]
    return cuts, np.searchsorted(ordered, cuts, side="right").tolist()


def group_column(values: np.ndarray, shard_ids: np.ndarray, n_shards: int) -> List[np.ndarray]:
    """``values`` grouped by shard, stably: one view per shard into one
    scattered array, in input order within each shard."""
    values = np.asarray(values)
    grouped = np.empty_like(values)
    _, ends = kernels.scatter(values, shard_ids, n_shards, grouped)
    return np.split(grouped, ends[:-1])


def split_rows(shard_ids: np.ndarray, n_shards: int) -> Iterator[Tuple[int, np.ndarray]]:
    """``(shard, positions)`` for every shard that owns rows, in shard order;
    the positions ascend.  Raises :class:`IndexError` on an id outside
    ``[0, n_shards)``."""
    shard_ids = np.ascontiguousarray(shard_ids, dtype=np.int64)
    rows = np.empty(shard_ids.size, dtype=np.int64)
    counts, ends = kernels.scatter(np.arange(shard_ids.size, dtype=np.int64), shard_ids, n_shards, rows)
    for shard in np.flatnonzero(counts).tolist():
        yield shard, rows[ends[shard] - counts[shard] : ends[shard]]


def rebalance_empty_shards(layout: ShardLayout, shard_ids: np.ndarray) -> None:
    """Give every empty shard one row from the largest shard, in place.

    The donor gives its last row; ``shard_ids`` and the layout's offset map
    are updated.  Raises :class:`InvalidColumnError` when there are not
    enough rows.
    """
    sizes = layout.shard_sizes()
    while (sizes == 0).any():
        donor = int(sizes.argmax())
        if sizes[donor] <= 1:
            raise InvalidColumnError(
                "cannot populate every shard: not enough rows"
            )
        taker = int(np.flatnonzero(sizes == 0)[0])
        shard_ids[np.flatnonzero(shard_ids == donor)[-1]] = taker
        sizes[donor] -= 1
        sizes[taker] += 1
    np.cumsum(sizes, out=layout.offsets[1:])

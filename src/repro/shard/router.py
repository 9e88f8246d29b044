"""Zone-map shard routing: prune shards a predicate cannot touch.

The :class:`ShardRouter` keeps two zone-map layers per shard, both served
by the shared vectorized primitives in :mod:`repro.shard.zonemaps`:

* **delta-aware min/max bounds** — base extremes (immutable) widened by
  every insert's extremes; deletes are conservatively ignored, so a shard
  outside its bounds *provably* contains no qualifying row;
* optional **bin occupancy bitmaps** — 64 equi-width bins over the global
  domain, one ``uint64`` per shard, refined with every insert.  For range
  layouts the interval bounds already carry the routing; bitmaps earn
  their keep on hash layouts with clustered values, where the interval
  test alone cannot prune.

Pruned shards never receive the query, and under the pooled budget
controller their interactivity budget flows to the surviving shards.

One predicate is routed with scalar compares against the column's exact
bounds (no array is built per query); a batch goes through the vectorized
overlap matrix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

import numpy as np

from repro.shard import zonemaps
from repro.shard.column import ShardedColumn
from repro.shard.partition import split_rows


class ShardRouter:
    """Routes range predicates to the shards that may contain matches.

    Parameters
    ----------
    column:
        The sharded column whose shard bounds drive the routing.
    bin_bits:
        Build per-shard occupancy bitmaps (one pass over the base data) in
        addition to the min/max bounds.  Adds pruning power inside the
        bounds for hash layouts; range layouts rarely need it.
    n_bins:
        Number of equi-width bins for the bitmaps (max 64).
    """

    def __init__(
        self,
        column: ShardedColumn,
        bin_bits: bool = False,
        n_bins: int = zonemaps.MAX_BINS,
    ) -> None:
        self._column = column
        self._edges: Optional[np.ndarray] = None
        self._bitmaps: Optional[np.ndarray] = None
        self._n_shards = column.n_shards
        self.queries_routed = 0
        self.shards_dispatched = 0
        if bin_bits:
            low = float(min(s.snapshot(0).min() for s in column.shards))
            high = float(max(s.snapshot(0).max() for s in column.shards))
            self._edges = zonemaps.bin_edges(low, high, n_bins)
            self._bitmaps = np.array(
                [
                    zonemaps.occupancy_bitmap(self._edges, shard.base_data)
                    for shard in column.shards
                ],
                dtype=np.uint64,
            )
            column.add_write_listener(self._absorb_write)

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def shards_pruned(self) -> int:
        """Dispatches the zone maps avoided: every query could touch K shards."""
        return self.queries_routed * self._n_shards - self.shards_dispatched

    def _absorb_write(self, op: dict) -> None:
        """Widen the bitmaps with inserted values (deletes are ignored)."""
        if op.get("op") != "insert" or self._bitmaps is None:
            return
        values = op["values"]
        for shard_number, positions in split_rows(op["shard_ids"], self._n_shards):
            self._bitmaps[shard_number] |= zonemaps.occupancy_bitmap(
                self._edges, values[positions]
            )

    # ------------------------------------------------------------------
    def route(self, low, high) -> np.ndarray:
        """Shard ids (ascending) that may contain rows in ``[low, high]``."""
        survivors = self._route(low, high)
        if type(survivors) is range:
            return np.arange(survivors.start, survivors.stop)
        return np.array(survivors, dtype=np.int64)

    def _route(self, low, high):
        """:meth:`route` as a plain sequence, for the facade's read loop.

        Scalar compares against the column's exact bounds: over ordered
        bounds (range layouts) the survivors are the run of shards between
        two bisections, otherwise one pass over the shards.
        """
        mins, maxs, ordered, _, _ = self._column._zone_maps()
        if ordered:
            survivors = range(bisect_left(maxs, low), bisect_right(mins, high))
        else:
            survivors = [
                shard for shard, bound in enumerate(maxs)
                if bound >= low and mins[shard] <= high
            ]
        if self._bitmaps is not None and survivors:
            query = zonemaps.query_bitmap(self._edges, low, high)
            survivors = [s for s in survivors if self._bitmaps[s] & query]
        self.queries_routed += 1
        self.shards_dispatched += len(survivors)
        return survivors

    def route_many(self, lows, highs) -> np.ndarray:
        """Boolean ``(n_queries, n_shards)`` dispatch matrix for a batch."""
        mins, maxs = self._column.shard_bounds()
        matrix = zonemaps.interval_overlap_matrix(mins, maxs, lows, highs)
        if self._bitmaps is not None:
            for query_number, (low, high) in enumerate(zip(np.asarray(lows), np.asarray(highs))):
                if matrix[query_number].any():
                    query = zonemaps.query_bitmap(self._edges, low, high)
                    matrix[query_number] &= (self._bitmaps & query).astype(bool)
        self.queries_routed += matrix.shape[0]
        self.shards_dispatched += int(matrix.sum())
        return matrix

    # ------------------------------------------------------------------
    def pruned_fraction(self) -> float:
        """Fraction of shard dispatches the zone maps avoided so far."""
        total = self.shards_pruned + self.shards_dispatched
        return self.shards_pruned / total if total else 0.0

    def describe(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "bin_bits": self._bitmaps is not None,
            "queries_routed": int(self.queries_routed),
            "shards_dispatched": int(self.shards_dispatched),
            "shards_pruned": int(self.shards_pruned),
            "pruned_fraction": self.pruned_fraction(),
        }

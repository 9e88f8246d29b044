"""Progressive hash index (future work, Section 6 of the paper).

A hash table over the column values is built ``delta * N`` elements per
query.  Point queries use the hash table for the already-inserted prefix of
the column and scan the remaining tail; range queries always scan (a hash
table cannot prune ranges), so this extension only pays off for point-query
workloads — which is exactly the trade-off the paper's future-work section
describes.

The "hash table" maps a value to the aggregate of its occurrences in the
indexed prefix (sum and count), which is all the paper's ``SUM``/``COUNT``
queries need.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.policy import BudgetPolicy
from repro.core.calibration import CostConstants
from repro.core.cost_model import CostBreakdown
from repro.core.index import BaseIndex
from repro.core.phase import IndexPhase
from repro.core.query import Predicate, QueryResult
from repro.storage.column import Column


class ProgressiveHashIndex(BaseIndex):
    """A progressively built hash index accelerating point queries.

    Parameters
    ----------
    column:
        Column to index.
    budget:
        Indexing-budget controller; the full phase work is one pass that
        hashes every element of the column.
    constants:
        Cost-model constants.
    """

    name = "PHASH"
    description = "Progressive hash index (future-work extension)"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        self._table: Dict[int, tuple] = {}
        self._elements_inserted = 0

    # ------------------------------------------------------------------
    @property
    def elements_inserted(self) -> int:
        """Number of column elements already present in the hash table."""
        return self._elements_inserted

    def memory_footprint(self) -> int:
        # Rough estimate: one dict slot (key + sum + count) per distinct value.
        return len(self._table) * 3 * 8

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        keys = np.fromiter(self._table.keys(), dtype=np.int64, count=len(self._table))
        # Keep the sum dtype of the column: int64 sums persisted as float64
        # could round above 2**53.
        sum_dtype = np.int64 if self._column.dtype.kind in ("i", "u") else np.float64
        sums = np.empty(keys.size, dtype=sum_dtype)
        counts = np.empty(keys.size, dtype=np.int64)
        for number, key in enumerate(keys.tolist()):
            value_sum, count = self._table[key]
            sums[number] = value_sum
            counts[number] = int(count)
        return {
            "elements_inserted": int(self._elements_inserted),
            "keys": keys,
            "sums": sums,
            "counts": counts,
        }

    def _load_family_state(self, state: dict) -> None:
        self._elements_inserted = int(state.get("elements_inserted", 0))
        keys = np.asarray(state.get("keys", np.empty(0, dtype=np.int64)))
        sums = np.asarray(state.get("sums", np.empty(0)))
        counts = np.asarray(state.get("counts", np.empty(0, dtype=np.int64)))
        int_column = self._column.dtype.kind in ("i", "u")
        self._table = {
            int(key): ((int(s) if int_column else float(s)), int(c))
            for key, s, c in zip(keys.tolist(), sums.tolist(), counts.tolist())
        }

    # ------------------------------------------------------------------
    def _execute(self, predicate: Predicate) -> QueryResult:
        n = len(self._column)
        if self.phase is IndexPhase.INACTIVE:
            self._register_scan_time()
            self._advance_phase(IndexPhase.CREATION)

        scan_time = self._cost_model.scan_time(n)
        build_time = self._cost_model.write_time(n) + n * self._cost_model.constants.phi
        rho = self._elements_inserted / n
        if predicate.is_point:
            base_cost = (1.0 - rho) * scan_time + self._cost_model.constants.phi
        else:
            base_cost = scan_time
        delta = self._decide(
            build_time,
            lambda delta: CostBreakdown(scan=base_cost, lookup=0.0, indexing=delta * build_time),
            max_delta=1.0 - rho,
        ).delta
        to_insert = min(n - self._elements_inserted, int(np.ceil(delta * n))) if delta > 0 else 0

        if to_insert > 0:
            self._insert_chunk(to_insert)

        if predicate.is_point and self._elements_inserted > 0:
            aggregate = self._table.get(int(predicate.low), (0, 0))
            result = QueryResult(aggregate[0], aggregate[1])
            result += self._scan_column(predicate, start=self._elements_inserted)
        else:
            result = self._scan_column(predicate)

        self.last_stats.elements_indexed = to_insert

        if self._elements_inserted >= n and self.phase is IndexPhase.CREATION:
            self._advance_phase(IndexPhase.CONVERGED)
        return result

    def _insert_chunk(self, count: int) -> None:
        start = self._elements_inserted
        stop = min(len(self._column), start + count)
        chunk = self._column.data[start:stop]
        values, sums, counts = _aggregate_chunk(chunk)
        for value, value_sum, value_count in zip(values, sums, counts):
            previous = self._table.get(int(value), (0, 0))
            self._table[int(value)] = (previous[0] + value_sum, previous[1] + int(value_count))
        self._elements_inserted = stop


def _aggregate_chunk(chunk: np.ndarray):
    """Group a chunk by value, returning (values, per-value sums, counts)."""
    values, inverse, counts = np.unique(chunk, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=chunk.astype(np.float64))
    # Integer columns should keep exact integer sums.
    if np.issubdtype(chunk.dtype, np.integer):
        sums = values.astype(np.int64) * counts
    return values, sums, counts

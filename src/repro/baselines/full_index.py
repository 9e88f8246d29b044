"""Full-index baseline (paper: "FI").

The first query pays for copying and sorting the column; every subsequent
query is answered from the sorted array through the same
:class:`~repro.core.query.SortedLeaf` the converged progressive indexes
use.  This baseline has by far the most expensive first query (the paper
reports 50x the scan cost) but the lowest cumulative time on long
workloads.  The paper bulk-loads a B+-tree over the sorted array; reads
never descend one here, so none is built.
"""

from __future__ import annotations

import numpy as np

from repro.core.index import BaseIndex
from repro.core.phase import IndexPhase
from repro.core.query import Predicate, QueryResult, SortedLeaf
from repro.errors import IndexStateError
from repro.storage.delta import merge_sorted_with_delta


class FullIndex(BaseIndex):
    """Sort the column on the first query, then read the sorted array only.

    Parameters
    ----------
    column:
        Column to index.
    """

    name = "FI"
    description = "A-priori full index (copy and sort on first query)"
    eager_batch = True
    #: Once built, answering is searchsorted over the frozen sorted array
    #: (plus an idempotent prefix-sum cache) — safe for concurrent reader
    #: threads.  The serving scheduler additionally requires the
    #: converged phase, so the first-touch build stays serialized.
    concurrent_reads = True
    #: The sorted backbone makes delta folding a single merge, so the
    #: baseline participates in the budget-priced MERGE phase.
    can_fold = True

    def memory_footprint(self) -> int:
        if self._leaf is None:
            return 0
        return self._leaf.values.nbytes + self._leaf.prefix_bytes()

    def _execute(self, predicate: Predicate) -> QueryResult:
        if self._leaf is None:
            self._build()
            self.last_stats.elements_indexed = len(self._column)
        return self._execute_converged(predicate)

    def _build(self) -> None:
        """Copy and sort the column (the first-query work).

        The lifecycle jumps straight from ``INACTIVE`` to ``CONVERGED`` —
        the baseline pays for the complete index up front.
        """
        sorted_values = self._column.copy_data()
        sorted_values.sort()
        self._leaf = SortedLeaf(sorted_values)
        self._advance_phase(IndexPhase.CONVERGED)

    def _search_many(self, lows, highs):
        """Batched answering over the sorted array.

        Builds the index first if this batch is the very first operation —
        the same work a sequential first query pays.
        """
        if self._leaf is None:
            self._build()
        return self._leaf.range_many(lows, highs)

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        state = {"built": self._leaf is not None}
        if self._leaf is not None:
            state["sorted_values"] = np.array(self._leaf.values)
        return state

    def _load_family_state(self, state: dict) -> None:
        if state.keys() != ({"built", "sorted_values"} if state["built"] else {"built"}):
            raise IndexStateError(f"FI payload with keys {sorted(state)}")
        if state["built"]:
            self._leaf = SortedLeaf(self._checked_leaf(state["sorted_values"]))

    def _fold_delta(self, inserts_sorted, tombstones_sorted) -> bool:
        """Merge the buffered delta into the sorted array."""
        if self._leaf is None:
            return False
        self._leaf = SortedLeaf(merge_sorted_with_delta(self._leaf.values, inserts_sorted, tombstones_sorted))
        return True

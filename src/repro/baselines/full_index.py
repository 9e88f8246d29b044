"""Full-index baseline (paper: "FI").

The first query pays for sorting the column and bulk loading it into a
B+-tree; every subsequent query is answered from the index.  This baseline
has by far the most expensive first query (the paper reports 50x the scan
cost) but the lowest cumulative time on long workloads.

The tree is built because its bulk load *is* the first-query cost the paper
reports; reads go to the sorted array under it through the same
:class:`~repro.core.query.SortedLeaf` the converged progressive indexes use.
"""

from __future__ import annotations

import numpy as np

from repro.btree.bplus_tree import DEFAULT_FANOUT, BPlusTree
from repro.core.calibration import CostConstants
from repro.core.cost_model import CostBreakdown
from repro.core.index import BaseIndex
from repro.core.phase import IndexPhase
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult, SortedLeaf
from repro.storage.column import Column
from repro.storage.delta import merge_sorted_with_delta


class FullIndex(BaseIndex):
    """Build a complete B+-tree on the first query, then use it exclusively.

    Parameters
    ----------
    column:
        Column to index.
    fanout:
        B+-tree fanout used by the bulk load.
    """

    name = "FI"
    description = "A-priori full index (sort + B+-tree bulk load on first query)"
    eager_batch = True
    #: Once built, answering is searchsorted over the frozen sorted array
    #: (plus an idempotent prefix-sum cache) — safe for concurrent reader
    #: threads.  The serving scheduler additionally requires the
    #: converged phase, so the first-touch bulk build stays serialized.
    concurrent_reads = True
    #: The sorted backbone makes delta folding a single merge + bulk reload,
    #: so the baseline participates in the budget-priced MERGE phase.
    can_fold = True

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        self.fanout = int(fanout)
        self._tree: BPlusTree | None = None

    @property
    def tree(self) -> BPlusTree | None:
        """The bulk-loaded B+-tree (``None`` before the first query)."""
        return self._tree

    def memory_footprint(self) -> int:
        if self._tree is None:
            return 0
        return self._tree.memory_footprint() + self._leaf.prefix_bytes()

    def _execute(self, predicate: Predicate) -> QueryResult:
        if self._tree is None:
            self._build()
            self.last_stats.elements_indexed = len(self._column)
        return self._execute_converged(predicate)

    def _converged_count_cost(self, match_count: int) -> CostBreakdown:
        return CostBreakdown(
            scan=self._cost_model.scan_time(match_count),
            lookup=self._cost_model.binary_search_time(len(self._column)),
            indexing=0.0,
        )

    def _set_sorted(self, sorted_values: np.ndarray) -> None:
        """Adopt ``sorted_values``: bulk load the tree, point the reads at it."""
        self._tree = BPlusTree.bulk_load(sorted_values, fanout=self.fanout)
        self._leaf = SortedLeaf(sorted_values)

    def _build(self) -> None:
        """Sort the column and bulk load the B+-tree (the first-query work).

        The lifecycle jumps straight from ``INACTIVE`` to ``CONVERGED`` —
        the baseline pays for the complete index up front.
        """
        sorted_values = self._column.copy_data()
        sorted_values.sort()
        self._set_sorted(sorted_values)
        self._advance_phase(IndexPhase.CONVERGED)

    def _search_many(self, lows, highs):
        """Batched answering over the sorted array backing the B+-tree.

        Builds the index first if this batch is the very first operation —
        the same work a sequential first query pays.
        """
        if self._tree is None:
            self._build()
        return self._leaf.range_many(lows, highs)

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        state = {"built": self._tree is not None, "fanout": self.fanout}
        if self._leaf is not None:
            state["sorted_values"] = np.array(self._leaf.values)
        return state

    def _load_family_state(self, state: dict) -> None:
        self.fanout = int(state.get("fanout", self.fanout))
        if not state.get("built"):
            return
        self._set_sorted(np.asarray(state["sorted_values"]))

    def _fold_delta(self, inserts_sorted, tombstones_sorted) -> bool:
        """Merge the buffered delta into the sorted array, bulk reload the tree."""
        if self._tree is None:
            return False
        self._set_sorted(merge_sorted_with_delta(
            self._leaf.values, inserts_sorted, tombstones_sorted
        ))
        return True

    def _fold_base_size(self) -> int:
        if self._leaf is None:
            return len(self._column)
        return int(self._leaf.values.size)

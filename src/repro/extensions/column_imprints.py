"""Progressive column imprints (future work, Section 6 of the paper).

Column imprints (Sidirourgos & Kersten, SIGMOD 2013) are a secondary index
that stores, per cache-line-sized block of the column, a small bitmap of the
value ranges (bins) occurring in that block.  A range query only scans the
blocks whose bitmap intersects the query's bins.

The progressive variant builds the imprints ``delta * N`` elements per query:
blocks that already have an imprint are pruned with it, the not-yet-imprinted
tail of the column is scanned unconditionally.

The bitmap math (bin edges, per-block occupancy, query bitmaps, candidate
selection) is the shared vectorized machinery of
:mod:`repro.shard.zonemaps` — the same code that drives the shard router's
zone-map check, applied here at cache-line-block granularity.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import BudgetPolicy
from repro.core.calibration import CostConstants
from repro.core.cost_model import CostBreakdown
from repro.core.index import BaseIndex
from repro.core.phase import IndexPhase
from repro.core.query import Predicate, QueryResult
from repro.shard import zonemaps
from repro.storage.column import Column

#: Number of value bins per imprint bitmap (the original paper uses up to 64,
#: one bit per bin, so a bitmap fits a machine word).
DEFAULT_BINS = 64

#: Number of column elements summarised by one imprint bitmap.
DEFAULT_BLOCK_ELEMENTS = 64


class ProgressiveColumnImprints(BaseIndex):
    """Progressively built column imprints for range-query pruning.

    Parameters
    ----------
    column:
        Column to index.
    budget:
        Indexing-budget controller.
    constants:
        Cost-model constants.
    n_bins:
        Number of equi-width value bins per bitmap.
    block_elements:
        Number of consecutive column elements covered by one bitmap.
    """

    name = "PIMP"
    description = "Progressive column imprints (future-work extension)"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        n_bins: int = DEFAULT_BINS,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        if not 2 <= n_bins <= zonemaps.MAX_BINS:
            raise ValueError(
                f"n_bins must be within [2, {zonemaps.MAX_BINS}] "
                f"(one bit per bin in a uint64 bitmap), got {n_bins}"
            )
        if block_elements < 1:
            raise ValueError(f"block_elements must be positive, got {block_elements}")
        self.n_bins = int(n_bins)
        self.block_elements = int(block_elements)
        self._bin_edges: np.ndarray | None = None
        self._imprints: np.ndarray | None = None     # (n_blocks,) uint64 bitmaps
        self._blocks_imprinted = 0
        self._n_blocks = 0

    # ------------------------------------------------------------------
    @property
    def blocks_imprinted(self) -> int:
        """Number of blocks whose imprint bitmap has been built."""
        return self._blocks_imprinted

    def memory_footprint(self) -> int:
        if self._imprints is None:
            return 0
        return int(self._imprints.nbytes) + int(self._bin_edges.nbytes)

    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        n = len(self._column)
        self._bin_edges = zonemaps.bin_edges(
            float(self._column.min()), float(self._column.max()), self.n_bins
        )
        self._n_blocks = int(np.ceil(n / self.block_elements))
        self._imprints = np.zeros(self._n_blocks, dtype=np.uint64)
        self._blocks_imprinted = 0
        self._register_scan_time()
        self._advance_phase(IndexPhase.CREATION)

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        state = {
            "initialized": self._imprints is not None,
            "blocks_imprinted": int(self._blocks_imprinted),
            "n_blocks": int(self._n_blocks),
        }
        if self._imprints is not None:
            state["bin_edges"] = np.asarray(self._bin_edges, dtype=np.float64)
            state["imprints"] = np.array(self._imprints)
        return state

    def _load_family_state(self, state: dict) -> None:
        if not state.get("initialized"):
            return
        self._bin_edges = np.asarray(state["bin_edges"], dtype=np.float64)
        self._imprints = np.asarray(state["imprints"], dtype=np.uint64)
        self._blocks_imprinted = int(state["blocks_imprinted"])
        self._n_blocks = int(state["n_blocks"])

    def _imprint_blocks(self, block_budget: int) -> int:
        start_block = self._blocks_imprinted
        stop_block = min(self._n_blocks, start_block + int(block_budget))
        if stop_block <= start_block:
            return 0
        data = self._column.data
        start = start_block * self.block_elements
        stop = min(len(self._column), stop_block * self.block_elements)
        self._imprints[start_block:stop_block] = zonemaps.occupancy_bitmaps(
            self._bin_edges, data[start:stop], self.block_elements
        )
        self._blocks_imprinted = stop_block
        return stop_block - start_block

    def _query_bitmap(self, predicate: Predicate) -> np.uint64:
        return zonemaps.query_bitmap(self._bin_edges, predicate.low, predicate.high)

    # ------------------------------------------------------------------
    def _execute(self, predicate: Predicate) -> QueryResult:
        if self.phase is IndexPhase.INACTIVE:
            self._initialize()
        n = len(self._column)
        scan_time = self._cost_model.scan_time(n)
        build_time = self._cost_model.write_time(n)
        rho = self._blocks_imprinted / max(1, self._n_blocks)
        base_cost = scan_time  # pessimistic: pruning factor is data dependent
        delta = self._decide(
            build_time,
            lambda delta: CostBreakdown(scan=base_cost, lookup=0.0, indexing=delta * build_time),
            max_delta=1.0 - rho,
        ).delta
        block_budget = int(np.ceil(delta * self._n_blocks)) if delta > 0 else 0
        built = self._imprint_blocks(block_budget) if block_budget > 0 else 0

        result = self._answer(predicate)

        self.last_stats.elements_indexed = built * self.block_elements

        if self._blocks_imprinted >= self._n_blocks and self.phase is IndexPhase.CREATION:
            self._advance_phase(IndexPhase.CONVERGED)
        return result

    def _answer(self, predicate: Predicate) -> QueryResult:
        data = self._column.data
        query_bitmap = self._query_bitmap(predicate)
        result = QueryResult.empty()
        if self._blocks_imprinted > 0:
            bitmaps = self._imprints[: self._blocks_imprinted]
            candidates = zonemaps.bitmap_candidates(bitmaps, query_bitmap)
            for block in candidates:
                start = int(block) * self.block_elements
                stop = min(len(self._column), start + self.block_elements)
                segment = data[start:stop]
                result += QueryResult.from_masked(segment, predicate.mask(segment))
        tail_start = self._blocks_imprinted * self.block_elements
        if tail_start < len(self._column):
            result += self._scan_column(predicate, start=tail_start)
        return result

    def pruning_fraction(self, predicate: Predicate) -> float:
        """Fraction of imprinted blocks a query can skip (1.0 = skip all)."""
        if self._blocks_imprinted == 0:
            return 0.0
        bitmaps = self._imprints[: self._blocks_imprinted]
        candidates = int(np.count_nonzero(bitmaps & self._query_bitmap(predicate)))
        return 1.0 - candidates / self._blocks_imprinted

"""Shared machinery of all database-cracking indexes.

Every cracking variant follows the same outer structure: the first query pays
for copying the column into a :class:`~repro.cracking.cracker_column.CrackerColumn`,
every query physically reorganises some pieces of that copy, and the answer is
aggregated from the (partially) reorganised data.  The variants only differ in
*where* they crack, which is the single method subclasses implement.

Mutable columns are handled by the shared
:class:`~repro.core.overlay.DeltaOverlay` mixin (inherited through
:class:`~repro.core.index.BaseIndex`): the cracker column is materialised
from the snapshot pinned at index creation, and every answer is corrected
with the delta-store writes that arrived afterwards.  Cracking never
converges — it refines forever — so it never folds the delta into its
pieces either: absorbed writes stay in the overlay's sorted side buffers,
answered with binary searches, which matches cracking's
pay-only-for-what-you-touch philosophy (no bulk reorganisation, ever).
"""

from __future__ import annotations

import abc
import json

import numpy as np

from repro.core.calibration import CostConstants
from repro.core.index import BaseIndex
from repro.core.phase import IndexPhase
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult
from repro.cracking.cracker_column import CrackerColumn
from repro.cracking.cracker_index import CrackerIndex
from repro.errors import IndexStateError
from repro.storage.column import Column
from repro.storage.membudget import budget_of


class CrackingIndexBase(BaseIndex):
    """Base class of the adaptive-indexing (cracking) algorithms.

    Parameters
    ----------
    column:
        Column to index.
    budget:
        Accepted for interface compatibility; cracking algorithms do not use
        an indexing budget (their per-query work is dictated by the
        algorithm, which is exactly the robustness problem the paper's
        progressive indexes address).
    constants:
        Cost-model constants (used only for reporting).
    rng:
        Random generator used by the stochastic variants.
    """

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        self._rng = rng or np.random.default_rng(7)
        self._cracker: CrackerColumn | None = None

    # ------------------------------------------------------------------
    @property
    def cracker(self) -> CrackerColumn | None:
        """The cracker column (``None`` before the first query)."""
        return self._cracker

    #: Cracking performs no budgeted progressive refinement, so the batch
    #: executor should hand the whole batch to :meth:`search_many` at once.
    eager_batch = True

    def memory_footprint(self) -> int:
        return self._cracker.memory_footprint() if self._cracker is not None else 0

    def _search_many(self, lows, highs):
        """Batched answering via one crack per distinct bound of the batch.

        Materialises the cracker column if this is the first operation (the
        same first-query copy a sequential run pays), cracks every distinct
        bound once, and aggregates all queries from a single prefix-sum pass.
        Variant-specific per-query policies (random pivots, swap caps) are
        side effects of sequential execution that do not change answers, so
        the batch path shares one implementation across all variants.
        """
        if self._cracker is None:
            self._materialize()
        return self._cracker.search_many(lows, highs)

    # ------------------------------------------------------------------
    # Persistence (checkpointing; shared by all five variants)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        state = {"materialized": self._cracker is not None}
        try:
            state["rng_state"] = json.dumps(self._rng.bit_generator.state)
        except TypeError:  # pragma: no cover - exotic bit generators
            state["rng_state"] = None
        if self._cracker is not None:
            state["values"] = np.array(self._cracker.values)
            state["swaps"] = int(self._cracker.swaps_performed)
            state["cracker_index"] = self._cracker.index.state_dict()
        return state

    def _load_family_state(self, state: dict) -> None:
        rng_state = state["rng_state"]
        if rng_state:
            self._rng.bit_generator.state = json.loads(rng_state)
        if state["materialized"] is not (self.phase is not IndexPhase.INACTIVE):
            raise IndexStateError(f"materialized {state['materialized']!r} in phase {self.phase.name}")
        if not state["materialized"]:
            return
        cracker = CrackerColumn.__new__(CrackerColumn)
        cracker._column = self._column
        cracker.values = values = state["values"]
        if values.dtype != self._column.dtype or values.shape != (len(self._column),):
            raise IndexStateError("the cracker column does not match the column")
        cracker.index = CrackerIndex.from_state(state["cracker_index"], values)
        cracker.swaps_performed = int(state["swaps"])
        budget = budget_of(self._column)
        cracker._scratch = budget.scratch if budget is not None else None
        cracker._chunk_rows = (
            budget.chunk_rows(cracker.values.dtype) if budget is not None else None
        )
        self._cracker = cracker

    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        """First-touch copy of the column into the cracker.

        Cracking then refines forever; it offers no deterministic
        convergence, which Table 2 of the paper records as "x" — the
        lifecycle enters ``REFINEMENT`` and never leaves it.
        """
        self._cracker = CrackerColumn(self._column)
        self._advance_phase(IndexPhase.REFINEMENT)
        self._on_first_query()

    def _execute(self, predicate: Predicate) -> QueryResult:
        if self._cracker is None:
            self._materialize()
            self.last_stats.elements_indexed = len(self._column)
        swaps_before = self._cracker.swaps_performed
        result = self._crack_and_answer(predicate)
        self.last_stats.notes["swaps"] = self._cracker.swaps_performed - swaps_before
        self.last_stats.notes["pieces"] = self._cracker.n_pieces
        return result

    def _on_first_query(self) -> None:
        """Hook for variants that do extra work on the first query."""

    @abc.abstractmethod
    def _crack_and_answer(self, predicate: Predicate) -> QueryResult:
        """Crack according to the variant's policy and answer the predicate."""

    # ------------------------------------------------------------------
    # Helpers shared by the stochastic variants
    # ------------------------------------------------------------------
    def _random_pivot(self, value_low: float, value_high: float) -> float | None:
        """A uniformly random pivot strictly inside ``(value_low, value_high)``,
        as a key of the column's dtype."""
        if not value_high > value_low:
            return None
        pivot = self._cracker.index.key(float(self._rng.uniform(value_low, value_high)))
        if pivot is None or pivot <= value_low or pivot >= value_high:
            return None
        return pivot


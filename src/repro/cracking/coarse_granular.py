"""Coarse-granular index (Schuhknecht et al., PVLDB 2013).

Coarse-granular indexing improves the robustness of cracking by paying a
larger first-query cost: when the column is first queried it is immediately
split into a configurable number of equally sized (equi-depth) partitions, so
no later query can ever run into one huge unrefined piece.  After that first
query the algorithm behaves like standard cracking within the pre-built
partitions.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import BudgetPolicy
from repro.core.calibration import CostConstants
from repro.core.query import Predicate, QueryResult
from repro.cracking.base import CrackingIndexBase
from repro.storage.column import Column

#: Default number of equal-sized partitions created by the first query.
DEFAULT_INITIAL_PARTITIONS = 64


class CoarseGranularIndex(CrackingIndexBase):
    """Equal-sized partitions on the first query, standard cracking after.

    Parameters
    ----------
    column, budget, constants, rng:
        See :class:`~repro.cracking.base.CrackingIndexBase`.
    initial_partitions:
        Number of equal-sized partitions created by the first query.  The
        paper notes this is a DBA knob trading first-query cost against
        robustness.
    """

    name = "CGI"
    description = "Coarse-granular index"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        rng=None,
        initial_partitions: int = DEFAULT_INITIAL_PARTITIONS,
    ) -> None:
        super().__init__(
            column,
            budget=budget,
            constants=constants,
            rng=rng,
        )
        if initial_partitions < 2:
            raise ValueError(
                f"initial_partitions must be at least 2, got {initial_partitions}"
            )
        self.initial_partitions = int(initial_partitions)

    # ------------------------------------------------------------------
    def _on_first_query(self) -> None:
        """Split the freshly copied column into equal-sized partitions.

        The partition boundaries are the equi-depth quantiles of the data;
        cracking on each quantile value produces pieces of (approximately)
        ``N / initial_partitions`` elements regardless of skew.
        """
        quantiles = np.linspace(0.0, 1.0, self.initial_partitions + 1)[1:-1]
        boundaries = np.quantile(self._cracker.values, quantiles)
        for boundary in np.unique(boundaries):
            self._cracker.crack(float(boundary))

    def _crack_and_answer(self, predicate: Predicate) -> QueryResult:
        return self._cracker.range_query(predicate.low, predicate.high)

"""Stochastic cracking (Halim et al., PVLDB 2012).

Standard cracking's pivots follow the query predicates, which makes its
performance collapse under sequential workloads.  Stochastic cracking instead
partitions the piece containing each query bound around *random* pivots until
the piece is small, and only then cracks on the bound itself.  The random
pivots decouple the physical reorganisation from the workload, trading a
little extra work per query for robustness (the DDC/DDR family of the
original paper).
"""

from __future__ import annotations

from repro.core.policy import BudgetPolicy
from repro.core.calibration import CostConstants
from repro.core.query import Predicate, QueryResult
from repro.cracking.base import CrackingIndexBase
from repro.cracking.cracker_column import upper_exclusive
from repro.storage.column import Column

#: Pieces of at most this many elements are cracked directly on the query
#: bound (the analogue of the original "fits in the L2 cache" rule).
DEFAULT_MINIMUM_PIECE = 16384


class StochasticCracking(CrackingIndexBase):
    """Crack large pieces around random pivots, small pieces on the bound.

    Parameters
    ----------
    column, budget, constants, rng:
        See :class:`~repro.cracking.base.CrackingIndexBase`.
    minimum_piece:
        Piece size below which the query bound itself is used as the pivot.
    """

    name = "STC"
    description = "Stochastic cracking (random pivots)"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        rng=None,
        minimum_piece: int = DEFAULT_MINIMUM_PIECE,
    ) -> None:
        super().__init__(
            column,
            budget=budget,
            constants=constants,
            rng=rng,
        )
        self.minimum_piece = int(minimum_piece)

    # ------------------------------------------------------------------
    def _crack_towards(self, bound) -> None:
        """Randomly crack the piece containing ``bound`` until it is small."""
        piece = self._cracker.piece_for(bound)
        while piece.size > self.minimum_piece:
            pivot = self._random_pivot(piece.value_low, piece.value_high)
            if pivot is None:
                break
            self._cracker.crack_piece_at(piece, pivot)
            piece = self._cracker.piece_for(bound)
        self._cracker.crack(bound)

    def _crack_and_answer(self, predicate: Predicate) -> QueryResult:
        high_bound = upper_exclusive(predicate.high, self._cracker.values.dtype)
        self._crack_towards(predicate.low)
        self._crack_towards(high_bound)
        position_low = self._cracker.index.position_of(predicate.low)
        position_high = self._cracker.index.position_of(high_bound)
        if position_high <= position_low:
            return QueryResult.empty()
        segment = self._cracker.values[position_low:position_high]
        return QueryResult(segment.sum(), int(segment.size))

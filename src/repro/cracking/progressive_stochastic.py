"""Progressive stochastic cracking (Halim et al., PVLDB 2012).

Stochastic cracking with a cap on the amount of data movement per query: at
most ``allowed_swaps`` (a fraction of the column size) elements may be
reorganised while processing pieces larger than the cache threshold.  Pieces
that already fit the threshold are always cracked completely.  When the
budget runs out before the query bounds have become piece boundaries, the
answer is computed by scanning the boundary pieces without reorganising them.

The paper runs this comparator with the allowed swaps set to 10% of the base
column, which is the default here.

Substitution note (DESIGN.md): the original implementation can suspend a
crack in the middle of a piece.  Here a crack always completes the piece it
started, so the per-query data movement is bounded by the allowance plus at
most one piece-sized overshoot per query bound; once the pieces have shrunk
below the allowance (after the first handful of queries) the cap is fully
effective.
"""

from __future__ import annotations

from repro.core.policy import BudgetPolicy
from repro.core.calibration import CostConstants
from repro.core.query import Predicate, QueryResult
from repro.cracking.base import CrackingIndexBase
from repro.cracking.cracker_column import upper_exclusive
from repro.cracking.stochastic import DEFAULT_MINIMUM_PIECE
from repro.storage.column import Column

#: Default per-query swap allowance as a fraction of the column size.
DEFAULT_ALLOWED_SWAPS = 0.1


class ProgressiveStochasticCracking(CrackingIndexBase):
    """Stochastic cracking with a per-query swap budget.

    Parameters
    ----------
    column, budget, constants, rng:
        See :class:`~repro.cracking.base.CrackingIndexBase`.
    allowed_swaps:
        Maximum fraction of the column that may be reorganised per query
        while working on pieces larger than ``minimum_piece``.
    minimum_piece:
        Piece size below which a complete crack is always performed.
    """

    name = "PSTC"
    description = "Progressive stochastic cracking (10% swaps)"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        rng=None,
        allowed_swaps: float = DEFAULT_ALLOWED_SWAPS,
        minimum_piece: int = DEFAULT_MINIMUM_PIECE,
    ) -> None:
        super().__init__(
            column,
            budget=budget,
            constants=constants,
            rng=rng,
        )
        if allowed_swaps <= 0:
            raise ValueError(f"allowed_swaps must be positive, got {allowed_swaps}")
        self.allowed_swaps = float(allowed_swaps)
        self.minimum_piece = int(minimum_piece)

    # ------------------------------------------------------------------
    def _crack_towards(self, bound, swap_budget: int) -> int:
        """Crack towards ``bound`` spending at most ``swap_budget`` swaps."""
        piece = self._cracker.piece_for(bound)
        while piece.size > self.minimum_piece and swap_budget > 0:
            pivot = self._random_pivot(piece.value_low, piece.value_high)
            if pivot is None:
                break
            swap_budget -= piece.size
            self._cracker.crack_piece_at(piece, pivot)
            piece = self._cracker.piece_for(bound)
        if piece.size <= self.minimum_piece:
            # Cache-resident pieces are always cracked completely.
            self._cracker.crack(bound)
        return swap_budget

    def _crack_and_answer(self, predicate: Predicate) -> QueryResult:
        swap_budget = int(self.allowed_swaps * len(self._column))
        high_bound = upper_exclusive(predicate.high, self._cracker.values.dtype)
        swap_budget = self._crack_towards(predicate.low, swap_budget)
        self._crack_towards(high_bound, swap_budget)
        return self._cracker.range_query_without_cracking(predicate.low, predicate.high)

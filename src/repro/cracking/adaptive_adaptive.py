"""Adaptive adaptive indexing (Schuhknecht, Dittrich, Linden — ICDE 2018).

Adaptive adaptive indexing generalises the cracking family: its first query
performs an out-of-place radix partition of the whole column into a
configurable number of buckets, and subsequent queries refine the touched
pieces with a configurable fan-out until pieces are small enough to be
sorted.  With the "manual configuration" used in the paper it behaves like a
hybrid between a coarse radix index and cracking: an expensive first query,
then fast and workload-robust convergence of the touched regions.

Substitution note (DESIGN.md): the original implementation is the authors'
C++ binary with software-managed buffers and non-temporal streaming stores.
This re-implementation keeps its *algorithmic* behaviour — first-query radix
partition, high-fanout refinement of touched pieces, full sort of small
pieces — which is what the paper's comparison relies on (first-query cost,
convergence speed, cumulative time).
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import BudgetPolicy
from repro.core.calibration import CostConstants
from repro.core.query import Predicate, QueryResult
from repro.cracking.base import CrackingIndexBase
from repro.cracking.cracker_column import upper_exclusive
from repro.cracking.cracker_index import Piece
from repro.storage.column import Column

#: Default radix fan-out of the first-query partition and of piece refinement.
DEFAULT_FANOUT = 64

#: Pieces of at most this many elements are sorted outright when touched.
DEFAULT_SORT_THRESHOLD = 4096


class AdaptiveAdaptiveIndexing(CrackingIndexBase):
    """Radix partition on the first query, high-fanout cracking afterwards.

    Parameters
    ----------
    column, budget, constants, rng:
        See :class:`~repro.cracking.base.CrackingIndexBase`.
    fanout:
        Number of equal-width partitions created per refinement step.
    sort_threshold:
        Pieces of at most this many elements are fully sorted when touched.
    """

    name = "AA"
    description = "Adaptive adaptive indexing"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        rng=None,
        fanout: int = DEFAULT_FANOUT,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
    ) -> None:
        super().__init__(
            column,
            budget=budget,
            constants=constants,
            rng=rng,
        )
        if fanout < 2:
            raise ValueError(f"fanout must be at least 2, got {fanout}")
        self.fanout = int(fanout)
        self.sort_threshold = int(sort_threshold)
        self._sorted_pieces: set = set()

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        state = super()._family_state()
        state["sorted_pieces"] = [[int(s), int(e)] for s, e in sorted(self._sorted_pieces)]
        return state

    def _load_family_state(self, state: dict) -> None:
        super()._load_family_state(state)
        self._sorted_pieces = {(int(s), int(e)) for s, e in state.get("sorted_pieces", [])}

    # ------------------------------------------------------------------
    # First query: out-of-place radix partition of the entire column
    # ------------------------------------------------------------------
    def _on_first_query(self) -> None:
        # Nothing is cracked yet: the piece of any value is the whole column.
        self._radix_split(self._cracker.piece_for(self._column.min()))

    def _radix_split(self, piece: Piece) -> None:
        """Partition ``piece`` into ``fanout`` equal-width value ranges."""
        span = piece.value_high - piece.value_low
        if span <= 0 or piece.size <= 1:
            return
        segment = self._cracker.values[piece.start : piece.end]
        # The boundaries are computed in the column's dtype: float64 ones
        # over an integer piece collide, and leave it, once their spacing
        # drops below the float64 step between its values.
        if segment.dtype.kind == "f":
            boundary_values = (piece.value_low + span / self.fanout * np.arange(1, self.fanout)).tolist()
        else:
            boundary_values = [piece.value_low + span * i // self.fanout for i in range(1, self.fanout)]
        # Routing by the very keys that become the piece boundaries (the
        # bounds as keys of the column's dtype; none past its largest value)
        # keeps the cracker-index invariant (elements before a boundary are
        # strictly smaller than its key) exact under any rounding.
        keys = [key for key in map(self._cracker.index.key, boundary_values) if key is not None]
        bucket_ids = np.searchsorted(np.array(keys, dtype=segment.dtype), segment, side="right")
        order = np.argsort(bucket_ids, kind="stable")
        self._cracker.values[piece.start : piece.end] = segment[order]
        counts = np.bincount(bucket_ids, minlength=len(keys) + 1)
        positions = piece.start + np.cumsum(counts)[:-1]
        for key, position in zip(keys, positions.tolist()):
            self._cracker.index.add(key, position)
        self._cracker.swaps_performed += piece.size

    # ------------------------------------------------------------------
    # Subsequent queries: refine the touched pieces with the same fan-out
    # ------------------------------------------------------------------
    def _refine_towards(self, bound) -> None:
        piece = self._cracker.piece_for(bound)
        refinement_rounds = 0
        while piece.size > self.sort_threshold and refinement_rounds < 8:
            self._radix_split(piece)
            new_piece = self._cracker.piece_for(bound)
            if new_piece.size >= piece.size:
                break
            piece = new_piece
            refinement_rounds += 1
        if piece.size <= self.sort_threshold and piece.size > 1:
            self._sort_piece(piece)
        self._cracker.crack(bound)

    def _sort_piece(self, piece: Piece) -> None:
        key = (piece.start, piece.end)
        if key in self._sorted_pieces:
            return
        self._cracker.values[piece.start : piece.end].sort()
        self._cracker.swaps_performed += piece.size
        self._sorted_pieces.add(key)

    def _crack_and_answer(self, predicate: Predicate) -> QueryResult:
        high_bound = upper_exclusive(predicate.high, self._cracker.values.dtype)
        self._refine_towards(predicate.low)
        self._refine_towards(high_bound)
        position_low = self._cracker.index.position_of(predicate.low)
        position_high = self._cracker.index.position_of(high_bound)
        if position_high is None or position_low is None or position_high <= position_low:
            return QueryResult.empty()
        segment = self._cracker.values[position_low:position_high]
        return QueryResult(segment.sum(), int(segment.size))

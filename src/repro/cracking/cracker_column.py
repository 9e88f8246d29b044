"""The cracker column: a physically reorganised copy of the base column.

Database cracking copies the column on the first query and thereafter
reorganises (cracks) it piece by piece as a side effect of query processing.
:class:`CrackerColumn` bundles the writable copy with its
:class:`~repro.cracking.cracker_index.CrackerIndex` and provides the
operations every cracking variant is expressed in:

* :meth:`crack` — partition the piece containing a pivot value so that the
  pivot becomes a piece boundary;
* :meth:`crack_piece_at` — crack an explicit piece around an arbitrary pivot
  (used by the stochastic variants, which pick random pivots);
* :meth:`range_query` — crack on both query bounds and aggregate the
  contiguous run of qualifying elements;
* :meth:`range_query_without_cracking` — aggregate without reorganising,
  scanning the (at most two) boundary pieces (used when a swap budget has
  been exhausted).
"""

from __future__ import annotations

import math

import numpy as np

from repro import kernels
from repro.core.query import QueryResult
from repro.cracking.cracker_index import CrackerIndex, Piece
from repro.storage.column import Column
from repro.storage.membudget import budget_of


def upper_exclusive(value, dtype: np.dtype):
    """Smallest representable value strictly greater than ``value``.

    Cracking partitions with a "strictly less than" convention, so an
    inclusive upper bound ``high`` is handled by cracking at the next
    representable value.
    """
    if np.issubdtype(dtype, np.integer):
        return (int(value) if isinstance(value, (int, np.integer)) else math.floor(value)) + 1
    return float(np.nextafter(value, np.inf))


class CrackerColumn:
    """A writable copy of a column plus its cracker index.

    Parameters
    ----------
    column:
        The base column; its data is copied (this copy is the dominant cost
        of the first query of every cracking algorithm).
    """

    def __init__(self, column: Column) -> None:
        self._column = column
        self.values = column.copy_data()
        value_low = np.asarray(column.min()).item()
        value_high = upper_exclusive(column.max(), column.dtype)
        self.index = CrackerIndex(len(column), value_low, value_high, self.values.dtype)
        self.swaps_performed = 0
        # Out-of-core: under a memory budget large cracks stream through a
        # spillable scratch buffer instead of allocating O(piece) masks.
        budget = budget_of(column)
        self._scratch = budget.scratch if budget is not None else None
        self._chunk_rows = (
            budget.chunk_rows(self.values.dtype) if budget is not None else None
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def n_pieces(self) -> int:
        """Number of pieces the column is currently divided into."""
        return self.index.n_pieces

    def memory_footprint(self) -> int:
        """Bytes held by the cracker column copy."""
        return int(self.values.nbytes)

    def piece_for(self, value) -> Piece:
        """The piece currently containing ``value``."""
        return self.index.piece_for(value)

    # ------------------------------------------------------------------
    # Cracking primitives
    # ------------------------------------------------------------------
    def crack_piece_at(self, piece: Piece, pivot) -> int:
        """Partition ``piece`` around ``pivot`` and record the new boundary.

        Returns the boundary position.  The pivot may be any value inside the
        piece's value bounds; it does not have to occur in the data.
        """
        segment = self.values[piece.start : piece.end]
        if self._chunk_rows is not None and piece.size > self._chunk_rows:
            # Budgeted + larger than one streamed chunk: partition through
            # the budget's scratch, a chunk at a time.
            boundary_offset = kernels.partition_inplace(
                segment, pivot, self._scratch.allocate, self._chunk_rows
            )
        else:
            boundary_offset = kernels.partition_swap(segment, pivot)
        position = piece.start + boundary_offset
        self.index.add(pivot, position)
        self.swaps_performed += piece.size
        return position

    def crack(self, value) -> int:
        """Crack at ``value`` (no-op if ``value`` is already a boundary).

        Returns the boundary position of ``value``: all elements before it
        are ``< value``, all elements at or after it are ``>= value``.
        """
        existing = self.index.position_of(value)
        if existing is not None:
            return int(existing)
        piece = self.index.piece_for(value)
        if piece.size == 0:
            self.index.add(value, piece.start)
            return piece.start
        return self.crack_piece_at(piece, value)

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def range_query(self, low, high) -> QueryResult:
        """Crack on both bounds of ``[low, high]`` and aggregate the run."""
        high_bound = upper_exclusive(high, self.values.dtype)
        position_low = self.crack(low)
        position_high = self.crack(high_bound)
        if position_high <= position_low:
            return QueryResult.empty()
        segment = self.values[position_low:position_high]
        return QueryResult(segment.sum(), int(segment.size))

    def range_query_without_cracking(self, low, high) -> QueryResult:
        """Aggregate ``[low, high]`` without any reorganisation.

        The pieces containing the bounds are scanned with a predicate mask;
        the fully covered pieces in between are aggregated without filtering.
        """
        high_bound = upper_exclusive(high, self.values.dtype)
        low_piece = self.index.piece_for(low)
        high_piece = self.index.piece_for(high_bound)

        low_position = self.index.position_of(low)
        high_position = self.index.position_of(high_bound)

        result = QueryResult.empty()
        if low_piece.start == high_piece.start:
            # Both bounds fall into the same piece: a single masked scan.
            return QueryResult.from_range(
                self.values[low_piece.start : low_piece.end], low, high
            )

        # Piece containing the lower bound.
        middle_start = low_piece.end
        if low_position is not None:
            middle_start = int(low_position)
        else:
            result += QueryResult.from_range(
                self.values[low_piece.start : low_piece.end], low, math.inf
            )

        # Piece containing the upper bound.
        middle_end = high_piece.start
        if high_position is not None:
            middle_end = int(high_position)
        else:
            result += QueryResult.from_range(
                self.values[high_piece.start : high_piece.end], -math.inf, high
            )

        if middle_end > middle_start:
            segment = self.values[middle_start:middle_end]
            result += QueryResult(segment.sum(), int(segment.size))
        return result

    def search_many(self, lows, highs) -> tuple:
        """Answer a batch of range queries, cracking on every bound at once.

        Sequentially, every query cracks the piece containing each of its
        bounds.  A batch carries all its bounds up front, so pieces dense
        with bounds — at least ``log2(piece size)`` of them, the point where
        recursive cracking would have done a sort's worth of passes anyway —
        are **sorted once** and all their bounds registered at binary-search
        positions (adaptive-merging-style amortization); sparse pieces keep
        the conventional incremental crack per bound, preserving cracking's
        piece-at-a-time behavior for small batches.  Afterwards every
        query's answer is a contiguous run of the cracker column, and all
        runs are aggregated together from one prefix-sum pass — two
        vectorized position lookups instead of per-query Python dispatch.

        Returns ``(sums, counts)`` arrays aligned with the input bounds.
        """
        lows = np.asarray(lows)
        highs = np.asarray(highs)
        if lows.size == 0:
            return np.zeros(0, dtype=self.values.dtype), np.zeros(0, dtype=np.int64)
        # Every bound as a key of the column's dtype (None: past its largest
        # value, so at the end of the column).
        key = self.index.key
        low_keys = [key(low) for low in lows.tolist()]
        high_keys = [key(upper_exclusive(high, self.values.dtype)) for high in highs.tolist()]
        bounds = np.array(sorted({k for k in low_keys + high_keys if k is not None}), dtype=self.values.dtype)
        positions = np.empty(bounds.size, dtype=np.int64)

        # Group the new bounds by the piece currently containing them.  A
        # sort never moves values across piece boundaries, so the grouping
        # stays valid while pieces are processed.
        piece_groups: dict = {}
        for bound_number, bound in enumerate(bounds.tolist()):
            existing = self.index.position_of(bound)
            if existing is not None:
                positions[bound_number] = int(existing)
                continue
            piece = self.index.piece_for(bound)
            piece_groups.setdefault((piece.start, piece.end), []).append(bound_number)

        for (start, end), bound_numbers in piece_groups.items():
            size = end - start
            if len(bound_numbers) < max(2, int(np.log2(max(size, 2)))):
                # Sparse piece: conventional incremental cracks, exactly as
                # a sequential run of these queries would perform.
                for bound_number in bound_numbers:
                    positions[bound_number] = self.crack(bounds[bound_number])
                continue
            segment = self.values[start:end]
            segment.sort()
            self.swaps_performed += segment.size
            piece_bounds = bounds[bound_numbers]
            piece_positions = start + np.searchsorted(segment, piece_bounds, side="left")
            for bound, position in zip(piece_bounds.tolist(), piece_positions.tolist()):
                self.index.add(bound, int(position))
            positions[bound_numbers] = piece_positions

        if self._scratch is not None:
            prefix = self._scratch.allocate(self.values.size + 1, self.values.dtype)
        else:
            prefix = np.empty(self.values.size + 1, dtype=self.values.dtype)
        prefix[0] = 0
        np.cumsum(self.values, out=prefix[1:])
        at = dict(zip(bounds.tolist(), positions.tolist()))
        at[None] = self.values.size
        position_low = np.array([at[k] for k in low_keys], dtype=np.int64)
        position_high = np.maximum(position_low, [at[k] for k in high_keys])
        sums = prefix[position_high] - prefix[position_low]
        counts = (position_high - position_low).astype(np.int64)
        return sums, counts

    def is_fully_sorted(self) -> bool:
        """Whether the cracker column has (incidentally) become fully sorted."""
        return bool(np.all(self.values[:-1] <= self.values[1:]))

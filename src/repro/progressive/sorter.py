"""Budget-bounded progressive sorting of one array range.

:class:`ProgressiveSorter` is PQ's split rule on a one-root
:class:`~repro.progressive.pieces.PieceTable` over ``array[start:end)``:
every :meth:`refine` does at most about ``element_budget`` elements of
partitioning (a piece that fits the sort threshold is sorted outright).  The
indexes use the piece table directly; this facade serves callers that sort
one array — ``calibrate()`` times σ with it.  Its table is ``pieces``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.progressive.pieces import DEFAULT_MAX_DEPTH, DEFAULT_SORT_THRESHOLD, SORTED, PieceTable


class ProgressiveSorter:
    """Progressively sorts ``array[start:end)`` with bounded work per call.

    ``value_low``/``value_high`` are the inclusive bounds of the values in
    the range (their midpoint is the first pivot); by default the range's
    minimum and maximum.
    """

    def __init__(
        self,
        array: np.ndarray,
        start: int = 0,
        end: Optional[int] = None,
        value_low=None,
        value_high=None,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        end = array.size if end is None else int(end)
        if end < start:
            raise ValueError(f"invalid range [{start}, {end})")
        segment = array[start:end]
        if value_low is None:
            value_low = float(segment.min()) if segment.size else 0.0
        if value_high is None:
            value_high = float(segment.max()) if segment.size else 0.0
        self.pieces = PieceTable(array, sort_threshold=sort_threshold, max_depth=max_depth)
        self.pieces.add_pq(int(start), end, -math.inf, math.inf, value_low, value_high)
        if self.pieces.state[0] != SORTED:
            self.pieces.enqueue(0)

    @classmethod
    def from_partitioned(cls, array: np.ndarray, boundary: int, pivot, value_low, value_high,
                         start: int = 0, end: Optional[int] = None,
                         sort_threshold: int = DEFAULT_SORT_THRESHOLD,
                         max_depth: int = DEFAULT_MAX_DEPTH) -> "ProgressiveSorter":
        """A sorter whose range is already partitioned at ``boundary``:
        values ``< pivot`` before it, the rest after it (PQ's creation
        phase leaves its array so)."""
        sorter = cls(array, start, end, value_low, value_high, sort_threshold, max_depth)
        if sorter.pieces.worklist:
            sorter.pieces.worklist.clear()
            sorter.pieces.split[0] = pivot
            sorter.pieces.split_two(0, int(boundary))
        return sorter

    @property
    def is_sorted(self) -> bool:
        return self.pieces.done

    def refine(self, element_budget: int) -> int:
        """Up to ``element_budget`` elements of work; returns the elements
        processed (a piece sorted outright may overshoot by its size)."""
        return self.pieces.refine(int(element_budget), self.pieces.sort_step)

"""Progressive indexing algorithms (the paper's core contribution).

The four algorithms of Section 3 are implemented here, together with the
shared machinery they are built from:

* :mod:`repro.progressive.blocks` — linked lists of fixed-size blocks used by
  the bucket-based algorithms.
* :mod:`repro.progressive.pieces` — the piece table PQ, PMSD and PB refine:
  worklist, lookup, answer, α walk and checkpoint codec written once.
* :mod:`repro.progressive.sorter` — PQ's rule on one array range (a
  one-root piece table), for callers that sort one array.
* :mod:`repro.progressive.base` — the shared life-cycle driver: phase
  dispatch, budget-controller routing, and every phase — creation,
  refinement, converged — implemented once for all four algorithms, which
  supply their partition rule as hooks.  An index converges on the query
  that finishes sorting: the sorted array is what converged reads search,
  so the paper's consolidation phase has no B+-tree to build.
* :mod:`repro.progressive.quicksort` — Progressive Quicksort.
* :mod:`repro.progressive.radixsort_msd` — Progressive Radixsort (MSD).
* :mod:`repro.progressive.radixsort_lsd` — Progressive Radixsort (LSD).
* :mod:`repro.progressive.bucketsort` — Progressive Bucketsort (Equi-Height).
"""

from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.bucketsort import ProgressiveBucketsort
from repro.progressive.quicksort import ProgressiveQuicksort
from repro.progressive.radixsort_lsd import ProgressiveRadixsortLSD
from repro.progressive.radixsort_msd import ProgressiveRadixsortMSD

__all__ = [
    "ProgressiveBucketsort",
    "ProgressiveIndexBase",
    "ProgressiveQuicksort",
    "ProgressiveRadixsortLSD",
    "ProgressiveRadixsortMSD",
]

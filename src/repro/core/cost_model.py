"""Cost model formulas from Section 3 of the paper.

Each progressive indexing algorithm combines a small set of primitive cost
terms: sequentially scanning pages, sequentially writing pages, random
accesses while traversing auxiliary structures, and appending to linked
bucket blocks.  :class:`CostModel` exposes
those primitives (parameterised by the calibrated
:class:`~repro.core.calibration.CostConstants`) so that the per-algorithm
cost models in the index implementations stay short, readable transcriptions
of the paper's formulas:

* creation phase of Progressive Quicksort:
  ``t_total = (1 - rho + alpha - delta) * t_scan + delta * t_pivot``
* refinement phase: ``t_total = t_lookup + alpha * t_scan + delta * t_swap``
* radix/bucket creation:
  ``t_total = (1 - rho - delta) * t_scan + alpha * t_bscan + delta * t_bucket``
* converged (FI and every converged progressive index):
  ``t_total = log2(N) * phi + t_scan(matches)`` — a binary search over the
  sorted array.  The paper's consolidation phase (``delta * t_copy`` into
  B+-tree levels) has no counterpart: no levels are built.

The progressive index base class prices the creation and refinement phases of
all four algorithms through :meth:`CostModel.creation_phase_cost` and
:meth:`CostModel.refinement_phase_cost`, given each algorithm's α, scan unit
and full work time.

All costs are expressed in seconds for a given number of elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.calibration import DEFAULT_BLOCK_SIZE, CostConstants, simulated_constants


@dataclass(frozen=True)
class CostBreakdown:
    """A predicted query cost split into its components.

    Attributes
    ----------
    scan:
        Time spent scanning base-column or index data to answer the query.
    lookup:
        Time spent traversing auxiliary structures (pivot tree, bucket tree,
        binary search).
    indexing:
        Time spent on index construction or refinement (the indexing budget).
    merge:
        Time spent merging delta-store writes into the index (the
        mutable-substrate extension of the indexing budget: budget policies
        price merge work with exactly the same machinery that paces
        construction, so :class:`~repro.core.policy.CostModelGreedy` trades
        scanning vs. indexing vs. merging under one interactivity budget).
    decompress:
        Time spent decompressing column blocks on the scan path (non-zero
        only for paged compressed bases; priced so the greedy solver and
        the tau admission path stay honest out-of-core).
    """

    scan: float
    lookup: float
    indexing: float
    merge: float = 0.0
    decompress: float = 0.0

    @property
    def total(self) -> float:
        """Total predicted query time in seconds."""
        return self.scan + self.lookup + self.indexing + self.merge + self.decompress

    @property
    def maintenance(self) -> float:
        """Budgeted work of the query: construction plus delta merging."""
        return self.indexing + self.merge


class CostModel:
    """Primitive cost terms shared by all per-algorithm cost models.

    Parameters
    ----------
    constants:
        Calibrated or simulated machine constants.  Defaults to the
        deterministic :func:`~repro.core.calibration.simulated_constants`.
    block_size:
        Number of elements per linked bucket block (paper: ``sb``).
    """

    def __init__(
        self,
        constants: CostConstants | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self.constants = constants or simulated_constants()
        self.constants.validate()
        self.block_size = int(block_size)
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")

    # ------------------------------------------------------------------
    # Primitive terms
    # ------------------------------------------------------------------
    def pages(self, n_elements: int) -> float:
        """Number of pages covering ``n_elements`` elements (fractional)."""
        return n_elements / self.constants.gamma

    def scan_time(self, n_elements: int) -> float:
        """Sequential, predicated scan of ``n_elements``: ``omega * N / gamma``."""
        return self.constants.omega * self.pages(n_elements)

    def write_time(self, n_elements: int) -> float:
        """Sequential write of ``n_elements``: ``kappa * N / gamma``."""
        return self.constants.kappa * self.pages(n_elements)

    def decompress_time(self, n_elements: int) -> float:
        """Block decompression of ``n_elements`` of a paged compressed base."""
        return self.constants.decompress * n_elements

    def pivot_time(self, n_elements: int) -> float:
        """Quicksort creation: read the column and write the pivoted copy.

        Paper: ``t_pivot = (kappa + omega) * N / gamma``.
        """
        return (self.constants.kappa + self.constants.omega) * self.pages(n_elements)

    def swap_time(self, n_elements: int) -> float:
        """Quicksort refinement: predicated in-place swaps of ``n_elements``.

        The paper approximates refinement as sequential page writes
        (``t_swap = kappa * N / gamma``), but the measured per-element cost
        of the progressive sorter is far above a bulk copy (pivot routing,
        piece bookkeeping, cache-sized direct sorts).  The calibrated swap
        constant σ carries exactly that primitive, so the budget policies —
        in particular the greedy solver targeting an interactivity budget —
        see refinement work at its real price: ``t_swap = sigma * N``.
        """
        return self.constants.sigma * n_elements

    def segment_sort_time(self, n_elements: int) -> float:
        """Sort ``n_elements`` in cache-sized segments: ``segment_sort * N``."""
        return self.constants.segment_sort * n_elements

    def tree_lookup_time(self, height: int) -> float:
        """Descend a pivot / bucket tree of ``height`` levels: ``h * phi``."""
        return max(0, height) * self.constants.phi

    def binary_search_time(self, n_elements: int) -> float:
        """Binary search over a sorted array: ``log2(N) * phi``."""
        if n_elements <= 1:
            return self.constants.phi
        return math.log2(n_elements) * self.constants.phi

    # Bucket-based algorithms ------------------------------------------
    def bucket_scan_time(self, n_elements: int) -> float:
        """Scan linked bucket blocks holding ``n_elements``.

        Paper: ``t_bscan = t_scan + phi * N / sb`` — a sequential scan plus a
        random access per block boundary.
        """
        return self.scan_time(n_elements) + self.constants.phi * (
            n_elements / self.block_size
        )

    def bucket_write_time(self, n_elements: int) -> float:
        """Append ``n_elements`` to radix buckets.

        Paper: ``t_bucket = (kappa + omega) * N / gamma + tau * N / sb`` — a
        read-write pass plus an allocation per block.  The substrate's
        scatter is a grouped argsort + bincount append, so the read-write
        term is priced with the measured per-element ``scatter`` primitive
        (the simulated constants keep it at exactly ``(kappa + omega) /
        gamma``, preserving the paper's formula).
        """
        return self.constants.scatter * n_elements + self.constants.tau * (
            n_elements / self.block_size
        )

    def equiheight_bucket_write_time(self, n_elements: int, n_buckets: int) -> float:
        """Append ``n_elements`` to equi-height buckets.

        The paper (Section 3.3) charges an extra ``log2(b)`` factor for the
        binary search locating each element's bucket.  This substrate routes
        through :func:`repro.kernels.route_bounds` instead — a grid-proposed,
        verified gather, O(1) per element — so the measured routing cost is
        about one more scatter-scale pass over the data, not a ``log2(b)``
        blow-up:
        ``t_equiheight = t_bucket + scatter * N``.
        """
        return self.bucket_write_time(n_elements) + self.constants.scatter * n_elements

    # Delta maintenance -------------------------------------------------
    def delta_absorb_time(self, n_delta: int) -> float:
        """Sort ``n_delta`` raw delta rows into the overlay's sorted buffers.

        One segment-sort-scale pass plus the sequential write of the merged
        buffer — the tier-1 merge every index family performs.
        """
        return self.segment_sort_time(n_delta) + self.write_time(n_delta)

    def delta_fold_time(self, n_base: int, n_delta: int) -> float:
        """Fold ``n_delta`` sorted delta rows into a structure of ``n_base``.

        A merge is one read-write pass over both inputs plus one random
        access per block of the merged size.
        """
        merged = n_base + n_delta
        return self.scan_time(merged) + self.write_time(merged) + self.constants.phi * (
            merged / DEFAULT_BLOCK_SIZE
        )

    # ------------------------------------------------------------------
    # Composite helpers used by several algorithms
    # ------------------------------------------------------------------
    def creation_phase_cost(
        self,
        n_elements: int,
        rho: float,
        alpha: float,
        delta: float,
        index_write_time_full: float,
        indexed_scan_time_full: float | None = None,
    ) -> CostBreakdown:
        """Generic creation-phase cost.

        Parameters
        ----------
        n_elements:
            Column size ``N``.
        rho:
            Fraction of the column already indexed.
        alpha:
            Fraction of the *indexed* data that must be scanned for the query.
        delta:
            Fraction of the column indexed by this query.
        index_write_time_full:
            Time to move the entire column into the index (``t_pivot`` or
            ``t_bucket``-style term); the indexing cost is ``delta`` times it.
        indexed_scan_time_full:
            Time to scan the entire indexed structure; defaults to the plain
            column scan time (Progressive Quicksort), bucket algorithms pass
            :meth:`bucket_scan_time`.
        """
        base_scan_fraction = max(0.0, 1.0 - rho - delta)
        scan = base_scan_fraction * self.scan_time(n_elements)
        indexed_scan_full = (
            self.scan_time(n_elements)
            if indexed_scan_time_full is None
            else indexed_scan_time_full
        )
        scan += alpha * indexed_scan_full
        indexing = delta * index_write_time_full
        return CostBreakdown(scan=scan, lookup=0.0, indexing=indexing)

    def refinement_phase_cost(
        self,
        alpha: float,
        delta: float,
        lookup_time: float,
        indexed_scan_time_full: float,
        refine_time_full: float,
    ) -> CostBreakdown:
        """Generic refinement-phase cost: ``t_lookup + alpha*t_scan + delta*t_refine``."""
        return CostBreakdown(
            scan=alpha * indexed_scan_time_full,
            lookup=lookup_time,
            indexing=delta * refine_time_full,
        )

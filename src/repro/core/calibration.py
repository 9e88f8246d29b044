"""Hardware-constant calibration for the cost models.

Table 1 of the paper parameterises the cost models with machine constants:

========  =====================================================
``omega``  cost of a sequential page read (seconds)
``kappa``  cost of a sequential page write (seconds)
``phi``    cost of a random access (seconds)
``gamma``  number of elements per page
``sigma``  cost of swapping two elements (seconds)
``tau``    cost of a memory (block) allocation (seconds)
========  =====================================================

Beyond the paper's table, the substrate carries two extra measured
primitives: ``segment_sort``, the per-element cost of sorting cache-sized
segments (the direct-sort fast path every refinement ends in), and
``scatter``, the per-element cost of the grouped bucket scatter every
radix/bucket algorithm is built on.

The original system measures these at program start-up on the bare metal.
Our execution substrate is the kernel seam (:mod:`repro.kernels`, compiled
or NumPy), so :func:`calibrate` measures the *actual engine primitives* the
cost formulas describe, on the active backend: ``omega`` from a predicated
range scan (the call ``Column.scan_range`` makes), ``kappa`` from the
creation-phase partition copy (the call Progressive Quicksort makes),
``sigma`` from a full run of the progressive sorter (the refinement
primitive), ``phi`` from a random gather and ``tau`` from block
allocations.  The resulting constants make the cost model predict the time
of *this* substrate — which is what the cost-model-validation experiments
(Figures 8 and 9) check, and what the cost-model-greedy budget policy
relies on to land every query on its interactivity threshold.

For unit tests and fully deterministic simulations,
:func:`simulated_constants` returns a fixed, machine-independent set of
constants with realistic relative magnitudes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro import kernels
from repro.errors import CalibrationError

#: Number of 8-byte elements per "page" used throughout the cost model.
#: 512 elements x 8 bytes = 4 KiB, a conventional page size.
DEFAULT_ELEMENTS_PER_PAGE = 512

#: Default block size (elements) of the linked bucket blocks (paper: ``sb``).
DEFAULT_BLOCK_SIZE = 4096

#: Number of elements used by :func:`calibrate` for its measurements.
_CALIBRATION_SIZE = 1 << 21


@dataclass(frozen=True)
class CostConstants:
    """Measured (or simulated) machine constants for the cost model.

    All ``*_page`` costs are seconds per page of :attr:`elements_per_page`
    elements; ``random_access`` and ``swap`` are seconds per element;
    ``allocation`` is seconds per block allocation.
    """

    sequential_read_page: float
    sequential_write_page: float
    random_access: float
    swap: float
    allocation: float
    elements_per_page: int = DEFAULT_ELEMENTS_PER_PAGE
    #: Per-element cost of sorting a cache-sized segment (seconds).
    segment_sort: float = 2e-9
    #: Per-element cost of the grouped bucket scatter (seconds).  The
    #: simulated default equals the page-write approximation it refines,
    #: ``(kappa + omega) / gamma``, so simulated predictions are unchanged.
    scatter: float = 2.9296875e-9
    #: Per-element cost of decompressing a compressed column block
    #: (seconds).  Only enters predictions for paged compressed bases; the
    #: simulated default approximates FOR/DICT decode at a few GB/s.
    decompress: float = 5e-10
    source: str = field(default="simulated", compare=False)

    # Short aliases matching the paper's notation -----------------------
    @property
    def omega(self) -> float:
        """Cost of a sequential page read (paper: ω)."""
        return self.sequential_read_page

    @property
    def kappa(self) -> float:
        """Cost of a sequential page write (paper: κ)."""
        return self.sequential_write_page

    @property
    def phi(self) -> float:
        """Cost of a random access (paper: φ)."""
        return self.random_access

    @property
    def gamma(self) -> int:
        """Elements per page (paper: γ)."""
        return self.elements_per_page

    @property
    def sigma(self) -> float:
        """Cost of swapping two elements (paper: σ)."""
        return self.swap

    @property
    def tau(self) -> float:
        """Cost of a block allocation (paper: τ)."""
        return self.allocation

    def validate(self) -> None:
        """Raise :class:`CalibrationError` if any constant is non-positive."""
        for field_ in fields(self):
            value = getattr(self, field_.name)
            if field_.name != "source" and value <= 0:
                raise CalibrationError(
                    f"calibrated constant {field_.name} must be positive, got {value}")


def simulated_constants() -> CostConstants:
    """Deterministic constants with realistic relative magnitudes.

    The absolute values approximate a NumPy substrate scanning a few GB/s:
    a 4 KiB page read costs ~0.5 µs, a write ~1 µs, a random access ~60 ns.
    Tests and documentation examples use these so results do not depend on
    the machine the suite runs on.
    """
    return CostConstants(
        sequential_read_page=5e-7,
        sequential_write_page=1e-6,
        # Per-element refinement cost; chosen so the simulated
        # swap_time(N) = sigma * N stays on the scale of the page-write
        # approximation it replaced (kappa / gamma ~ 2e-9 per element).
        swap=2e-9,
        random_access=6e-8,
        allocation=2e-6,
        elements_per_page=DEFAULT_ELEMENTS_PER_PAGE,
        segment_sort=2e-9,
        scatter=2.9296875e-9,
        decompress=5e-10,
        source="simulated",
    )


#: Wall-clock allowance of one :func:`calibrate` call's measuring rounds.
_MEASURE_SECONDS = 0.15


def _time_operations(operations: dict) -> dict:
    """Minimum wall-clock time of each operation, measured in rounds.

    Every round runs every operation once; at least three rounds, and more
    until :data:`_MEASURE_SECONDS` are spent.  The compiled kernels finish
    in a fraction of a millisecond and the budget policies divide one
    constant by another, so what matters is that a burst of interference
    cannot land on one primitive alone: interleaved, it spoils one round of
    all of them, and the minimum over rounds drops that round.
    """
    best = dict.fromkeys(operations, float("inf"))
    started = time.perf_counter()
    rounds = 0
    while rounds < 3 or (time.perf_counter() - started < _MEASURE_SECONDS and rounds < 64):
        for name, operation in operations.items():
            start = time.perf_counter()
            operation()
            best[name] = min(best[name], time.perf_counter() - start)
        rounds += 1
    return best


def calibrate(
    n_elements: int = _CALIBRATION_SIZE,
    elements_per_page: int = DEFAULT_ELEMENTS_PER_PAGE,
    block_size: int = DEFAULT_BLOCK_SIZE,
    rng: np.random.Generator | None = None,
) -> CostConstants:
    """Measure the cost-model constants on the current machine.

    Parameters
    ----------
    n_elements:
        Size of the scratch array used for the measurements.
    elements_per_page:
        Page granularity used to normalise sequential costs.
    block_size:
        Allocation granularity used to measure ``tau``.
    rng:
        Random generator for the random-access pattern (seeded by default so
        repeated calibrations measure the same access pattern).

    Returns
    -------
    CostConstants
        Constants with ``source="measured:<backend>"``: they price the
        active kernel backend (:func:`repro.kernels.backend`), and only it.
    """
    if n_elements < elements_per_page * 16:
        raise CalibrationError(
            "calibration array too small: need at least 16 pages of elements"
        )
    rng = rng or np.random.default_rng(42)
    data = rng.integers(0, n_elements, size=n_elements, dtype=np.int64)
    pages = n_elements / elements_per_page

    # omega: the engine's predicated scan — the same seam call
    # Column.scan_range makes, on the active backend — not a bare np.sum,
    # which is several times faster than the real query primitive.
    low = n_elements // 4
    high = 3 * (n_elements // 4)
    # kappa: the creation-phase partition copy (both ends of the target
    # array written) minus the scan share it implies.
    copy_target = np.empty_like(data)
    random_indices = rng.integers(0, n_elements, size=n_elements // 8)
    # segment_sort: np.sort over cache-sized segments (the direct-sort fast
    # path that finishes every refinement), per element.
    segment_elements = 2048
    n_segments = max(1, min(64, n_elements // segment_elements))
    sort_scratch = data[: n_segments * segment_elements].reshape(n_segments, segment_elements)
    # decompress: FOR-decode of one compressed block (widen + add the
    # reference), per element — the extra work a paged base adds per scan.
    narrow = (data[:65536] & 0xFF).astype(np.uint8)
    n_allocations = 64

    def _allocate() -> None:
        for _ in range(n_allocations):
            np.empty(block_size, dtype=np.int64)

    refine_fully, refined_elements = _sorter_primitive(data)
    scatter_pass, scattered_elements = _scatter_primitive(data)
    seconds = _time_operations({
        "scan": lambda: kernels.range_sum_count(data, low, high),
        "partition": lambda: kernels.partition_chunk(
            data, n_elements // 2, copy_target, 0, n_elements),
        "gather": lambda: data[random_indices],
        "refine": refine_fully,
        "sort": lambda: np.sort(sort_scratch, axis=1),
        "scatter": scatter_pass,
        "decode": lambda: narrow.astype(np.int64) + np.int64(7),
        "allocate": _allocate,
    })
    scan_seconds = seconds["scan"]
    write_seconds = max(seconds["partition"] - scan_seconds, scan_seconds * 0.1)

    constants = CostConstants(
        sequential_read_page=max(scan_seconds / pages, 1e-12),
        sequential_write_page=max(write_seconds / pages, 1e-12),
        random_access=max(seconds["gather"] / random_indices.size, 1e-12),
        swap=max(seconds["refine"] / refined_elements, 1e-12),
        allocation=max(seconds["allocate"] / n_allocations, 1e-12),
        elements_per_page=elements_per_page,
        segment_sort=max(seconds["sort"] / sort_scratch.size, 1e-12),
        scatter=max(seconds["scatter"] / scattered_elements, 1e-12),
        decompress=max(seconds["decode"] / narrow.size, 1e-12),
        source=f"measured:{kernels.backend()}",
    )
    constants.validate()
    return constants


def _scatter_primitive(data: np.ndarray):
    """One radix pass as the engine runs it, and the elements it moves.

    The seam call behind :meth:`~repro.progressive.blocks.BucketSet.scatter_radix`
    (digit extraction included) — the primitive of every radix/bucket
    creation pass — into a buffer allocated once: a fresh one per run would
    time the allocator's page faults, some runs and not others.
    """
    # Measure at (close to) working-set scale: small samples stay
    # cache-resident and under-measure the out-of-cache scatter by 2x+.
    sample = data[: min(data.size, 1 << 20)]
    grouped = np.empty_like(sample)
    return (lambda: kernels.scatter_radix(sample, 0, 0, 63, grouped)), sample.size


def _sorter_primitive(data: np.ndarray):
    """The refinement primitive, and the elements one run of it processes.

    Runs the actual :class:`~repro.progressive.sorter.ProgressiveSorter` to
    completion over a pivot-partitioned sample.  σ prices ``delta * t_swap``
    of refinement work, and ``delta * N`` is what one query hands to
    :meth:`~repro.progressive.sorter.ProgressiveSorter.refine` as its element
    budget — so σ is seconds per element *processed*, every partition pass
    counted, not per element of the sample.  Imported lazily to keep
    :mod:`repro.core` free of engine dependencies.
    """
    from repro.progressive.sorter import ProgressiveSorter

    # As with the scatter primitive, measure at out-of-cache scale.
    sample = data[: min(data.size, 1 << 19)]
    pivot = float(np.median(sample))
    value_low = float(sample.min())
    value_high = float(sample.max())
    mask = sample < pivot
    partitioned = np.concatenate([sample[mask], sample[~mask]])
    boundary = int(np.count_nonzero(mask))

    scratch = np.empty_like(partitioned)

    def refine_fully() -> int:
        scratch[:] = partitioned
        sorter = ProgressiveSorter.from_partitioned(
            scratch,
            boundary=boundary,
            pivot=pivot,
            value_low=value_low,
            value_high=value_high,
        )
        processed = 0
        while not sorter.is_sorted:
            processed += sorter.refine(scratch.size)
        return processed

    # A constant sample is sorted before it starts: price it per element.
    return refine_fully, max(refine_fully(), sample.size)

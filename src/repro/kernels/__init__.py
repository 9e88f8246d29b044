"""The construction-kernel seam: one set of signatures, two backends.

Everything the construction phase does per element — partition around a
pivot, predicated range aggregation, the bucket scatter and its routing, the
radix histogram and the cursor scatter that fills buckets of known size, the
sorted merge — goes through the functions of this module, and so do the
block codec's frame-of-reference pack and unpack, the shard layout's
routing and grouping, and a column version's one min/max pass.  Behind
them sits either the compiled backend (``kernels.c``, built once with ``cc``
into a cache directory and loaded through ``ctypes``; see
:mod:`repro.kernels._build`) or the NumPy backend
(:mod:`repro.kernels._numpy`), which gives identical answers at the speed
the engine had before and is what runs when there is no compiler.  The
backend is resolved once, when this module is imported, so no
query ever pays a compile; tests switch with :func:`use_backend`.

The seam owns what must not differ between backends: pivots and bounds are
brought into the array's own type here (an integer array compares against
integer bounds, exactly, instead of NumPy's promotion to float64), shapes and
fill cursors are validated here, and kernel time is attributed here
(``kernel_us`` on the current trace span when tracing is on).  Kernels write
only into arrays the caller allocated, so a memory budget's scratch
allocator keeps governing what construction holds resident.
"""

from __future__ import annotations

import math
import subprocess
import warnings
from time import perf_counter

import numpy as np

from repro import obs
from repro.kernels import _build, _numpy
from repro.kernels._numpy import order_keys  # noqa: F401  (one definition, no compiled twin)

_TR = obs.tracer()
_LIMITS = {np.dtype(np.int64): (-(1 << 63), (1 << 63) - 1), np.dtype(np.uint64): (0, (1 << 64) - 1)}
_INT64_MIN, _INT64_MAX = _LIMITS[np.dtype(np.int64)]


def _resolve():
    try:
        from repro.kernels._c import CBackend

        library, path = _build.load_library()
        return CBackend(library), path
    except (OSError, subprocess.SubprocessError) as error:
        warnings.warn(
            f"repro.kernels: no compiled backend ({error!r}); construction runs on "
            "the NumPy backend (same answers, slower)", RuntimeWarning, stacklevel=2)
        return None, None


_compiled, _cache_path = _resolve()
_active = _compiled or _numpy


def backend() -> str:
    """Name of the active backend: ``"c"`` or ``"numpy"``."""
    return _active.name


def info() -> dict:
    """The active backend, and where the compiled one was loaded from
    (``None`` when it did not build)."""
    return {"backend": _active.name, "cache_path": _cache_path}


def use_backend(name: str) -> str:
    """Switch the process to backend ``name``; returns the previous name.

    For tests and measurements — the engine itself never switches.  Raises
    :class:`RuntimeError` when ``"c"`` is asked for and did not build.
    """
    global _active
    if name not in ("c", "numpy"):
        raise ValueError(f"unknown kernel backend {name!r}")
    if name == "c" and _compiled is None:
        raise RuntimeError("the compiled kernel backend is not available on this host")
    previous, _active = _active.name, (_compiled if name == "c" else _numpy)
    return previous


def _run(kernel, *args):
    if not _TR.enabled:
        return kernel(*args)
    started = perf_counter()
    try:
        return kernel(*args)
    finally:
        span = _TR.current()
        if span is not None:
            elapsed = (perf_counter() - started) * 1e6
            span.attrs["kernel_us"] = span.attrs.get("kernel_us", 0.0) + elapsed


# ----------------------------------------------------------------------
# Bounds and pivots in the array's own type
# ----------------------------------------------------------------------
def integer_bounds(low, high, floor: int, ceiling: int):
    """``[low, high]`` as Python ints within ``[floor, ceiling]``.

    NumPy integers convert exactly, fractional bounds round inwards (no
    integer lies between ``x`` and ``ceil(x)``), infinities clamp.  Returns
    ``None`` when no integer of the dtype can match (NaN included).
    """
    if isinstance(low, np.generic):
        low = low.item()
    if isinstance(high, np.generic):
        high = high.item()
    if not low <= high or low > ceiling or high < floor:
        return None
    low = floor if low <= floor else low if type(low) is int else math.ceil(low)
    high = ceiling if high >= ceiling else high if type(high) is int else math.floor(high)
    return low, high


def _limits(dtype):
    limits = _LIMITS.get(dtype)
    if limits is None:
        info = np.iinfo(dtype)
        limits = _LIMITS[dtype] = (int(info.min), int(info.max))
    return limits


def typed_pivot(dtype, pivot):
    """``pivot`` such that ``v < pivot`` is exact in ``dtype``; ``None``
    when every value of an integer dtype is below it."""
    if dtype.kind == "f":
        return float(pivot)
    floor, ceiling = _limits(dtype)
    if not pivot > floor:  # NaN included: nothing is below
        return floor
    if pivot > ceiling:
        return None
    return int(pivot) if isinstance(pivot, (int, np.integer)) else math.ceil(pivot)


def typed_cuts(dtype, bounds) -> tuple:
    """Sorted float64 ``bounds`` as ``(cuts, skip)`` in ``dtype``, so that
    ``skip + route_cuts(v, cuts)`` counts the bounds ``<= v`` exactly.

    A value reaches past bound ``b`` when it is above ``ceil(b) - 1`` in an
    integer dtype, above the largest value of a float dtype below ``b``
    (``nextafter(b, -inf)`` in float64); the bounds every value of the dtype
    reaches (``-inf``, or at most the integer minimum) have no cut below the
    dtype and are counted in ``skip``.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if dtype.kind == "f":
        skip = int(np.count_nonzero(bounds == -np.inf))
        with np.errstate(over="ignore"):
            cuts = bounds[skip:].astype(dtype)  # the nearest: at most one step above the cut
        return np.where(cuts < bounds[skip:], cuts, np.nextafter(cuts, dtype.type(-np.inf))), skip
    floor, ceiling = _limits(dtype)
    listed = bounds.tolist()
    skip = sum(bound <= floor for bound in listed)
    cuts = [ceiling if bound > ceiling else math.ceil(bound) - 1 for bound in listed[skip:]]
    return np.array(cuts, dtype=dtype), skip


# ----------------------------------------------------------------------
# The kernels
# ----------------------------------------------------------------------
def partition_chunk(src: np.ndarray, pivot, out: np.ndarray, low_fill: int, high_fill: int) -> int:
    """Two-ended predicated partition of ``src`` into ``out``, resumable.

    Values ``< pivot`` are appended at ``out[low_fill:]``; the others are
    written, in input order, as one block ending at ``out[high_fill]``.
    Returns how many went low: the caller advances ``low_fill`` by it and
    lowers ``high_fill`` by the rest, and may call again with the next chunk.
    """
    n = src.size
    if src.dtype != out.dtype or low_fill < 0 or high_fill > out.size or high_fill - low_fill < n:
        raise ValueError("partition_chunk: chunk does not fit the free range of out")
    pivot = typed_pivot(src.dtype, pivot)
    if pivot is None:
        out[low_fill : low_fill + n] = src
        return n
    return _run(_active.partition_chunk, src, pivot, out, low_fill, high_fill)


def partition_inplace(values: np.ndarray, pivot, allocate=None, chunk_rows: int | None = None) -> int:
    """Predicated partition of ``values`` in place; returns the boundary.

    Out of place underneath: ``values`` streams through a scratch array of
    its size (``allocate(n_rows, dtype)`` — a memory budget's allocator —
    or ``np.empty``) ``chunk_rows`` at a time and is copied back, so the
    NumPy backend's temporaries stay chunk-sized.  The low side keeps its
    input order; so does the high side within a chunk.
    """
    n = values.size
    scratch = np.empty(n, dtype=values.dtype) if allocate is None else allocate(n, values.dtype)
    step = max(1, int(chunk_rows or n))
    low_fill, high_fill = 0, n
    for start in range(0, n, step):
        chunk = values[start : start + step]
        below = partition_chunk(chunk, pivot, scratch, low_fill, high_fill)
        low_fill += below
        high_fill -= chunk.size - below
    values[:] = scratch
    return low_fill


def partition_swap(values: np.ndarray, pivot) -> int:
    """Two-sided in-place partition; returns the boundary.

    Only misplaced values move: the k-th value ``>= pivot`` of the low side
    is swapped with the k-th value ``< pivot`` of the high side.
    """
    pivot = typed_pivot(values.dtype, pivot)
    if pivot is None:
        return int(values.size)
    return _run(_active.partition_swap, values, pivot)


def range_sum_count(values: np.ndarray, low, high) -> tuple:
    """Predicated scan: ``(sum, count)`` of the values in ``[low, high]``.

    Integer sums are exact modulo 2**64; float sums are bit-identical to
    ``values[mask].sum()`` (the matches are compacted and NumPy reduces
    them, in its pairwise order).
    """
    dtype = values.dtype
    if dtype.kind == "f":
        low, high = float(low), float(high)
        bounds = (low, high) if low <= high else None
    else:
        bounds = integer_bounds(low, high, *_limits(dtype))
    if bounds is None or not values.size:
        return dtype.type(0), 0
    return _run(_active.range_sum_count, values, *bounds)


def minmax(values: np.ndarray) -> tuple:
    """``(values.min(), values.max())`` in one pass, as scalars of the
    array's dtype; a zero comes back as ``+0.0``.  Raises
    :class:`ValueError` on an empty array."""
    if not values.size:
        raise ValueError("minmax: an empty array has no minimum")
    return _run(_active.minmax, values)


def scatter(values: np.ndarray, ids: np.ndarray, n_buckets: int, out: np.ndarray) -> tuple:
    """Stable counting scatter of ``values`` into ``out``, grouped by id.

    Returns ``(counts, ends)``, one entry per bucket: bucket ``b`` is
    ``out[ends[b] - counts[b] : ends[b]]``, in input order.  Raises
    :class:`IndexError`, with ``out`` untouched, on an id outside
    ``[0, n_buckets)``.
    """
    if ids.shape != values.shape or out.shape != values.shape or out.dtype != values.dtype:
        raise ValueError("scatter: values, ids and out must agree in shape and dtype")
    return _run(_active.scatter, values, ids, int(n_buckets), out)


def _check_digit(kernel: str, shift: int, mask: int) -> None:
    if not 0 <= shift < 64 or mask & (mask + 1) or not 0 < mask < 1 << 32:
        raise ValueError(f"{kernel}: bad digit (shift {shift}, mask {mask})")


def _check_slots(kernel: str, mask: int, *arrays) -> None:
    for slots in arrays:
        if slots.shape != (mask + 1,) or slots.dtype != np.int64 or not slots.flags.writeable:
            raise ValueError(f"{kernel}: expected {mask + 1} writable int64 slots, "
                             f"got {slots.shape} {slots.dtype}")


def radix_histogram(values: np.ndarray, base: int, shift: int, mask: int,
                    counts: np.ndarray | None = None) -> np.ndarray:
    """How many values have each radix digit of their order key.

    The digit of ``v`` is ``((order_key(v) - base) >> shift) & mask`` in
    uint64 arithmetic (:func:`order_keys`; ``mask + 1`` digits, a power of
    two).  The counts are added to ``counts`` (``mask + 1`` int64 slots) when
    it is given, so the pieces of one bucket set are counted into one
    histogram; returns the counts.
    """
    _check_digit("radix_histogram", shift, mask)
    if counts is None:
        counts = np.zeros(mask + 1, dtype=np.int64)
    _check_slots("radix_histogram", mask, counts)
    if values.size:
        _run(_active.radix_histogram, values, int(base), int(shift), int(mask), counts)
    return counts


def scatter_cursor(values: np.ndarray, base: int, shift: int, mask: int,
                   cursors: np.ndarray, limits: np.ndarray, out: np.ndarray) -> None:
    """Stable radix scatter into regions of ``out`` whose sizes are known.

    Each value goes to ``out[cursors[d]]`` of its digit ``d`` (as in
    :func:`radix_histogram`), and ``cursors[d]`` advances — in place, so the
    cursors live across calls and a bucket set is filled chunk by chunk,
    every value written once, straight into its slot.  Digit ``d``'s region
    ends at ``limits[d]``.  Raises :class:`ValueError` when a cursor is
    negative or a limit lies past ``out`` (nothing written), or when a region
    overflows (the values that did not fit are not written, the others are).
    """
    _check_digit("scatter_cursor", shift, mask)
    _check_slots("scatter_cursor", mask, cursors, limits)
    if out.dtype != values.dtype or out.ndim != 1 or not out.flags.writeable:
        raise ValueError("scatter_cursor: out must be a writable vector of the values' dtype")
    if not values.size:
        return
    lost = _run(_active.scatter_cursor, values, int(base), int(shift), int(mask), cursors, limits, out)
    if lost < 0:
        raise ValueError("scatter_cursor: a cursor is negative or a limit lies past out")
    if lost:
        raise ValueError(f"scatter_cursor: {lost} values overflow their region")


def scatter_radix(values: np.ndarray, base: int, shift: int, mask: int, out: np.ndarray) -> tuple:
    """:func:`scatter` by one radix digit of the values' own order keys: the
    histogram, its prefix sum, then the cursor scatter, so the ids are never
    materialised.  Returns ``(counts, ends)`` as :func:`scatter` does."""
    if out.shape != values.shape or out.dtype != values.dtype:
        raise ValueError("scatter_radix: values and out must agree in shape and dtype")
    counts = radix_histogram(values, base, shift, mask)
    ends = np.cumsum(counts)
    scatter_cursor(values, base, shift, mask, ends - counts, ends, out)
    return counts, ends


def route_cuts(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Range routing: ``np.searchsorted(cuts, values, side="left")`` as int64
    ids — how many of the sorted ``cuts`` sort before each value.

    Compared in the arrays' own type when they share it, so an int64 value
    past 2**53 routes exactly.  A grid over the cuts' domain proposes each
    id and the exact comparison verifies it, so a value costs a multiply and
    a gather, not a branchy search (:func:`typed_cuts` turns float64 bounds
    into cuts of an integer or float column).
    """
    return _run(_active.route_cuts, values, cuts)


def merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable merge of two sorted arrays into a new array of ``a``'s dtype
    (ties keep ``a`` first; NaN sorts last, as in ``np.sort``)."""
    b = np.asarray(b, dtype=a.dtype)
    if not b.size:
        return a.copy()
    return _run(_active.merge_sorted, a, b)


def pack_for(values: np.ndarray, ref: int, width: int) -> bytes:
    """Frame-of-reference payload of an integer block: ``values - ref`` as
    little-endian unsigned deltas ``width`` bytes wide (1, 2 or 4).

    The difference is taken modulo 2**64 and truncated to the width; the
    caller picks a width that holds the block's span.
    """
    if width not in (1, 2, 4) or values.dtype.kind != "i" or not _INT64_MIN <= ref <= _INT64_MAX:
        raise ValueError(f"pack_for: bad block ({values.dtype} values, ref {ref}, width {width})")
    return _run(_active.pack_for, values, int(ref), width)


def unpack_for(payload, width: int, count: int, ref: int) -> np.ndarray:
    """Inverse of :func:`pack_for`: a new int64 array of ``ref + delta``
    (wrapping like NumPy's int64 addition).  Raises :class:`ValueError`,
    with nothing read, unless ``payload`` holds exactly ``count`` deltas."""
    if (width not in (1, 2, 4) or count < 0 or len(payload) != count * width
            or not _INT64_MIN <= ref <= _INT64_MAX):
        raise ValueError(
            f"unpack_for: {len(payload)} bytes do not hold {count} deltas of width {width} (ref {ref})")
    return _run(_active.unpack_for, payload, width, count, int(ref))

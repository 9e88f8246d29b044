"""The compiled backend: ``kernels.c`` called through ``ctypes``, zero-copy.

Kernels exist for int64, uint64 and float64 (the radix and equi-height
routing ones for the two column dtypes); any other dtype, and any array that
is not C-contiguous, takes the NumPy backend for that one call.  Shapes, dtypes and
fill cursors are checked by :mod:`repro.kernels` before a pointer is taken;
the arrays stay referenced by the caller's frame for the length of the call.
"""

from __future__ import annotations

import sys
from ctypes import byref, c_double, c_int64, c_uint64, c_void_p

import numpy as np

from repro.kernels import _numpy

_TYPES = {
    np.dtype(np.int64): ("i64", c_int64),
    np.dtype(np.uint64): ("u64", c_uint64),
    np.dtype(np.float64): ("f64", c_double),
}
_P, _I, _U, _T = c_void_p, c_int64, c_uint64, object()  # _T: the element type, by value

#: kernel -> (C argument types, returns a count); ``<kernel>_<suffix>`` is the symbol.
_SIGNATURES = {
    "partition_chunk": ((_P, _I, _T, _P, _I, _I), True),
    "partition_swap": ((_P, _I, _T), True),
    "count_range": ((_P, _I, _T, _T), True),
    "compact_range": ((_P, _I, _T, _T, _P), True),
    "sum_range": ((_P, _I, _T, _T, _P), True),
    "scatter": ((_P, _P, _I, _I, _P, _P, _P), True),
    "radix_histogram": ((_P, _I, _U, _I, _U, _P), False),
    "scatter_cursor": ((_P, _I, _U, _I, _U, _P, _P, _P, _I), True),
    "route_cuts": ((_P, _I, _P, _I, _P), False),
    "route_bounds": ((_P, _I, _P, _I, _P, _I, _P), False),
    "merge": ((_P, _I, _P, _I, _P), False),
    "minmax": ((_P, _I, _P), False),
}
#: Delta widths of ``pack_for_<width>`` / ``unpack_for_<width>``; both take
#: (source, n, reference, target).  The payload is little-endian by format and
#: the kernels store native integers, so a big-endian host binds none of them.
_FOR_WIDTHS = (1, 2, 4) if sys.byteorder == "little" else ()


class CBackend:
    """Bound entry points of one loaded ``kernels-*.so``."""

    name = "c"

    def __init__(self, library) -> None:
        self._entry = {}
        for dtype, (suffix, scalar) in _TYPES.items():
            for kernel, (signature, counts) in _SIGNATURES.items():
                function = getattr(library, f"{kernel}_{suffix}", None)
                if function is None:
                    continue  # float sums are NumPy's; no uint64 columns to key, route or measure
                function.argtypes = [scalar if kind is _T else kind for kind in signature]
                function.restype = _I if counts else None
                self._entry[kernel, dtype] = function
        for width in _FOR_WIDTHS:
            for kernel in ("pack_for", "unpack_for"):
                function = getattr(library, f"{kernel}_{width}")
                function.argtypes, function.restype = [_P, _I, _I, _P], None
                self._entry[kernel, width] = function

    def _kernel(self, kernel: str, *arrays):
        """The entry point for the first array's dtype, or ``None`` (NumPy path)."""
        if all(array.flags.c_contiguous for array in arrays):
            return self._entry.get((kernel, arrays[0].dtype))
        return None

    def partition_chunk(self, src, pivot, out, low_fill: int, high_fill: int) -> int:
        kernel = self._kernel("partition_chunk", src, out)
        if kernel is None:
            return _numpy.partition_chunk(src, pivot, out, low_fill, high_fill)
        return kernel(src.ctypes.data, src.size, pivot, out.ctypes.data, low_fill, high_fill)

    def partition_swap(self, values, pivot) -> int:
        kernel = self._kernel("partition_swap", values)
        if kernel is None:
            return _numpy.partition_swap(values, pivot)
        return kernel(values.ctypes.data, values.size, pivot)

    def range_sum_count(self, values, low, high):
        count_range = self._kernel("count_range", values)
        if count_range is None:
            return _numpy.range_sum_count(values, low, high)
        dtype, address, n = values.dtype, values.ctypes.data, values.size
        if dtype.kind != "f":
            total = _TYPES[dtype][1]()
            count = self._entry["sum_range", dtype](address, n, low, high, byref(total))
            return dtype.type(total.value), count
        # Float sums must be NumPy's pairwise ones: compact the matches (one
        # spare slot takes the rejected writes) and let it reduce them.
        count = count_range(address, n, low, high)
        if count == 0:
            return dtype.type(0), 0
        matches = np.empty(count + 1, dtype=dtype)
        self._entry["compact_range", dtype](address, n, low, high, matches.ctypes.data)
        return matches[:count].sum(), count

    def scatter(self, values, ids, n_buckets: int, out):
        kernel = self._kernel("scatter", values, ids, out)
        if kernel is None or ids.dtype != np.int64:
            return _numpy.scatter(values, ids, n_buckets, out)
        counts, ends = np.empty((2, n_buckets), dtype=np.int64)
        if kernel(values.ctypes.data, ids.ctypes.data, values.size, n_buckets,
                  counts.ctypes.data, ends.ctypes.data, out.ctypes.data) < 0:
            raise IndexError(f"bucket id outside [0, {n_buckets})")
        return counts, ends

    def radix_histogram(self, values, base: int, shift: int, mask: int, counts) -> None:
        kernel = self._kernel("radix_histogram", values, counts)
        if kernel is None:
            return _numpy.radix_histogram(values, base, shift, mask, counts)
        kernel(values.ctypes.data, values.size, base, shift, mask, counts.ctypes.data)

    def scatter_cursor(self, values, base: int, shift: int, mask: int, cursors, limits, out) -> int:
        kernel = self._kernel("scatter_cursor", values, out, cursors, limits)
        if kernel is None:
            return _numpy.scatter_cursor(values, base, shift, mask, cursors, limits, out)
        return kernel(values.ctypes.data, values.size, base, shift, mask, cursors.ctypes.data,
                      limits.ctypes.data, out.ctypes.data, out.size)

    def route_cuts(self, values, cuts):
        kernel = self._kernel("route_cuts", values, cuts)
        if kernel is None or cuts.dtype != values.dtype:
            return _numpy.route_cuts(values, cuts)
        ids = np.empty(values.size, dtype=np.int64)
        kernel(values.ctypes.data, values.size, cuts.ctypes.data, cuts.size, ids.ctypes.data)
        return ids

    def route_bounds(self, values, bounds):
        kernel = self._kernel("route_bounds", values, bounds)
        if kernel is None:
            return _numpy.route_bounds(values, bounds)
        ids = np.empty(values.size, dtype=np.int64)
        cells = np.empty(_numpy.GRID_CELLS_PER_BOUND * (bounds.size + 1), dtype=np.int64)
        kernel(values.ctypes.data, values.size, bounds.ctypes.data, bounds.size,
               cells.ctypes.data, cells.size, ids.ctypes.data)
        return ids

    def minmax(self, values):
        kernel = self._kernel("minmax", values)
        if kernel is None:
            return _numpy.minmax(values)
        out = np.empty(2, dtype=values.dtype)
        kernel(values.ctypes.data, values.size, out.ctypes.data)
        return out[0], out[1]

    def merge_sorted(self, a, b):
        kernel = self._kernel("merge", a, b)
        if kernel is None:
            return _numpy.merge_sorted(a, b)
        out = np.empty(a.size + b.size, dtype=a.dtype)
        kernel(a.ctypes.data, a.size, b.ctypes.data, b.size, out.ctypes.data)
        return out

    def pack_for(self, values, ref: int, width: int) -> bytes:
        kernel = self._entry.get(("pack_for", width))
        if kernel is None or values.dtype != np.int64 or not values.flags.c_contiguous:
            return _numpy.pack_for(values, ref, width)
        payload = np.empty(values.size * width, dtype=np.uint8)
        kernel(values.ctypes.data, values.size, ref, payload.ctypes.data)
        return payload.tobytes()

    def unpack_for(self, payload, width: int, count: int, ref: int):
        kernel = self._entry.get(("unpack_for", width))
        if kernel is None:
            return _numpy.unpack_for(payload, width, count, ref)
        source = np.frombuffer(payload, dtype=np.uint8)  # zero-copy; holds the payload
        values = np.empty(count, dtype=np.int64)
        kernel(source.ctypes.data, count, ref, values.ctypes.data)
        return values

"""Query model: range/point predicates and query results.

The paper's workloads consist of queries of the form::

    SELECT SUM(R.A) FROM R WHERE R.A BETWEEN V1 AND V2

Point queries are the special case ``V1 == V2``.  A :class:`Predicate`
captures the inclusive range ``[low, high]``; a :class:`QueryResult` carries
the aggregate answer (sum and count of matching values) so that any two index
implementations can be cross-checked for exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.errors import InvalidPredicateError
from repro.kernels import integer_bounds


@dataclass(frozen=True)
class Predicate:
    """An inclusive range predicate ``low <= value <= high``.

    Attributes
    ----------
    low, high:
        Inclusive bounds of the selection.  ``low == high`` denotes a point
        query.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise InvalidPredicateError(
                f"predicate lower bound {self.low!r} exceeds upper bound {self.high!r}"
            )

    @property
    def is_point(self) -> bool:
        """Whether this predicate selects a single value."""
        return self.low == self.high

    def in_python(self) -> "Predicate":
        """This predicate with NumPy scalar bounds as Python numbers.

        Construction routes bounds against Python keys (pivots, piece
        bounds): a NumPy integer is promoted to float64 there, which is
        inexact past 2**53, while a Python int compares exactly.
        """
        low, high = self.low, self.high
        if not (isinstance(low, np.generic) or isinstance(high, np.generic)):
            return self
        return Predicate(low.item() if isinstance(low, np.generic) else low,
                         high.item() if isinstance(high, np.generic) else high)

    def width(self) -> float:
        """Width of the selected range (zero for point queries)."""
        return self.high - self.low

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of ``values`` matching the predicate (predicated)."""
        return (values >= self.low) & (values <= self.high)

    def selectivity(self, domain_low: float, domain_high: float) -> float:
        """Approximate selectivity against a uniform domain ``[low, high]``."""
        domain = domain_high - domain_low
        if domain <= 0:
            return 1.0
        return min(1.0, max(0.0, self.width() / domain))

    def __repr__(self) -> str:
        if self.is_point:
            return f"Predicate(point={self.low!r})"
        return f"Predicate(low={self.low!r}, high={self.high!r})"


def range_query(low: float, high: float) -> Predicate:
    """Build a range predicate ``low <= value <= high``."""
    return Predicate(low, high)


def point(value: float) -> Predicate:
    """Build a point predicate ``value == x``."""
    return Predicate(value, value)


#: Sums strictly inside ``±2**62`` cannot wrap in int64 or uint64.
_NO_WRAP = 1 << 62


def add_sums(a, b):
    """``a + b`` for two partial ``SELECT SUM`` answers.

    Integer sums are exact modulo 2**64 (the kernels' sums wrap), so adding
    two of them wraps too — without the ``RuntimeWarning`` NumPy raises when
    a scalar integer addition overflows.  Python's exact sum picks the
    rare case that needs the guard (entering it costs ~1 µs).
    """
    if (isinstance(a, np.integer) or isinstance(b, np.integer)) and not (
        -_NO_WRAP < int(a) + int(b) < _NO_WRAP
    ):
        with np.errstate(over="ignore"):
            return a + b
    return a + b


@dataclass
class QueryResult:
    """Aggregate answer to a predicate.

    Attributes
    ----------
    value_sum:
        Sum of all values matching the predicate (``SELECT SUM``).
    count:
        Number of matching values.
    """

    value_sum: float
    count: int

    def __add__(self, other: "QueryResult") -> "QueryResult":
        if not isinstance(other, QueryResult):
            return NotImplemented
        return QueryResult(
            add_sums(self.value_sum, other.value_sum), self.count + other.count
        )

    def __iadd__(self, other: "QueryResult") -> "QueryResult":
        if not isinstance(other, QueryResult):
            return NotImplemented
        self.value_sum = add_sums(self.value_sum, other.value_sum)
        self.count += other.count
        return self

    def approximately_equals(self, other: "QueryResult", rel_tol: float = 1e-9) -> bool:
        """Whether two results agree (exact count, numerically equal sums)."""
        if self.count != other.count:
            return False
        if self.value_sum == other.value_sum:
            return True
        denominator = max(abs(self.value_sum), abs(other.value_sum), 1.0)
        return abs(self.value_sum - other.value_sum) / denominator <= rel_tol

    @classmethod
    def empty(cls) -> "QueryResult":
        """A result with no matching rows."""
        return cls(0, 0)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "QueryResult":
        """Aggregate a vector of already-filtered values."""
        if values.size == 0:
            return cls.empty()
        return cls(values.sum(), int(values.size))

    @classmethod
    def from_masked(cls, values: np.ndarray, mask: np.ndarray) -> "QueryResult":
        """Aggregate ``values[mask]`` for a mask the caller already holds
        (a range over an unrefined slice goes through :meth:`from_range`)."""
        count = int(np.count_nonzero(mask))
        if count == 0:
            return cls.empty()
        return cls(values[mask].sum(), count)

    @classmethod
    def from_range(cls, values: np.ndarray, low, high) -> "QueryResult":
        """Predicated scan of an unrefined slice: ``values`` in ``[low, high]``."""
        return cls(*kernels.range_sum_count(values, low, high))

    @classmethod
    def from_sorted(cls, values: np.ndarray, low, high) -> "QueryResult":
        """Binary search of a sorted slice, summing the matching run in place
        (no prefix sums: those are the converged read's)."""
        lo = int(np.searchsorted(values, low, side="left"))
        hi = int(np.searchsorted(values, high, side="right"))
        if hi <= lo:
            return cls.empty()
        matched = values[lo:hi]
        return cls(matched.sum(), int(matched.size))


class PredicateVector:
    """A batch of inclusive range predicates stored as parallel arrays.

    The batch execution engine operates on whole workloads at once; storing
    the bounds as two NumPy arrays lets an index answer every query of the
    batch with a handful of vectorized calls (``np.searchsorted`` against a
    sorted array plus prefix-sum differences) instead of Python-level
    per-query dispatch.

    Parameters
    ----------
    lows, highs:
        Parallel sequences of inclusive bounds; every ``lows[i] <= highs[i]``.
    """

    def __init__(self, lows, highs) -> None:
        lows = np.atleast_1d(np.asarray(lows))
        highs = np.atleast_1d(np.asarray(highs))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise InvalidPredicateError(
                f"lows and highs must be parallel one-dimensional sequences, "
                f"got shapes {lows.shape} and {highs.shape}"
            )
        if lows.size and bool(np.any(lows > highs)):
            bad = int(np.argmax(lows > highs))
            raise InvalidPredicateError(
                f"predicate {bad} has lower bound {lows[bad]!r} above upper "
                f"bound {highs[bad]!r}"
            )
        self.lows = lows
        self.highs = highs

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.lows.size)

    def __getitem__(self, index: int) -> Predicate:
        return Predicate(self.lows[index], self.highs[index])

    def __iter__(self) -> Iterator[Predicate]:
        for low, high in zip(self.lows, self.highs):
            yield Predicate(low, high)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PredicateVector(n={len(self)})"

    def slice(self, start: int, stop: Optional[int] = None) -> "PredicateVector":
        """The sub-batch ``[start:stop]`` (views, no copies)."""
        return PredicateVector(self.lows[start:stop], self.highs[start:stop])

    def predicates(self) -> List[Predicate]:
        """The batch as a list of scalar :class:`Predicate` objects."""
        return [Predicate(low, high) for low, high in zip(self.lows, self.highs)]

    # ------------------------------------------------------------------
    @classmethod
    def from_predicates(cls, predicates: Sequence[Predicate]) -> "PredicateVector":
        """Build a vector from scalar predicates (or ``(low, high)`` pairs)."""
        lows = []
        highs = []
        for predicate in predicates:
            if isinstance(predicate, Predicate):
                lows.append(predicate.low)
                highs.append(predicate.high)
            else:
                low, high = predicate
                lows.append(low)
                highs.append(high)
        return cls(np.asarray(lows), np.asarray(highs))

    @classmethod
    def coerce(cls, queries) -> "PredicateVector":
        """Accept a :class:`PredicateVector`, a workload, or a sequence."""
        if isinstance(queries, cls):
            return queries
        return cls.from_predicates(list(queries))


def exclusive_prefix(segment: np.ndarray, allocate=None) -> np.ndarray:
    """``prefix[i] == segment[:i].sum()`` for ``i`` in ``0..N``, in the sum's dtype.

    ``allocate(n_rows, dtype)`` supplies the array when given (a memory
    budget's scratch allocator), ``np.empty`` otherwise.
    """
    dtype = segment[:0].sum().dtype
    rows = segment.size + 1
    prefix = np.empty(rows, dtype=dtype) if allocate is None else allocate(rows, dtype)
    prefix[0] = 0
    np.cumsum(segment, out=prefix[1:])
    return prefix


def search_sorted_many(segment: np.ndarray, lows, highs, prefix: np.ndarray | None = None):
    """Batched range aggregation over a sorted array.

    The shared vectorized primitive behind every ``search_many`` entry point:
    two ``searchsorted`` calls locate all query bounds at once and the
    per-query sums fall out of exclusive prefix-sum differences.

    Parameters
    ----------
    segment:
        Sorted one-dimensional array of values.
    lows, highs:
        Parallel arrays of inclusive query bounds.
    prefix:
        Optional exclusive prefix-sum array from a previous call over the
        same ``segment`` (:func:`exclusive_prefix`); computed when omitted.

    Returns
    -------
    tuple
        ``(sums, counts, prefix)`` — per-query aggregates plus the prefix
        array, which callers cache to amortize across batches.
    """
    if prefix is None:
        prefix = exclusive_prefix(segment)
    lo = segment.searchsorted(np.asarray(lows), "left")
    hi = segment.searchsorted(np.asarray(highs), "right")
    hi = np.maximum(lo, hi)
    return prefix[hi] - prefix[lo], (hi - lo).astype(np.int64), prefix


def _bounds_in_dtype(bounds: np.ndarray, dtype, floor: int, ceiling: int, round_up: bool):
    """Batch bounds clamped into ``[floor, ceiling]`` and cast to ``dtype``.

    Returns ``(cast, below, above)``; the masks mark the clamped entries.
    Fractional bounds round inwards first (``round_up`` for lower bounds);
    ``floor`` and ``ceiling + 1`` are powers of two, exact as floats.
    """
    if bounds.dtype.kind == "f":
        bounds = np.ceil(bounds) if round_up else np.floor(bounds)
        below, above = bounds < float(floor), bounds >= float(ceiling + 1)
    else:
        info = np.iinfo(bounds.dtype)
        below = bounds < floor if info.min < floor else np.zeros(bounds.shape, dtype=bool)
        above = bounds > ceiling if info.max > ceiling else np.zeros(bounds.shape, dtype=bool)
    cast = np.empty(bounds.shape, dtype=dtype)
    inside = ~(below | above) & (bounds == bounds)  # NaN stays out (and reads as empty)
    cast[inside] = bounds[inside]
    cast[~inside] = floor
    cast[above] = ceiling
    return cast, below, above


def _wrap64(value_sum: int, sum_floor: int) -> int:
    """A Python-int total folded into ``[sum_floor, sum_floor + 2**64)``:
    what ``ndarray.sum`` leaves behind when an integer sum overflows."""
    return (value_sum - sum_floor) % (1 << 64) + sum_floor


#: Entries per block sum of a budgeted leaf.
SUM_BLOCK = 64


class SortedLeaf:
    """A sorted array and its exclusive prefix sums: the one read primitive.

    Every structure that ends in a sorted array — the converged progressive
    indexes, the full index — answers scalar reads
    (:meth:`range_one`) and batches (:meth:`range_many`) from here, over
    the same two arrays.  The prefix array is built on first use and is
    counted by :meth:`prefix_bytes`.

    Integer leaves answer both forms from prefix differences, exactly
    (modulo 2**64, like ``ndarray.sum``).  Float leaves keep the slice sum
    on the scalar path: a difference of two long running sums cancels
    catastrophically on a narrow range, and only the batch path's callers
    accept its tolerance.

    ``allocate(n_rows, dtype)`` is the scratch allocator of the owner's
    memory budget, when it has one.  A full prefix array is as large as the
    leaf, so a budgeted leaf keeps one sum per :data:`SUM_BLOCK` entries
    instead and a scalar read adds the two partial blocks at its edges
    (about twice the cost, 1/64 of the memory); only a batch read builds
    the full array there, through ``allocate``, and scalar reads use it
    from then on.
    """

    __slots__ = ("values", "_allocate", "_prefix", "_blocks", "_domain")

    def __init__(self, values, allocate=None) -> None:
        self.values = values = np.asarray(values)
        self._allocate = allocate
        self._prefix: np.ndarray | None = None
        self._blocks: np.ndarray | None = None
        if values.dtype.kind in "iu":
            info = np.iinfo(values.dtype)
            sums = np.iinfo(np.uint64 if values.dtype.kind == "u" else np.int64)
            # Bounds are searched as scalars of the leaf's own dtype: any
            # other type makes searchsorted cast the whole leaf per call (a
            # Python int already is an int64 to NumPy).
            cast = None if values.dtype == np.int64 else values.dtype.type
            self._domain = (int(info.min), int(info.max), cast,
                            int(sums.min), int(sums.max))
        else:
            self._domain = None

    @property
    def integral(self) -> bool:
        """Whether sums are exact integers modulo 2**64 (see :meth:`wrap`)."""
        return self._domain is not None

    @classmethod
    def of(cls, values) -> "SortedLeaf":
        """``values`` itself when it already is a leaf, else a leaf over it."""
        return values if isinstance(values, cls) else cls(values)

    def prefix(self) -> np.ndarray:
        """The exclusive prefix sums (built on first use)."""
        prefix = self._prefix
        if prefix is None:
            prefix = self._prefix = exclusive_prefix(self.values, self._allocate)
        return prefix

    def prefix_bytes(self) -> int:
        """Bytes held by the prefix and block sums (``0`` until built)."""
        return sum(int(a.nbytes) for a in (self._prefix, self._blocks) if a is not None)

    def _block_sum(self, lo: int, hi: int) -> int:
        """``values[lo:hi].sum()`` from the block sums plus its two edges."""
        values = self.values
        blocks = self._blocks
        if blocks is None:
            starts = np.arange(0, values.size, SUM_BLOCK)
            per_block = np.add.reduceat(values, starts, dtype=values[:0].sum().dtype)
            blocks = self._blocks = exclusive_prefix(per_block, self._allocate)
        first, last = -(-lo // SUM_BLOCK), hi // SUM_BLOCK
        if first >= last:
            return int(values[lo:hi].sum())
        return (
            int(blocks[last]) - int(blocks[first])
            + int(values[lo:first * SUM_BLOCK].sum())
            + int(values[last * SUM_BLOCK:hi].sum())
        )

    def range_one(self, low, high) -> tuple:
        """``(value_sum, count)`` of the values in ``[low, high]``."""
        values = self.values
        domain = self._domain
        if domain is None:
            lo = values.searchsorted(low, "left")
            hi = values.searchsorted(high, "right")
            if hi <= lo:
                return 0, 0
            return values[lo:hi].sum(), int(hi - lo)
        floor, ceiling, cast, sum_floor, sum_ceiling = domain
        if type(low) is not int or type(high) is not int:
            bounds = integer_bounds(low, high, floor, ceiling)
            if bounds is None:
                return 0, 0
            low, high = bounds
        if low < floor:
            low = floor
        if high > ceiling:
            high = ceiling
        if low > high:
            return 0, 0
        if cast is not None:
            low, high = cast(low), cast(high)
        lo = values.searchsorted(low, "left")
        hi = values.searchsorted(high, "right")
        if hi <= lo:
            return 0, 0
        prefix = self._prefix
        if prefix is None and self._allocate is None:
            prefix = self.prefix()
        # Python ints: NumPy scalar subtraction warns where array
        # arithmetic silently wraps; wrap by hand to stay equal to it.
        if prefix is not None:
            value_sum = int(prefix[hi]) - int(prefix[lo])
        else:
            value_sum = self._block_sum(int(lo), int(hi))
        if not sum_floor <= value_sum <= sum_ceiling:
            value_sum = _wrap64(value_sum, sum_floor)
        return value_sum, int(hi - lo)

    def wrap(self, value_sum):
        """A total composed from several reads, back in the sum dtype's range.

        Integer leaves add as Python ints and wrap modulo 2**64 once, like
        ``ndarray.sum``; float totals pass through.
        """
        domain = self._domain
        if domain is not None and not domain[3] <= value_sum <= domain[4]:
            value_sum = _wrap64(value_sum, domain[3])
        return value_sum

    def range_many(self, lows, highs) -> tuple:
        """``(sums, counts)`` arrays for a batch of ranges."""
        lows, highs = np.asarray(lows), np.asarray(highs)
        dtype = self.values.dtype
        if (
            self._domain is None
            or (lows.dtype == dtype and highs.dtype == dtype)
            or lows.dtype.kind not in "iuf"
            or highs.dtype.kind not in "iuf"
        ):
            sums, counts, _ = search_sorted_many(self.values, lows, highs, self.prefix())
            return sums, counts
        # Bound arrays of another dtype would make searchsorted promote the
        # whole leaf (uint64 against int64 goes to float64 and loses the low
        # bits): clamp them into the leaf's domain and search in its dtype.
        floor, ceiling = self._domain[:2]
        low_cast, _, low_above = _bounds_in_dtype(lows, dtype, floor, ceiling, round_up=True)
        high_cast, high_below, _ = _bounds_in_dtype(highs, dtype, floor, ceiling, round_up=False)
        sums, counts, _ = search_sorted_many(self.values, low_cast, high_cast, self.prefix())
        empty = ~(lows <= highs) | low_above | high_below  # inverted, NaN, outside the dtype
        if empty.any():
            sums[empty] = 0
            counts[empty] = 0
        return sums, counts


@dataclass
class ConjunctionResult:
    """Answer to a multi-column conjunctive predicate (``session.where``).

    Attributes
    ----------
    count:
        Number of rows satisfying *all* column predicates.
    value_sums:
        Per-column sum of the matching rows, for every column referenced by
        the conjunction.
    driving_column:
        The column whose (progressive) index was used to drive the query
        plan, or ``None`` when the conjunction was answered by scans alone.
    """

    count: int
    value_sums: Dict[str, float] = field(default_factory=dict)
    driving_column: Optional[str] = None

    def sum_of(self, column_name: str) -> float:
        """Sum of ``column_name`` over the matching rows."""
        try:
            return self.value_sums[column_name]
        except KeyError:
            raise InvalidPredicateError(
                f"column {column_name!r} was not part of the conjunction; "
                f"available: {sorted(self.value_sums)}"
            ) from None

    def as_query_result(self, column_name: str) -> QueryResult:
        """The matching rows viewed as a single-column :class:`QueryResult`."""
        return QueryResult(self.sum_of(column_name), self.count)

    @classmethod
    def empty(cls, column_names: Sequence[str] = (), driving_column: Optional[str] = None) -> "ConjunctionResult":
        """A conjunction matching no rows."""
        return cls(0, {name: 0.0 for name in column_names}, driving_column)

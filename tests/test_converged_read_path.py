"""The converged read path: one sorted-leaf read from CascadeTree to the wire.

A converged index answers from :class:`~repro.core.query.SortedLeaf` — two
``searchsorted`` calls and a prefix-sum difference — through every facade:
``index.query``, ``session.between``, ``ReaderView.between`` and the batch
``search_many``.  These tests hold that one read against a list-based model
(Python's int/float comparisons are exact where NumPy's mixed-type ones are
not) over the value-domain edges, keep the counters exact, and guard the
steady state against allocating bookkeeping nobody reads.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IndexingSession, SharedEngine, Table, obs
from repro.btree.cascade import CascadeTree
from repro.core.cost_model import CostBreakdown
from repro.core.index import QueryStats
from repro.core.phase import IndexPhase
from repro.core.query import SUM_BLOCK, Predicate, SortedLeaf
from repro.serve.protocol import encode_message, encode_read_reply

FAMILIES = ("PQ", "PMSD", "PLSD", "PB", "FI")

INT64 = np.iinfo(np.int64)
UINT64 = np.iinfo(np.uint64)
#: Rows a column of the index-level differential never exceeds: the merge
#: trigger is then its 64-row floor, so a burst of BURST writes starts a MERGE.
MAX_ROWS = 120
BURST = 70


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
def model(values, low, high):
    """``(sum, count)`` of ``values`` in ``[low, high]``, exactly."""
    if isinstance(low, np.generic):
        low = low.item()
    if isinstance(high, np.generic):
        high = high.item()
    matching = [v for v in values if low <= v <= high]
    return sum(matching), len(matching)


def wrapped(value_sum: int, info) -> int:
    """``value_sum`` modulo 2**64 into ``info``'s range, like ``ndarray.sum``."""
    return (value_sum - int(info.min)) % (1 << 64) + int(info.min)


def assert_int_answer(got, want, info, what) -> None:
    got_sum, got_count = got
    assert int(got_count) == want[1], f"{what}: count {got_count} != {want[1]}"
    assert int(got_sum) == wrapped(want[0], info), f"{what}: sum {got_sum} != {want[0]}"


def assert_float_answer(got, want, magnitude, what) -> None:
    """Counts exact, sums equal up to float-addition associativity.

    ``magnitude`` is the sum of ``|v|`` over every value the answer was
    composed from (an overlay correction subtracts deleted rows from the
    structural sum, so the error scales with those, not with the answer).
    """
    got_sum, got_count = got
    assert int(got_count) == want[1], f"{what}: count {got_count} != {want[1]}"
    assert abs(float(got_sum) - want[0]) <= 1e-9 * max(magnitude, 1.0), (
        f"{what}: sum {got_sum} != {want[0]}")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def integer_rows(info, min_size=0, max_size=60):
    edges = st.sampled_from([int(info.min), int(info.min) + 1, 0, 1, int(info.max) - 1, int(info.max)])
    sizes = dict(min_size=min_size, max_size=max_size)
    return st.one_of(
        st.lists(st.one_of(edges, st.integers(int(info.min), int(info.max))), **sizes),
        st.lists(st.integers(0, 3), **sizes),                                # duplicate-heavy
        st.builds(lambda v, n: [v] * n, edges, st.integers(1, max_size)),    # all equal
        st.lists(edges, min_size=1, max_size=1),                             # a single row
    )


def integral_bounds(info):
    """Python ints in and out of the dtype, and NumPy scalars of it."""
    inside = st.integers(int(info.min), int(info.max))
    return st.one_of(
        inside,
        st.integers(int(info.min) - 5, int(info.max) + 5),
        st.integers(-(1 << 70), 1 << 70),
        inside.map(np.dtype(info.dtype).type),
    )


def integer_bounds(info):
    """:func:`integral_bounds` plus fractions, infinities and NaN."""
    return st.one_of(
        integral_bounds(info),
        st.sampled_from([-math.inf, math.inf, math.nan, -0.5, 0.5, 2.5]),
    )


def float_rows(min_size=0):
    return st.one_of(
        st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=min_size, max_size=60),
        st.lists(st.sampled_from([-1.5, 0.0, 0.25, 3.0]), min_size=min_size, max_size=60),
        st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=1),
    )


fractional_bounds = st.one_of(
    st.floats(-2e9, 2e9, allow_nan=False),
    st.floats(-10, 10).map(np.float64),
    st.sampled_from([-math.inf, math.inf]),
)
float_bounds = st.one_of(fractional_bounds, st.integers(-10, 10))


# ----------------------------------------------------------------------
# The leaf, alone: every dtype, every kind of bound, empty included
# ----------------------------------------------------------------------
@pytest.mark.parametrize("info", [INT64, UINT64], ids=["int64", "uint64"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_leaf_matches_model(info, data):
    rows = sorted(data.draw(integer_rows(info)))
    leaf_values = np.array(rows, dtype=info.dtype)
    low = data.draw(integer_bounds(info))
    high = data.draw(integer_bounds(info))
    want = model(rows, low, high)
    tree = CascadeTree(leaf_values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow must wrap silently, like ndarray.sum
        result = tree.range_query(low, high)
        assert_int_answer((result.value_sum, result.count), want, info, f"[{low!r}, {high!r}]")
        if want[1]:
            assert result.value_sum == leaf_values[(leaf_values >= low) & (leaf_values <= high)].sum()
        # The batch read: same leaf, same prefix sums, bounds in the leaf's dtype.
        inside = [b for b in (low, high) if isinstance(b, (int, np.integer)) and info.min <= b <= info.max]
        if len(inside) == 2 and inside[0] <= inside[1]:
            bounds = np.array(inside, dtype=info.dtype)
            sums, counts = tree.search_many(bounds[:1], bounds[1:])
            assert_int_answer((sums[0], counts[0]), want, info, "search_many")
    assert tree.leaf.prefix_bytes() in (0, (len(rows) + 1) * 8)


@settings(max_examples=150, deadline=None)
@given(rows=float_rows(), low=float_bounds, high=float_bounds)
def test_float_leaf_matches_model(rows, low, high):
    rows = sorted(rows)
    tree = CascadeTree(np.array(rows, dtype=np.float64))
    want = model(rows, low, high)
    result = tree.range_query(low, high)
    magnitude = sum(abs(v) for v in rows)
    assert_float_answer((result.value_sum, result.count), want, magnitude, f"[{low!r}, {high!r}]")
    # Float leaves keep the slice sum on the scalar path: no prefix array.
    assert tree.leaf.prefix_bytes() == 0
    if low <= high:
        sums, counts = tree.search_many(np.array([low], dtype=float), np.array([high], dtype=float))
        assert_float_answer((sums[0], counts[0]), want, 1e3 * magnitude, "search_many")


def test_batch_bounds_are_coerced_into_the_leaf_dtype():
    """A uint64 leaf searched with int64 (or float) bound arrays must not be
    promoted to float64: 2**63 - 1, 2**63 and 2**63 + 1 are one float."""
    mid = 1 << 63
    rows = [0, 5, mid - 1, mid, mid + 1, int(UINT64.max)]
    leaf = SortedLeaf(np.array(rows, dtype=np.uint64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lows = np.array([-7, 0, mid - 1, 6, INT64.min], dtype=np.int64)
        highs = np.array([-1, 5, int(INT64.max), int(INT64.max), int(INT64.max)], dtype=np.int64)
        sums, counts = leaf.range_many(lows, highs)
        for position, (low, high) in enumerate(zip(lows.tolist(), highs.tolist())):
            assert_int_answer((sums[position], counts[position]), model(rows, low, high),
                              UINT64, f"int64 bounds [{low}, {high}]")
        assert counts.tolist() == [0, 2, 1, 1, 3]
        # Bounds already in the leaf's dtype separate the three neighbours.
        exact = np.array([mid - 1, mid, mid + 1], dtype=np.uint64)
        sums, counts = leaf.range_many(exact, exact)
        assert counts.tolist() == [1, 1, 1] and sums.tolist() == exact.tolist()
        # Float bounds round inwards; NaN, inverted and out-of-dtype ranges are empty.
        lows = np.array([-0.5, 4.5, np.nan, 9.0, -np.inf, 2.0 ** 64, -np.inf])
        highs = np.array([5.5, 5.0, 1.0, 3.0, np.inf, np.inf, -1.0])
        sums, counts = leaf.range_many(lows, highs)
        assert counts.tolist() == [2, 1, 0, 0, len(rows), 0, 0]
        assert int(sums[0]) == 5 and int(sums[4]) == wrapped(sum(rows), UINT64)
        # An int64 leaf under uint64 bounds: the mirror case.
        signed = SortedLeaf(np.array([INT64.min, -1, 0, int(INT64.max)], dtype=np.int64))
        sums, counts = signed.range_many(np.array([0, mid], dtype=np.uint64),
                                         np.array([int(UINT64.max), int(UINT64.max)], dtype=np.uint64))
        assert counts.tolist() == [2, 0] and int(sums[0]) == int(INT64.max)


def test_the_level_descent_left_the_serving_path():
    assert not hasattr(CascadeTree, "_leaf_position")
    tree = CascadeTree(np.arange(10_000))
    assert not hasattr(tree, "levels") and tree.range_query(10, 19).count == 10


# ----------------------------------------------------------------------
# The facades over a converged index, through writes, MERGE and a fold
# ----------------------------------------------------------------------
class Facades:
    """One column behind every read facade.

    ``direct`` is read through ``index.query`` / ``session.between`` /
    ``search_many``; ``served`` is its twin behind a ``SharedEngine`` (whose
    scheduler owns that index, so nothing else may query it).  Writes go to
    both, and to the list the model reads.
    """

    def __init__(self, method: str, rows, dtype) -> None:
        self.rows = list(rows)
        self.magnitude = sum(abs(v) for v in rows)
        self.info = INT64 if dtype is np.int64 else None
        array = np.array(rows, dtype=dtype)
        self.direct = IndexingSession(Table({"v": array.copy()}))
        self.index = self.direct.create_index("v", method=method, fixed_delta=0.25)
        served = IndexingSession(Table({"v": array.copy()}))
        self.served_index = served.create_index("v", method=method, fixed_delta=0.25)
        probe = Predicate(array.min(), array.max())
        for index in (self.index, self.served_index):
            for _ in range(200):
                if index.converged:
                    break
                index.query(probe)
            assert index.converged, f"{method} did not converge"
        engine = SharedEngine(served)
        self.writer = engine.acquire_writer()
        self.reader = engine.reader()

    def insert(self, values) -> None:
        values = np.array(values, dtype=self.direct.table.column("v").dtype)
        self.rows.extend(values.tolist())
        self.magnitude += sum(abs(v) for v in values.tolist())
        self.direct.insert(values)
        self.writer.insert(values)
        self.publish()

    def delete(self, low, high) -> None:
        self.rows = [v for v in self.rows if not low <= v <= high]
        self.direct.delete("v", low, high)
        self.writer.delete("v", low, high)
        self.publish()

    def publish(self) -> None:
        self.direct.commit_writes()
        self.writer.commit()
        self.reader.refresh()

    def check(self, low, high, what: str) -> None:
        want = model(self.rows, low, high)
        compare = (
            (lambda got, where: assert_int_answer(got, want, self.info, f"{what}: {where}"))
            if self.info is not None
            else (lambda got, where: assert_float_answer(
                got, want, 1e3 * self.magnitude, f"{what}: {where}"))
        )
        if low <= high:  # a Predicate refuses inverted bounds; the facades answer empty
            result = self.index.query(Predicate(low, high))
            compare((result.value_sum, result.count), "index.query")
            sums, counts = self.index.search_many(np.array([low]), np.array([high]))
            compare((sums[0], counts[0]), "search_many")
        result = self.direct.between("v", low, high)
        compare((result.value_sum, result.count), "session.between")
        result = self.reader.between("v", low, high)
        compare((result.value_sum, result.count), "ReaderView.between")


def drive_facades(method, rows, dtype, bounds, burst, doomed) -> None:
    facades = Facades(method, rows, dtype)
    index = facades.index
    # Drawn bounds may all be inverted, and those advance nothing: one
    # whole-domain read per round keeps the merge moving.
    bounds = bounds + [(INT64.min, INT64.max) if dtype is np.int64 else (-math.inf, math.inf)]
    for low, high in bounds:
        facades.check(low, high, "converged")
    assert index.phase is IndexPhase.CONVERGED

    facades.insert(burst[:5])
    # A column keeps at least one row, and the delete must not start the merge.
    if facades.rows.count(doomed) <= 20 and any(v != doomed for v in facades.rows):
        facades.delete(doomed, doomed)
    assert index.pending_delta_rows() > 0 and not index.has_pending_merge()
    for low, high in bounds:
        facades.check(low, high, "pending overlay")
    assert index.phase is IndexPhase.CONVERGED

    facades.insert(burst[5:])
    assert index.has_pending_merge()
    phases = set()
    for _ in range(40):
        for low, high in bounds:
            facades.check(low, high, f"merge ({index.phase.value})")
            phases.add(index.phase)
        if index.phase is IndexPhase.CONVERGED and not index.pending_delta_rows():
            break
    assert IndexPhase.MERGE in phases, "no read was checked mid-MERGE"
    assert index.overlay_stats()["folds_completed"] >= 1
    assert index.phase is IndexPhase.CONVERGED and not index.pending_delta_rows()
    for low, high in bounds:
        facades.check(low, high, "after the fold")


facade_settings = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# The overlay and version corrections add NumPy scalars, which warn where
# they wrap at the int64 extremes; the answers are still exact modulo 2**64.
@pytest.mark.filterwarnings("ignore:overflow encountered in scalar:RuntimeWarning")
@pytest.mark.parametrize("method", FAMILIES)
@facade_settings
@given(data=st.data())
def test_facades_agree_on_int64(method, data):
    rows = data.draw(integer_rows(INT64, 1, MAX_ROWS))
    # Fractional and infinite bounds ride on columns small enough for the
    # overlay's NumPy comparisons to be exact; the extremes take integers.
    small = max(abs(v) for v in rows) < 1 << 53
    bound = integer_bounds(INT64) if small else integral_bounds(INT64)
    bounds = data.draw(st.lists(st.tuples(bound, bound), min_size=2, max_size=4))
    burst = data.draw(st.lists(st.integers(-1000, 1000), min_size=BURST, max_size=BURST))
    drive_facades(method, rows, np.int64, bounds, burst, data.draw(st.sampled_from(rows)))


@pytest.mark.parametrize("method", FAMILIES)
@facade_settings
@given(data=st.data())
def test_facades_agree_on_float64(method, data):
    rows = data.draw(float_rows(1))
    bounds = data.draw(st.lists(
        st.tuples(fractional_bounds, fractional_bounds), min_size=2, max_size=4))
    burst = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=BURST, max_size=BURST))
    drive_facades(method, rows, np.float64, bounds, burst, data.draw(st.sampled_from(rows)))


# ----------------------------------------------------------------------
# Counters, last_stats, allocations
# ----------------------------------------------------------------------
@pytest.fixture
def converged(request):
    rng = np.random.default_rng(7)
    data = rng.integers(0, 1 << 20, size=20_000)
    session = IndexingSession(Table({"v": data}))
    index = session.create_index("v", method=request.param, fixed_delta=0.5)
    while not index.converged:
        session.between("v", 1_000, 50_000)
    return session, index, data


@pytest.mark.parametrize("converged", FAMILIES, indirect=True)
def test_every_steady_read_is_counted(converged):
    session, index, _ = converged
    executed = index.queries_executed
    counted = session.status()["v"]["phase_stats"]["converged"]["queries"]
    for number in range(250):
        session.between("v", number, number + 5_000)
    assert index.queries_executed == executed + 250
    assert session.status()["v"]["phase_stats"]["converged"]["queries"] == counted + 250
    assert session.status()["v"]["queries_executed"] == executed + 250


@pytest.mark.parametrize("converged", FAMILIES, indirect=True)
def test_last_stats_still_answers_after_a_steady_read(converged):
    session, index, data = converged
    result = session.between("v", 1_000, 50_000)
    stats = index.last_stats
    assert stats is index.last_stats, "materialised once per read"
    assert stats.phase is IndexPhase.CONVERGED
    assert stats.delta == 0 and stats.elements_indexed == 0 and stats.indexing_seconds == 0
    assert stats.query_number == index.queries_executed
    expected = index._converged_count_cost(result.count)
    assert stats.predicted_breakdown == expected and stats.predicted_cost == expected.total > 0
    assert result.count == int(((data >= 1_000) & (data <= 50_000)).sum())
    session.between("v", 0, 10)
    assert index.last_stats.query_number == stats.query_number + 1


@pytest.mark.parametrize("converged", FAMILIES, indirect=True)
def test_steady_reads_allocate_no_bookkeeping(converged, monkeypatch):
    session, index, _ = converged
    built = {"QueryStats": 0, "CostBreakdown": 0}
    for cls in (QueryStats, CostBreakdown):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assert not obs.tracer().enabled
    answers = [session.between("v", number, number + 7_000) for number in range(1_000)]
    assert built == {"QueryStats": 0, "CostBreakdown": 0}
    # The same read with its wrappers on: tracing builds the bookkeeping
    # (so the counter does count) and changes no answer.
    obs.configure(tracing=True)
    try:
        traced = [session.between("v", number, number + 7_000) for number in range(50)]
    finally:
        obs.configure(tracing=False)
    assert built["QueryStats"] >= 50 and built["CostBreakdown"] >= 50
    assert traced == answers[:50]


def test_prefix_sums_are_counted_and_replaced_by_a_fold():
    data = np.random.default_rng(3).integers(0, 1 << 30, size=60_000)
    session = IndexingSession(Table({"v": data}))
    index = session.create_index("v", method="PQ", fixed_delta=0.5)
    while not index.converged:
        session.between("v", 0, 1 << 20)
    footprint = index.memory_footprint()
    prefix_bytes = (data.size + 1) * 8
    session.between("v", 0, 1 << 20)  # the first steady read builds the prefix sums
    assert index.memory_footprint() == footprint + prefix_bytes
    # One copy, shared with the batch read.
    index.search_many(np.array([0]), np.array([1 << 20]))
    assert index.memory_footprint() == footprint + prefix_bytes
    # A fold replaces the leaf: the stale prefix sums go with it.
    stale = index._leaf
    session.insert(np.arange(1_000))
    for _ in range(50):
        session.between("v", 0, 1 << 20)
        if index._leaf is not stale and not index.pending_delta_rows():
            break
    assert index._leaf is not stale and index._final_array is index._leaf.values
    merged = np.concatenate([data, np.arange(1_000)])
    assert session.between("v", 0, 999).count == int((merged <= 999).sum())
    assert index._leaf.prefix_bytes() == (merged.size + 1) * 8


def test_a_budgeted_leaf_keeps_block_sums_and_batches_go_through_scratch():
    """Under a MemoryBudget a full prefix array would double the leaf: scalar
    reads keep one sum per SUM_BLOCK entries, and the batch read's full array
    is a scratch allocation (counted, spillable), not a bare np.empty."""
    data = np.random.default_rng(5).integers(0, 1 << 30, size=60_000)
    session = IndexingSession(Table({"v": data}), memory_budget=1 << 20)
    index = session.create_index("v", method="PQ", fixed_delta=0.5)
    while not index.converged:
        session.between("v", 0, 1 << 20)
    scratch = session.memory_budget.scratch
    footprint = index.memory_footprint()
    rng = np.random.default_rng(6)
    lows = rng.integers(0, 1 << 30, size=300)
    highs = lows + rng.integers(0, 1 << 26, size=300)
    for low, high in zip(lows.tolist(), highs.tolist()):
        result = session.between("v", low, high)
        mask = (data >= low) & (data <= high)
        assert (result.value_sum, result.count) == (int(data[mask].sum()), int(mask.sum()))
    block_bytes = (-(-data.size // SUM_BLOCK) + 1) * 8
    assert index.memory_footprint() == footprint + block_bytes
    granted = scratch.resident_bytes + scratch.spilled_bytes
    sums, counts = index.search_many(lows, highs)
    prefix_bytes = (data.size + 1) * 8
    assert scratch.resident_bytes + scratch.spilled_bytes == granted + prefix_bytes
    assert index.memory_footprint() == footprint + block_bytes + prefix_bytes
    for low, high, got_sum, got_count in zip(lows.tolist(), highs.tolist(), sums, counts):
        scalar = session.between("v", low, high)  # now from the full array too
        assert (int(got_sum), int(got_count)) == (scalar.value_sum, scalar.count)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.integers(INT64.min, INT64.max), max_size=400),
    ranges=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=1, max_size=8),
)
def test_block_sums_equal_the_full_prefix(rows, ranges):
    values = np.sort(np.array(rows, dtype=np.int64))
    full = SortedLeaf(values)
    blocked = SortedLeaf(values, allocate=lambda n_rows, dtype: np.empty(n_rows, dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first, last in ranges:
            if values.size == 0 or first > last:
                continue
            low = int(values[min(first, values.size - 1)])
            high = int(values[min(last, values.size - 1)])
            assert blocked.range_one(low, high) == full.range_one(low, high)
    assert blocked.prefix_bytes() <= (values.size // SUM_BLOCK + 2) * 8


# ----------------------------------------------------------------------
# The wire: hot replies skip dict -> json.dumps, bytes unchanged
# ----------------------------------------------------------------------
@given(
    value_sum=st.one_of(
        st.integers(-(1 << 70), 1 << 70),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    count=st.integers(0, 1 << 40),
    version=st.integers(0, 1 << 40),
)
def test_read_reply_bytes_equal_the_generic_encoding(value_sum, count, version):
    generic = encode_message({"ok": True, "sum": value_sum, "count": count, "version": version})
    assert encode_read_reply(value_sum, count, version) == generic

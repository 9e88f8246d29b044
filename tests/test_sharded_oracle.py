"""Differential oracle: sharded execution must equal the unsharded scan.

Every registry algorithm runs over {1, 4, 7} shards, serial and on
threads, against a brute-force NumPy oracle maintained alongside the
workload — including mutable writes routed to their owning shards and
queries on both sides of convergence.  Zero correctness deviation is the
acceptance bar: counts and integer sums must match *exactly* (modulo 2**64,
as the oracle's own sum wraps), float sums within 1e-9 relative, since
per-shard partial sums reassociate the addition.  The threaded executor
adds the partials in shard order, so against the serial executor even
float sums are bit-identical.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.policy import FixedDelta
from repro.core.query import Predicate, QueryResult
from repro.engine.batch import BatchExecutor
from repro.engine.registry import ALGORITHMS, create_index
from repro.shard.column import shard_column
from repro.shard.index import build_sharded_index
from repro.storage.column import Column

ALL_ALGORITHMS = sorted(ALGORITHMS)
SHARD_COUNTS = (1, 4, 7)


def _oracle(values: np.ndarray, low, high) -> QueryResult:
    mask = (values >= low) & (values <= high)
    return QueryResult(values[mask].sum() if mask.any() else 0, int(mask.sum()))


def _assert_equal(result: QueryResult, expected: QueryResult, context: str) -> None:
    assert result.count == expected.count, f"{context}: count deviates"
    if isinstance(expected.value_sum, (int, np.integer)) or (
        hasattr(expected.value_sum, "dtype")
        and np.issubdtype(expected.value_sum.dtype, np.integer)
    ):
        assert int(result.value_sum) == int(expected.value_sum), (
            f"{context}: integer sum deviates"
        )
    else:
        assert result.approximately_equals(expected), f"{context}: float sum deviates"


def run_differential(
    algorithm: str,
    shards: int,
    parallel: bool,
    data: np.ndarray,
    rng: np.random.Generator,
    n_queries: int = 24,
    with_writes: bool = True,
) -> None:
    """Run a mixed read/write workload, checking every answer exactly."""
    column = shard_column(Column(data.copy(), name="v"), shards)
    index = build_sharded_index(
        column,
        algorithm,
        parallel=parallel,
        workers=2,
        budget=FixedDelta(0.25),
    )
    reference = np.asarray(data).copy()
    try:
        domain_low = int(data.min())
        domain_high = int(data.max())
        width = max(1, (domain_high - domain_low) // 10)
        for query_number in range(n_queries):
            if with_writes and query_number == n_queries // 3:
                # inserts route to their owning shards
                fresh = rng.integers(domain_low, domain_high + 1, 200)
                column.insert(fresh)
                reference = np.concatenate([reference, fresh])
            if with_writes and query_number == 2 * n_queries // 3:
                low = domain_low + width
                high = low + width // 2
                column.delete_where(low, high)
                reference = reference[(reference < low) | (reference > high)]
            low = int(rng.integers(domain_low, domain_high - width))
            high = low + int(rng.integers(0, width))
            result = index.query(Predicate(low, high))
            _assert_equal(
                result,
                _oracle(reference, low, high),
                f"{algorithm} x{shards} {'par' if parallel else 'ser'} "
                f"query {query_number} [{low}, {high}] phase {index.phase}",
            )
    finally:
        index.close()


@pytest.fixture
def oracle_data(rng) -> np.ndarray:
    return rng.integers(0, 50_000, size=12_000, dtype=np.int64)


# ----------------------------------------------------------------------
# Serial matrix: every algorithm x every shard count (fast lane)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_serial_matches_oracle(algorithm, shards, oracle_data, rng):
    run_differential(algorithm, shards, False, oracle_data, rng)


# ----------------------------------------------------------------------
# Threaded: a short smoke subset, then the same matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["PQ", "STD"])
def test_parallel_smoke_matches_oracle(algorithm, oracle_data, rng):
    run_differential(algorithm, 4, True, oracle_data, rng, n_queries=16)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_parallel_matches_oracle(algorithm, shards, oracle_data, rng):
    run_differential(algorithm, shards, True, oracle_data, rng)


# ----------------------------------------------------------------------
# Float sums: per-shard partials reassociate the addition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("parallel", [False, True])
def test_float_column_within_tolerance(parallel, rng):
    data = rng.normal(0.0, 1_000.0, 10_000)
    run_differential("PQ", 4, parallel, data, rng, n_queries=12)


# ----------------------------------------------------------------------
# Pre/post-convergence and merge-phase correctness
# ----------------------------------------------------------------------
def test_exact_across_convergence_and_merge(oracle_data, rng):
    column = shard_column(Column(oracle_data.copy(), name="v"), 4)
    index = build_sharded_index(column, "PQ", budget=FixedDelta(0.5))
    reference = oracle_data.copy()

    def check(low, high, context):
        _assert_equal(
            index.query(Predicate(low, high)),
            _oracle(reference, low, high),
            context,
        )

    saw_unconverged = False
    for query_number in range(200):
        if not index.converged:
            saw_unconverged = True
        low = int(rng.integers(0, 45_000))
        check(low, low + 5_000, f"pre-convergence query {query_number}")
        if index.converged:
            break
    assert saw_unconverged, "budget too large: convergence was immediate"
    assert index.converged, "index failed to converge within 200 queries"
    for query_number in range(10):
        low = int(rng.integers(0, 45_000))
        check(low, low + 5_000, f"post-convergence query {query_number}")
    # a write burst after convergence runs the budget-priced merge path
    fresh = rng.integers(0, 50_000, 1_000)
    column.insert(fresh)
    reference = np.concatenate([reference, fresh])
    for query_number in range(20):
        low = int(rng.integers(0, 45_000))
        check(low, low + 5_000, f"post-merge query {query_number}")


# ----------------------------------------------------------------------
# Batch path: whole-batch delegation equals the sequential loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("parallel", [False, True])
def test_batch_path_matches_oracle(parallel, oracle_data, rng):
    from repro.engine.batch import BatchExecutor

    column = shard_column(Column(oracle_data.copy(), name="v"), 4)
    index = build_sharded_index(
        column, "PQ", parallel=parallel, workers=2, budget=FixedDelta(0.25)
    )
    try:
        lows = rng.integers(0, 45_000, 40)
        predicates = [Predicate(int(low), int(low) + 4_000) for low in lows]
        batch = BatchExecutor().execute(index, predicates)
        assert batch.vectorized_queries == len(predicates)
        for predicate, answer in zip(predicates, batch.results):
            _assert_equal(
                answer,
                _oracle(oracle_data, predicate.low, predicate.high),
                f"batch query [{predicate.low}, {predicate.high}]",
            )
    finally:
        index.close()


# ----------------------------------------------------------------------
# The steady sharded read: spans, tracing parity, executor parity, big ints
# ----------------------------------------------------------------------
PROGRESSIVE = ("PQ", "PB", "PMSD", "PLSD")


def _span(column, first: int, last: int):
    """A range from inside shard ``first`` to inside shard ``last``."""
    mins, maxs = column.shard_bounds()
    low = (int(mins[first]) + int(maxs[first])) // 2
    high = low + 50 if first == last else (int(mins[last]) + int(maxs[last])) // 2
    return low, high


def _drive_shards(index, column, shard_numbers, limit=300):
    """Single-shard reads until the given shards converged."""
    for _ in range(limit):
        status = index.shard_status()["shards"]
        if all(status[shard]["converged"] for shard in shard_numbers):
            return
        for shard in shard_numbers:
            index.query(Predicate(*_span(column, shard, shard)))
    raise AssertionError(f"shards {shard_numbers} did not converge")


@pytest.mark.parametrize("algorithm", PROGRESSIVE)
def test_converged_spans_match_oracle(algorithm, oracle_data):
    column = shard_column(Column(oracle_data.copy(), name="v"), 5)
    index = build_sharded_index(column, algorithm, budget=FixedDelta(0.5))
    _drive_shards(index, column, range(5))
    assert index.converged
    for first, last in ((2, 2), (1, 2), (0, 3), (0, 4), (4, 4)):
        low, high = _span(column, first, last)
        assert index.router.route(low, high).size == last - first + 1
        pool = index.budget.snapshot()
        for _ in range(2):
            _assert_equal(
                index.query(Predicate(low, high)), _oracle(oracle_data, low, high),
                f"{algorithm} converged span {first}..{last}",
            )
        after = index.budget.snapshot()
        assert after["queries"] == pool["queries"] + 2
        assert after["shards_charged"] == pool["shards_charged"] + 2 * (last - first + 1)
        assert after["granted_seconds"] == pool["granted_seconds"]


@pytest.mark.parametrize("algorithm", PROGRESSIVE)
def test_span_with_one_unconverged_survivor_matches_oracle(algorithm, oracle_data):
    column = shard_column(Column(oracle_data.copy(), name="v"), 5)
    index = build_sharded_index(column, algorithm, budget=FixedDelta(0.1))
    _drive_shards(index, column, (0, 1, 3))
    status = index.shard_status()["shards"]
    assert not status[2]["converged"] and not index.converged
    low, high = _span(column, 0, 3)  # converged, converged, unconverged, converged
    before = [status[shard]["queries_executed"] for shard in range(5)]
    _assert_equal(
        index.query(Predicate(low, high)), _oracle(oracle_data, low, high),
        f"{algorithm} span over an unconverged shard",
    )
    status = index.shard_status()["shards"]
    after = [status[shard]["queries_executed"] for shard in range(5)]
    assert [b - a for a, b in zip(before, after)] == [1, 1, 1, 1, 0]
    assert status[2]["phase"] != "inactive"  # the capped query advanced it


def _stream(rng, data, n_queries=140):
    """Narrow reads, wide spans and a miss, in a fixed order."""
    top = int(data.max())
    for number in range(n_queries):
        low = int(rng.integers(0, top))
        if number % 10 == 9:
            yield top + 10, top + 20
        else:
            yield low, low + (top // 2 if number % 5 == 4 else 300)


def _run_stream(data, parallel=False):
    column = shard_column(Column(data.copy(), name="v"), 4)
    index = build_sharded_index(
        column, "PQ", parallel=parallel, workers=2, budget=FixedDelta(0.25)
    )
    reference = data.copy()
    rng = np.random.default_rng(99)
    answers = []
    try:
        for number, (low, high) in enumerate(_stream(rng, data)):
            if number == 90:  # a write burst on converged shards: merge path
                fresh = rng.integers(0, int(data.max()), 600)
                column.insert(fresh)
                reference = np.concatenate([reference, fresh])
            result = index.query(Predicate(low, high))
            _assert_equal(result, _oracle(reference, low, high), f"query {number}")
            answers.append((result.value_sum, int(result.count)))
        status = index.shard_status()
        shards = status["shards"]
        return {
            "answers": answers,
            "router": status["router"],
            "pool": status["pool"],
            "queries": index.queries_executed,
            "phase": index.phase,
            "converged": index.converged,
            "pending_merge": index.has_pending_merge(),
            "shard_queries": [shards[n]["queries_executed"] for n in sorted(shards)],
            "shard_phases": [shards[n]["phase"] for n in sorted(shards)],
        }
    finally:
        index.close()


def test_tracing_on_and_off_take_the_same_read(oracle_data):
    from repro import obs

    plain = _run_stream(oracle_data)
    obs.configure(tracing=True)
    try:
        traced = _run_stream(oracle_data)
    finally:
        obs.configure(tracing=False)
        obs.tracer().clear()
    assert traced == plain
    # the stream ran through construction, steady reads, the merge and back
    assert plain["converged"] and not plain["pending_merge"]
    assert plain["queries"] == 140 and plain["pool"]["granted_seconds"] > 0.0


def test_parallel_executor_answers_and_status_match_serial(oracle_data, rng):
    # Float sums too: the threaded partials are added in shard order, so
    # they equal the serial loop's bit for bit.
    for data in (oracle_data, rng.uniform(0.0, 50_000.0, oracle_data.size)):
        serial = _run_stream(data)
        parallel = _run_stream(data, parallel=True)
        for entry in (serial, parallel):
            entry["pool"] = {**entry["pool"], "parallelism": None}
        assert parallel == serial


#: Enough for every family to converge, also four queries a batch.
QUERIES = 600


@pytest.mark.parametrize("batched", [False, True], ids=["query", "execute_batch"])
@pytest.mark.parametrize("method", ["PQ", "PB", "PMSD", "PLSD"])
@pytest.mark.parametrize("shards, parallel", [(1, False), (4, False), (4, True)])
def test_int64_sums_wrap_without_warning(shards, parallel, method, batched, rng):
    """Values near 2**60: sums wrap modulo 2**64 (as the oracle's do) and no
    scalar addition raises NumPy's overflow RuntimeWarning — in every phase of
    every progressive family, one query at a time or a batch at a time."""
    values = rng.integers(2**60, 2**60 + 2**20, 8_000, dtype=np.int64)
    column = Column(values.copy(), name="v")
    if shards == 1:
        index = create_index(method, column, budget=FixedDelta(0.25))
    else:
        index = build_sharded_index(
            shard_column(column, shards), method, parallel=parallel, workers=2,
            budget=FixedDelta(0.25),
        )
    lows = 2**60 + rng.integers(0, 2**19, QUERIES)
    highs = lows + rng.integers(0, 2**19, QUERIES)
    wrapped = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if batched:
            results = []
            for start in range(0, QUERIES, 4):
                batch = list(zip(lows[start : start + 4].tolist(), highs[start : start + 4].tolist()))
                results += BatchExecutor().execute(index, batch).results
        else:
            results = [index.query(Predicate(int(low), int(high))) for low, high in zip(lows, highs)]
        for number, (low, high, result) in enumerate(zip(lows, highs, results)):
            expected = _oracle(values, low, high)
            assert result.count == expected.count, f"query {number}"
            assert int(result.value_sum) == int(expected.value_sum), f"query {number}"
            wrapped += int(expected.value_sum) != expected.count * 2**60 + int(
                (values[(values >= low) & (values <= high)] - 2**60).sum()
            )
    assert index.converged and wrapped > 50


def test_big_integer_shard_edges_route_exactly(rng):
    """Shard edges past 2**53: float64 bounds would round them and a scalar
    compare against the exact predicate would prune the shard holding the row."""
    groups = [2**53 + 1, 2**55 + 1, 2**57 + 1, 2**59 + 1, 2**61 + 1]
    values = np.concatenate(
        [rng.integers(start, start + 3_000, 1_200) for start in groups]
        + [np.array([2**62 - 1, 2**62])]
    ).astype(np.int64)
    rng.shuffle(values)
    model = sorted(values.tolist())
    column = shard_column(Column(values.copy(), name="v"), 7)
    index = build_sharded_index(column, "PQ", budget=FixedDelta(0.1))
    mins, maxs = column.shard_bounds()
    assert mins.dtype == np.int64 and int(maxs[-1]) == 2**62
    edges = sorted({int(edge) for edge in mins} | {int(edge) for edge in maxs})
    assert all(edge > 2**53 for edge in edges)
    windows = []
    for edge in edges:
        windows += [
            (edge, edge), (edge - 1, edge - 1), (edge + 1, edge + 1),
            (edge - 2, edge - 1), (edge - 1, edge), (edge, edge + 1), (edge + 1, edge + 2),
        ]
    # typed bounds take the same route as plain ints; above every shard
    # (also past int64) routes nowhere
    windows += [(np.int64(low), np.int64(high)) for low, high in windows[:21]]
    windows += [(np.uint64(low), np.uint64(high)) for low, high in windows[:21]]
    misses = [(2**62 + 1, 2**63 - 1), (2**63 + 5, 2**64 - 1),
              (np.uint64(2**63 + 5), np.uint64(2**63 + 9))]

    def check(stage):
        for low, high in windows:
            hits = [value for value in model if low <= value <= high]
            result = index.query(Predicate(low, high))
            assert (int(result.value_sum), int(result.count)) == (sum(hits), len(hits)), (
                f"{stage}: [{low}, {high}]"
            )
        for low, high in misses:
            assert index.router.route(low, high).size == 0
            assert index.query(Predicate(low, high)).count == 0

    assert not index.converged
    check("before convergence")
    _drive_shards(index, column, range(7))
    assert index.converged
    check("after convergence")

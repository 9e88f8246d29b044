"""Tests for the batch query execution subsystem.

The central invariant: ``execute_batch`` returns results identical to
issuing the same queries sequentially, for every algorithm in the registry,
no matter how the executor splits the batch between per-query driving and
the vectorized ``search_many`` tail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import BatchPool, FixedDelta, FixedTime, TimeAdaptive
from repro.core.query import ConjunctionResult, Predicate, PredicateVector, QueryResult
from repro.cracking.cracker_column import CrackerColumn
from repro.engine.batch import BatchExecutor, BatchResult, scan_many
from repro.engine.registry import ALGORITHMS, create_index
from repro.engine.session import IndexingSession
from repro.errors import ExperimentError, InvalidPredicateError
from repro.progressive.quicksort import ProgressiveQuicksort
from repro.storage.column import Column
from repro.storage.table import Table
from repro.workloads.batch import conjunctive_queries, iter_batches, predicate_vector
from repro.workloads.patterns import random_workload

from tests.conftest import delta_request, random_range_predicates


@pytest.fixture
def data(rng) -> np.ndarray:
    return rng.integers(0, 30_000, size=12_000, dtype=np.int64)


@pytest.fixture
def predicates(data, rng):
    return random_range_predicates(data, 120, rng, selectivity=0.05)


class TestPredicateVector:
    def test_roundtrip_and_slicing(self):
        vector = PredicateVector.from_predicates(
            [Predicate(1, 5), Predicate(2, 2), (10, 20)]
        )
        assert len(vector) == 3
        assert vector[1].is_point
        assert vector.slice(1, 3).predicates() == [Predicate(2, 2), Predicate(10, 20)]
        assert [p.low for p in vector] == [1, 2, 10]

    def test_coerce_passthrough_and_workload(self):
        vector = PredicateVector([0], [1])
        assert PredicateVector.coerce(vector) is vector
        workload = random_workload(0, 100, 10, rng=np.random.default_rng(0))
        assert len(PredicateVector.coerce(workload)) == 10

    def test_inverted_range_rejected(self):
        with pytest.raises(InvalidPredicateError):
            PredicateVector([5, 0], [1, 10])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidPredicateError):
            PredicateVector([1, 2], [3])


class TestBatchBudget:
    def test_pool_is_n_queries_times_per_query(self):
        budget = BatchPool(10, per_query_seconds=0.5)
        assert budget.pool_seconds == pytest.approx(5.0)
        assert not budget.exhausted

    def test_greedy_drain_and_exhaustion(self):
        budget = BatchPool(4, per_query_seconds=1.0)
        # Pool (4s) covers the 2s of work entirely.
        assert budget.choose(delta_request(2.0)) == 1.0
        # 2s remain for 8s of work.
        assert budget.choose(delta_request(8.0)) == pytest.approx(0.25)
        assert budget.exhausted
        assert budget.choose(delta_request(8.0)) == 0.0

    def test_scan_fraction_resolution(self):
        budget = BatchPool(100, scan_fraction=0.2)
        with pytest.raises(Exception):
            budget.choose(delta_request(1.0))
        budget.register_scan_time(0.01)
        assert budget.pool_seconds == pytest.approx(0.2)
        budget.register_scan_time(5.0)  # idempotent
        assert budget.pool_seconds == pytest.approx(0.2)

    def test_zero_pool_is_exhausted_immediately(self):
        budget = BatchPool(100, per_query_seconds=0.0)
        assert budget.exhausted
        assert budget.choose(delta_request(1.0)) == 0.0

    def test_for_index_mappings(self):
        column = Column(np.arange(10))
        index = ProgressiveQuicksort(column, budget=FixedTime(0.25))
        assert BatchPool.for_index(index, 8).pool_seconds == pytest.approx(2.0)
        index = ProgressiveQuicksort(column, budget=TimeAdaptive(scan_fraction=0.4))
        assert BatchPool.for_index(index, 8).scan_fraction == pytest.approx(0.4)
        index = ProgressiveQuicksort(column, budget=FixedDelta(0.3))
        assert BatchPool.for_index(index, 8).scan_fraction == pytest.approx(0.3)


class TestBatchMatchesSequential:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_identical_results_per_algorithm(self, name, data, predicates):
        sequential = create_index(name, Column(data, name="value"))
        expected = [sequential.query(p) for p in predicates]
        batch_index = create_index(name, Column(data, name="value"))
        batch = BatchExecutor().execute(batch_index, predicates)
        assert len(batch) == len(predicates)
        for query_number, (want, got) in enumerate(zip(expected, batch.results)):
            assert got.count == want.count, f"{name} query {query_number}"
            assert got.value_sum == want.value_sum, f"{name} query {query_number}"

    def test_batch_covers_all_queries(self, data, predicates):
        index = create_index("PQ", Column(data, name="value"))
        batch = BatchExecutor().execute(index, predicates)
        assert batch.driven_queries + batch.vectorized_queries == len(predicates)
        assert batch.vectorized_queries > 0  # the pooled budget converges PQ
        assert index.converged

    def test_original_budget_restored(self, data, predicates):
        original = FixedDelta(0.1)
        index = ProgressiveQuicksort(Column(data), budget=original)
        BatchExecutor().execute(index, predicates)
        assert index.budget is original

    def test_sequential_queries_work_after_batch_first(self, data):
        """A batch as the index's very first operation must leave the
        restored per-query budget resolvable (regression: an adaptive
        scan-fraction budget missed its one-time register_scan_time)."""
        index = ProgressiveQuicksort(
            Column(data), budget=TimeAdaptive(scan_fraction=0.2)
        )
        BatchExecutor().execute(index, [Predicate(0, 500)])
        follow_up = index.query(Predicate(0, 500))
        mask = (data >= 0) & (data <= 500)
        assert follow_up.count == int(mask.sum())

    def test_empty_batch(self, data):
        index = create_index("PQ", Column(data, name="value"))
        batch = BatchExecutor().execute(index, [])
        assert batch.results == []
        assert index.queries_executed == 0

    def test_exhausted_pool_still_answers_exactly(self, data, predicates):
        index = create_index("PQ", Column(data, name="value"))
        executor = BatchExecutor(per_query_seconds=0.0, verify=True)
        batch = executor.execute(index, predicates)
        assert all(result is not None for result in batch.results)
        # No indexing budget: the index must not have converged.
        assert not index.converged

    def test_result_accessors(self, data, predicates):
        index = create_index("FS", Column(data, name="value"))
        batch = BatchExecutor().execute(index, predicates)
        assert isinstance(batch, BatchResult)
        assert batch.counts().shape == (len(predicates),)
        assert batch.sums().shape == (len(predicates),)
        assert batch.throughput() > 0

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_float_columns_match_sequential(self, name, rng):
        """Batch == sequential also on float data with negative values.

        Every algorithm — including PLSD, whose radix passes now run on
        order-preserving IEEE-754 bit-pattern keys instead of truncated
        integers — constructs a truly sorted array, so the vectorized paths
        apply everywhere.  Counts must match exactly and sums within float
        associativity tolerance.
        """
        data = rng.normal(0.0, 1.0, size=4_000)
        predicates = [Predicate(float(lo), float(lo) + 0.5) for lo in rng.uniform(-3, 2.5, size=60)]
        sequential = create_index(name, Column(data, name="value"), budget=FixedDelta(0.5))
        expected = [sequential.query(p) for p in predicates]
        batch_index = create_index(name, Column(data, name="value"), budget=FixedDelta(0.5))
        batch = BatchExecutor().execute(batch_index, predicates)
        for query_number, (want, got) in enumerate(zip(expected, batch.results)):
            assert got.count == want.count, f"{name} float query {query_number}"
            assert got.approximately_equals(want), f"{name} float query {query_number}"


class TestSearchManyEntryPoints:
    def test_cracker_column_matches_sequential_cracking(self, data, rng):
        predicates = random_range_predicates(data, 50, rng, selectivity=0.02)
        sequential = CrackerColumn(Column(data, name="value"))
        expected = [sequential.range_query(p.low, p.high) for p in predicates]
        batched = CrackerColumn(Column(data, name="value"))
        sums, counts = batched.search_many(
            np.array([p.low for p in predicates]),
            np.array([p.high for p in predicates]),
        )
        for want, got_sum, got_count in zip(expected, sums, counts):
            assert int(got_count) == want.count
            assert got_sum == want.value_sum

    def test_cracker_small_batch_cracks_instead_of_sorting(self, data):
        """A sparse batch keeps cracking's incremental piece behavior: the
        giant initial piece must not be fully sorted for a single query."""
        cracker = CrackerColumn(Column(data, name="value"))
        sums, counts = cracker.search_many(np.array([100]), np.array([500]))
        mask = (data >= 100) & (data <= 500)
        assert int(counts[0]) == int(mask.sum())
        assert sums[0] == data[mask].sum()
        assert not cracker.is_fully_sorted()

    def test_cracker_search_many_registers_bounds(self, data):
        cracker = CrackerColumn(Column(data, name="value"))
        cracker.search_many(np.array([100, 500]), np.array([200, 900]))
        assert cracker.n_pieces > 1
        # A follow-up query reuses the registered boundaries exactly.
        follow_up = cracker.range_query(100, 200)
        mask = (data >= 100) & (data <= 200)
        assert follow_up.count == int(mask.sum())

    def test_progressive_search_many_unavailable_before_sorted(self, data):
        index = create_index("PQ", Column(data, name="value"))
        assert index.search_many(np.array([0]), np.array([10])) is None
        index.query(Predicate(0, 10))  # creation phase, still unsorted
        assert index.search_many(np.array([0]), np.array([10])) is None

    def test_scan_many_matches_scan_range(self, data, predicates):
        column = Column(data, name="value")
        results = scan_many(
            column,
            np.array([p.low for p in predicates]),
            np.array([p.high for p in predicates]),
        )
        for predicate, got in zip(predicates, results):
            value_sum, count = column.scan_range(predicate.low, predicate.high)
            assert got.count == count
            assert got.value_sum == value_sum

    def test_scan_many_small_batch_path(self, data):
        # Below the amortization threshold scan_many uses plain scans.
        column = Column(data, name="value")
        results = scan_many(column, np.array([100]), np.array([500]))
        value_sum, count = column.scan_range(100, 500)
        assert results[0].count == count and results[0].value_sum == value_sum

    def test_cascade_search_many_answers_batches(self):
        from repro.btree.cascade import CascadeTree

        sorted_tree = CascadeTree(np.array([1, 3, 5, 9], dtype=np.int64))
        sums, counts = sorted_tree.search_many(np.array([2]), np.array([6]))
        assert int(counts[0]) == 2 and int(sums[0]) == 8

    def test_plsd_float_converges_truly_sorted(self, rng):
        """The ROADMAP's old PLSD float defect: integer-truncated radix keys
        left converged float arrays unsorted.  The order-preserving key
        codecs close it — the converged cascade leaves must be exactly the
        sorted column."""
        data = rng.normal(0.0, 1.0, size=3_000)
        index = create_index("PLSD", Column(data, name="value"), budget=FixedDelta(0.5))
        iterations = 0
        while not index.converged and iterations < 300:
            index.query(Predicate(-0.25, 0.25))
            iterations += 1
        assert index.converged
        assert np.array_equal(index._leaf.values, np.sort(data))


class TestSessionBatchAPI:
    def make_session(self, rng):
        ra = rng.integers(0, 20_000, size=8_000, dtype=np.int64)
        dec = rng.integers(0, 20_000, size=8_000, dtype=np.int64)
        table = Table({"ra": ra, "dec": dec})
        session = IndexingSession(table)
        session.create_index("ra", method="PQ", budget_fraction=0.2)
        return session, ra, dec

    def test_single_column_batch_matches_between(self, rng):
        session, ra, _ = self.make_session(rng)
        reference = IndexingSession(Table({"ra": ra, "dec": np.zeros_like(ra)}))
        reference.create_index("ra", method="PQ", budget_fraction=0.2)
        bounds = [(int(lo), int(lo) + 500) for lo in rng.integers(0, 19_000, size=40)]
        expected = [reference.between("ra", lo, hi) for lo, hi in bounds]
        results = session.execute_batch(bounds, column_name="ra")
        for want, got in zip(expected, results):
            assert got.count == want.count
            assert got.value_sum == want.value_sum

    def test_grouped_batch_preserves_submission_order(self, rng):
        session, ra, dec = self.make_session(rng)
        pairs = [
            ("ra", Predicate(0, 1_000)),
            ("dec", Predicate(100, 300)),
            ("ra", Predicate(5_000, 6_000)),
            ("dec", Predicate(0, 19_999)),
        ]
        results = session.execute_batch(pairs)
        for (column_name, predicate), got in zip(pairs, results):
            values = ra if column_name == "ra" else dec
            mask = (values >= predicate.low) & (values <= predicate.high)
            assert got.count == int(mask.sum())
            assert got.value_sum == values[mask].sum()

    def test_workload_batch(self, rng):
        session, ra, _ = self.make_session(rng)
        workload = random_workload(0, 20_000, 30, rng=rng)
        results = session.execute_batch(workload, column_name="ra")
        assert len(results) == 30
        for predicate, got in zip(workload, results):
            mask = (ra >= predicate.low) & (ra <= predicate.high)
            assert got.count == int(mask.sum())

    def test_ambiguous_default_column_rejected(self, rng):
        session, _, _ = self.make_session(rng)
        session.create_index("dec", method="FS")
        with pytest.raises(ExperimentError):
            session.execute_batch([(0, 10)])

    def test_unknown_column_rejected(self, rng):
        session, _, _ = self.make_session(rng)
        with pytest.raises(ExperimentError):
            session.execute_batch([("nope", Predicate(0, 1))])

    def test_inverted_ranges_yield_empty_results_like_between(self, rng):
        """An inverted range must not abort the batch (parity with between())."""
        session, ra, _ = self.make_session(rng)
        results = session.execute_batch(
            [(0, 1_000), (500, 100), (2_000, 3_000)], column_name="ra"
        )
        assert results[1].count == 0 and results[1].value_sum == 0
        for bounds, got in zip([(0, 1_000), (2_000, 3_000)], [results[0], results[2]]):
            mask = (ra >= bounds[0]) & (ra <= bounds[1])
            assert got.count == int(mask.sum())

    def test_all_inverted_batch(self, rng):
        session, _, _ = self.make_session(rng)
        results = session.execute_batch([(9, 1), (5, 2)], column_name="ra")
        assert [r.count for r in results] == [0, 0]

    def test_unindexed_column_batches_reuse_scan_handle(self, rng):
        session, _, dec = self.make_session(rng)
        first = session.execute_batch([(0, 1_000)] * 20, column_name="dec")
        handle = session._scan_handles["dec"]
        second = session.execute_batch([(0, 1_000)] * 20, column_name="dec")
        assert session._scan_handles["dec"] is handle  # cached, not rebuilt
        mask = (dec >= 0) & (dec <= 1_000)
        for got in first + second:
            assert got.count == int(mask.sum())


class TestWhere:
    def make_session(self, rng):
        ra = rng.integers(0, 10_000, size=6_000, dtype=np.int64)
        dec = rng.integers(0, 10_000, size=6_000, dtype=np.int64)
        mag = rng.integers(0, 100, size=6_000, dtype=np.int64)
        table = Table({"ra": ra, "dec": dec, "mag": mag})
        session = IndexingSession(table)
        session.create_index("ra", method="PQ", budget_fraction=0.2)
        return session, ra, dec, mag

    def test_matches_vectorized_reference(self, rng):
        session, ra, dec, mag = self.make_session(rng)
        result = session.where({"ra": (1_000, 4_000), "dec": (2_000, 9_000), "mag": (10, 60)})
        mask = (
            (ra >= 1_000) & (ra <= 4_000)
            & (dec >= 2_000) & (dec <= 9_000)
            & (mag >= 10) & (mag <= 60)
        )
        assert isinstance(result, ConjunctionResult)
        assert result.count == int(mask.sum())
        assert result.sum_of("ra") == ra[mask].sum()
        assert result.sum_of("dec") == dec[mask].sum()
        assert result.sum_of("mag") == mag[mask].sum()

    def test_single_column_where_matches_between(self, rng):
        session, ra, _, _ = self.make_session(rng)
        result = session.where({"ra": (500, 1_500)})
        reference = session.between("ra", 500, 1_500)
        assert result.count == reference.count
        assert result.sum_of("ra") == reference.value_sum

    def test_driving_column_is_the_indexed_one(self, rng):
        session, _, _, _ = self.make_session(rng)
        result = session.where({"ra": (0, 9_999), "dec": (0, 9_999)})
        assert result.driving_column == "ra"

    def test_where_advances_the_driving_index(self, rng):
        session, _, _, _ = self.make_session(rng)
        before = session.index_for("ra").queries_executed
        session.where({"ra": (100, 5_000), "dec": (0, 9_999)})
        assert session.index_for("ra").queries_executed == before + 1

    def test_disjoint_conjunction_is_empty(self, rng):
        session, _, _, _ = self.make_session(rng)
        result = session.where({"ra": (0, 9_999), "mag": (200, 300)})
        assert result.count == 0
        assert result.sum_of("ra") == 0

    def test_inverted_range_is_empty_not_an_error(self, rng):
        session, _, _, _ = self.make_session(rng)
        before = session.index_for("ra").queries_executed
        result = session.where({"ra": (5_000, 100)})
        assert result.count == 0
        # The index was not advanced for a provably empty conjunction.
        assert session.index_for("ra").queries_executed == before

    def test_empty_mapping_rejected(self, rng):
        session, _, _, _ = self.make_session(rng)
        with pytest.raises(ExperimentError):
            session.where({})

    def test_as_query_result_and_unknown_column(self, rng):
        session, ra, _, _ = self.make_session(rng)
        result = session.where({"ra": (0, 9_999)})
        as_result = result.as_query_result("ra")
        assert isinstance(as_result, QueryResult)
        assert as_result.count == result.count
        with pytest.raises(InvalidPredicateError):
            result.sum_of("dec")


class TestWorkloadBatchAdapters:
    def test_predicate_vector_roundtrip(self):
        workload = random_workload(0, 1_000, 25, rng=np.random.default_rng(3))
        vector = predicate_vector(workload)
        assert len(vector) == 25
        assert vector[0].low == workload[0].low

    def test_iter_batches_sizes(self):
        workload = random_workload(0, 1_000, 25, rng=np.random.default_rng(3))
        batches = list(iter_batches(workload, 10))
        assert [len(b) for b in batches] == [10, 10, 5]

    def test_conjunctive_queries_shape(self, rng):
        table = Table({"ra": rng.integers(0, 100, 500), "dec": rng.integers(0, 100, 500)})
        queries = conjunctive_queries(table, ["ra", "dec"], 7, selectivity=0.2, rng=rng)
        assert len(queries) == 7
        for query in queries:
            assert set(query) == {"ra", "dec"}
            for low, high in query.values():
                assert low <= high

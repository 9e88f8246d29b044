"""Tests for the execution engine: registry, executor, metrics, decision tree."""

import numpy as np
import pytest

from repro.core.policy import FixedDelta
from repro.core.phase import IndexPhase
from repro.engine import (
    ALGORITHMS,
    ADAPTIVE_ALGORITHMS,
    BASELINE_ALGORITHMS,
    PROGRESSIVE_ALGORITHMS,
    WorkloadExecutor,
    create_index,
    recommend_index,
)
from repro.engine.metrics import (
    compute_metrics,
    compute_phase_breakdown,
    convergence_query,
    cumulative_cost,
    first_query_cost,
    payoff_query,
    robustness,
)
from repro.errors import ExperimentError
from repro.progressive import (
    ProgressiveBucketsort,
    ProgressiveQuicksort,
    ProgressiveRadixsortLSD,
    ProgressiveRadixsortMSD,
)
from repro.storage.column import Column
from repro.workloads import Workload, generate_pattern


class TestRegistry:
    def test_registry_covers_all_paper_algorithms(self):
        assert set(ALGORITHMS) == {
            "FS", "FI", "STD", "STC", "PSTC", "CGI", "AA", "PQ", "PMSD", "PLSD", "PB",
        }
        assert set(PROGRESSIVE_ALGORITHMS) == {"PQ", "PMSD", "PLSD", "PB"}
        assert set(ADAPTIVE_ALGORITHMS) == {"STD", "STC", "PSTC", "CGI", "AA"}
        assert set(BASELINE_ALGORITHMS) == {"FS", "FI"}

    def test_create_index_by_name(self, uniform_column):
        index = create_index("pq", uniform_column, budget=FixedDelta(0.1))
        assert index.name == "PQ"

    def test_create_index_unknown_name(self, uniform_column):
        with pytest.raises(ExperimentError):
            create_index("nope", uniform_column)

    def test_names_match_instances(self, uniform_column):
        for name in ("PQ", "PMSD", "PLSD", "PB", "STD", "FS", "FI"):
            index = create_index(name, uniform_column)
            assert index.name == name


class TestMetrics:
    def test_first_and_cumulative(self):
        times = [3.0, 1.0, 1.0]
        assert first_query_cost(times) == 3.0
        assert cumulative_cost(times) == 5.0
        assert first_query_cost([]) == 0.0

    def test_robustness_is_variance_of_head(self):
        times = [1.0] * 100 + [100.0]
        assert robustness(times) == 0.0
        assert robustness([1.0, 3.0], window=2) == pytest.approx(1.0)

    def test_payoff(self):
        # Scan costs 1s/query; the method costs 3s then 0.1s afterwards.
        times = [3.0] + [0.1] * 10
        assert payoff_query(times, scan_time=1.0) == 4
        assert payoff_query([5.0, 5.0], scan_time=1.0) is None
        assert payoff_query(times, scan_time=0.0) is None

    def test_convergence(self):
        assert convergence_query([False, False, True, True]) == 3
        assert convergence_query([False, False]) is None

    def test_compute_metrics_bundle(self):
        metrics = compute_metrics([2.0, 0.5, 0.5], [False, True, True], scan_time=1.0)
        assert metrics.first_query_seconds == 2.0
        assert metrics.cumulative_seconds == 3.0
        assert metrics.convergence_query == 2
        # Cumulative cost [2.0, 2.5, 3.0] first drops to the scan cumulative
        # cost [1, 2, 3] at the third query.
        assert metrics.payoff_query == 3
        row = metrics.as_row()
        assert row["convergence"] == 2 and row["queries"] == 3

    def test_as_row_uses_x_for_missing(self):
        metrics = compute_metrics([2.0], [False], scan_time=0.0)
        assert metrics.as_row()["convergence"] == "x"
        assert metrics.as_row()["payoff"] == "x"


class TestExecutor:
    @pytest.fixture
    def workload(self, uniform_data):
        return generate_pattern(
            "Random", 0, int(uniform_data.max()), 30, rng=np.random.default_rng(5)
        )

    def test_run_records_every_query(self, uniform_column, workload):
        executor = WorkloadExecutor()
        index = create_index("PQ", uniform_column, budget=FixedDelta(0.25))
        result = executor.run(index, workload)
        assert result.n_queries == len(workload)
        assert result.scan_seconds > 0
        assert all(record.elapsed_seconds >= 0 for record in result.records)
        assert result.times().shape == (len(workload),)

    def test_verification_mode_accepts_correct_indexes(self, uniform_column, workload):
        executor = WorkloadExecutor(verify=True)
        index = create_index("PMSD", uniform_column, budget=FixedDelta(0.25))
        executor.run(index, workload)  # must not raise

    def test_phase_transitions_are_monotone(self, uniform_column, workload):
        executor = WorkloadExecutor()
        index = create_index("PQ", uniform_column, budget=FixedDelta(0.5))
        result = executor.run(index, workload)
        orders = [phase.order for _, phase in result.phase_transitions()]
        assert orders == sorted(orders)

    def test_metrics_from_execution(self, uniform_column, workload):
        executor = WorkloadExecutor()
        index = create_index("PB", uniform_column, budget=FixedDelta(0.5))
        result = executor.run(index, workload)
        metrics = result.metrics()
        assert metrics.n_queries == len(workload)
        assert metrics.convergence_query is not None

    def test_predicted_times_present_for_progressive(self, uniform_column, workload):
        executor = WorkloadExecutor()
        index = create_index("PQ", uniform_column, budget=FixedDelta(0.25))
        result = executor.run(index, workload)
        predictions = result.predicted_times()
        assert np.isfinite(predictions).all()

    def test_phase_breakdown_accounts_every_query(self, uniform_column, workload):
        executor = WorkloadExecutor()
        index = create_index("PQ", uniform_column, budget=FixedDelta(0.5))
        result = executor.run(index, workload)
        breakdown = result.phase_breakdown()
        assert sum(stats.queries for stats in breakdown.values()) == len(workload)
        # The index did real indexing work, so some phase spent budget.
        assert any(stats.indexing_seconds > 0 for stats in breakdown.values())
        # Phases come out in life-cycle order.
        orders = [phase.order for phase in breakdown]
        assert orders == sorted(orders)
        row = next(iter(breakdown.values())).as_row()
        assert {"phase", "queries", "elapsed_s", "indexing_s"} <= set(row)

    def test_phase_breakdown_matches_lifecycle_accounting(self, uniform_column, workload):
        executor = WorkloadExecutor()
        index = create_index("PMSD", uniform_column, budget=FixedDelta(0.5))
        result = executor.run(index, workload)
        breakdown = result.phase_breakdown()
        for phase, stats in breakdown.items():
            assert index.lifecycle.queries_in(phase) == stats.queries
            assert index.lifecycle.indexing_seconds_in(phase) == pytest.approx(
                stats.indexing_seconds
            )

    def test_compute_phase_breakdown_on_plain_records(self):
        class Record:
            def __init__(self, phase, elapsed, indexing):
                self.phase = phase
                self.elapsed_seconds = elapsed
                self.indexing_seconds = indexing

        records = [
            Record(IndexPhase.CREATION, 1.0, 0.5),
            Record(IndexPhase.CREATION, 2.0, 0.25),
            Record(IndexPhase.CONVERGED, 0.5, 0.0),
        ]
        breakdown = compute_phase_breakdown(records)
        assert breakdown[IndexPhase.CREATION].queries == 2
        assert breakdown[IndexPhase.CREATION].elapsed_seconds == pytest.approx(3.0)
        assert breakdown[IndexPhase.CREATION].indexing_seconds == pytest.approx(0.75)
        assert breakdown[IndexPhase.CONVERGED].queries == 1


class TestDecisionTree:
    def test_point_queries_recommend_lsd(self):
        assert recommend_index(point_query_workload=True).index_class is ProgressiveRadixsortLSD

    def test_skewed_data_recommends_bucketsort(self):
        assert recommend_index(skewed_data=True).index_class is ProgressiveBucketsort

    def test_uniform_data_recommends_msd(self):
        assert recommend_index().index_class is ProgressiveRadixsortMSD

    def test_memory_constrained_recommends_quicksort(self):
        assert recommend_index(memory_constrained=True).index_class is ProgressiveQuicksort

    def test_non_integer_domain_no_longer_forces_quicksort(self):
        # Since the order-preserving key codecs, float64 columns
        # radix-cluster exactly: the data type alone no longer routes to
        # Quicksort — only genuine memory pressure does.
        assert recommend_index(integer_domain=False).index_class is ProgressiveRadixsortMSD
        assert (
            recommend_index(integer_domain=False, skewed_data=True).index_class
            is ProgressiveBucketsort
        )
        assert (
            recommend_index(integer_domain=False, memory_constrained=True).index_class
            is ProgressiveQuicksort
        )

    def test_recommendation_creates_index(self, uniform_column):
        recommendation = recommend_index()
        index = recommendation.create(uniform_column, budget=FixedDelta(0.1))
        assert index.name == recommendation.acronym

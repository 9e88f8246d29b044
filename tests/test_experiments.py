"""Smoke tests for the experiment drivers and report renderers.

The drivers are exercised with the tiny "quick" configuration so the suite
stays fast; the full-scale runs live in the benchmark harness.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    figure5_summary,
    figure6_summary,
    run_cost_model_validation,
    run_delta_impact,
    run_figure10,
    run_skyserver_comparison,
    run_synthetic_comparison,
)
from repro.experiments.reporting import (
    format_count,
    format_seconds,
    render_cost_model_validation,
    render_delta_impact,
    render_figure10,
    render_synthetic_table,
    render_table,
    render_table2,
    rows_to_csv,
)
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def quick_config():
    return ExperimentConfig.quick()


class TestConfig:
    def test_quick_configuration(self, quick_config):
        assert quick_config.n_elements <= 50_000
        assert not quick_config.calibrate_constants
        assert quick_config.constants().source == "simulated"

    def test_paper_scale_configuration(self):
        config = ExperimentConfig.paper_scale()
        assert config.n_elements == 100_000_000

    def test_invalid_configuration(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(n_elements=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(selectivity=0.0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(budget_fraction=0.0)

    def test_rng_is_deterministic(self, quick_config):
        assert quick_config.rng(1).integers(0, 100) == quick_config.rng(1).integers(0, 100)


class TestWorkloadFigures:
    def test_figure5_summary(self, quick_config):
        summary = figure5_summary(quick_config)
        assert summary.histogram_counts.sum() == quick_config.n_elements
        assert summary.n_queries == quick_config.n_queries
        assert summary.distribution_skew() > 1.5
        assert 0 < summary.workload_drift() < 0.5

    def test_figure6_summary_covers_all_patterns(self, quick_config):
        series = figure6_summary(quick_config)
        assert len(series) == 8
        for ranges in series.values():
            assert len(ranges) == quick_config.n_queries


class TestDeltaImpact:
    def test_sweep_produces_all_rows(self, quick_config):
        result = run_delta_impact(quick_config, deltas=(0.1, 0.5), algorithms=("PQ", "PMSD"))
        assert len(result.rows) == 4
        assert set(result.algorithms()) == {"PQ", "PMSD"}
        series = result.series("cumulative_seconds")
        assert len(series["PQ"]) == 2

    def test_higher_delta_converges_in_fewer_queries(self, quick_config):
        result = run_delta_impact(quick_config, deltas=(0.1, 1.0), algorithms=("PMSD",))
        rows = result.for_algorithm("PMSD")
        low_delta, high_delta = rows[0], rows[-1]
        assert high_delta.convergence_query is not None
        assert low_delta.convergence_query is None or (
            high_delta.convergence_query <= low_delta.convergence_query
        )

    def test_report_rendering(self, quick_config):
        result = run_delta_impact(quick_config, deltas=(0.5,), algorithms=("PQ",))
        text = render_delta_impact(result)
        assert "Figure 7a" in text and "PQ" in text


class TestCostModelValidation:
    def test_fixed_budget_series(self, quick_config):
        result = run_cost_model_validation(quick_config, adaptive=False, algorithms=("PQ",))
        series = result.series["PQ"]
        assert series.n_queries == quick_config.n_queries
        assert np.isfinite(series.predicted_seconds).all()
        assert -1.0 <= series.correlation() <= 1.0

    def test_adaptive_budget_series(self, quick_config):
        result = run_cost_model_validation(quick_config, adaptive=True, algorithms=("PMSD",))
        assert "PMSD" in result.series
        assert "adaptive" in result.budget

    def test_report_rendering(self, quick_config):
        result = run_cost_model_validation(quick_config, adaptive=False, algorithms=("PQ", "PB"))
        text = render_cost_model_validation(result)
        assert "Correlation" in text and "PB" in text


class TestGreedyVsFixed:
    def test_greedy_rows_and_tau_contract(self, quick_config):
        from repro.experiments import run_greedy_vs_fixed
        from repro.experiments.reporting import render_greedy_validation

        result = run_greedy_vs_fixed(quick_config, algorithms=("PQ", "PMSD"))
        assert result.algorithms() == ["PMSD", "PQ"]
        for algorithm in result.algorithms():
            row = result.rows[algorithm]
            assert row.tau_seconds > 0
            # The greedy policy's contract: pre-convergence predictions land
            # within tau (modulo the minimum-delta tolerance).
            assert row.within_tau_fraction == pytest.approx(1.0)
            assert row.greedy_convergence_query is not None
        text = render_greedy_validation(result)
        assert "tau" in text and "PMSD" in text

    def test_phase_breakdown_rendering(self, quick_config):
        from repro.core.policy import FixedDelta
        from repro.engine import WorkloadExecutor, create_index
        from repro.experiments.reporting import render_phase_breakdown
        from repro.storage.column import Column
        from repro.workloads import generate_pattern

        rng = np.random.default_rng(3)
        data = rng.integers(0, 10_000, size=8_000)
        workload = generate_pattern("Random", 0, 10_000, 25, rng=rng)
        execution = WorkloadExecutor().run(
            create_index("PQ", Column(data, name="v"), budget=FixedDelta(0.5)),
            workload,
        )
        text = render_phase_breakdown(execution.phase_breakdown())
        assert "Phase" in text and "creation" in text


class TestSkyServerComparison:
    def test_table2_rows(self, quick_config):
        result = run_skyserver_comparison(quick_config, algorithms=("FS", "PQ", "STD"))
        assert set(result.rows) == {"FS", "PQ", "STD"}
        pq = result.row("PQ")
        assert pq.first_query_seconds > 0
        assert pq.convergence_query is not None
        assert result.row("STD").convergence_query is None
        text = render_table2(result)
        assert "Table 2" in text and "PQ" in text

    def test_progressive_converges_and_cracking_does_not(self, quick_config):
        result = run_skyserver_comparison(quick_config, algorithms=("PMSD", "PSTC"))
        assert result.row("PMSD").convergence_query is not None
        assert result.row("PSTC").convergence_query is None

    def test_figure10(self, quick_config):
        executions = run_figure10(quick_config, algorithms=("PQ", "PSTC"))
        assert set(executions) == {"PQ", "PSTC"}
        text = render_figure10(executions, head=5)
        assert "Figure 10" in text


class TestSyntheticComparison:
    def test_grid_runs_selected_blocks(self, quick_config):
        result = run_synthetic_comparison(
            quick_config,
            blocks=("uniform", "point"),
            patterns=("Random",),
            algorithms=("PQ", "PLSD"),
        )
        assert set(result.blocks()) == {"uniform", "point"}
        table = result.table("cumulative_seconds", "uniform")
        assert set(table["Random"]) == {"PQ", "PLSD"}
        winners = result.winners("cumulative_seconds", "uniform")
        assert winners["Random"] in {"PQ", "PLSD"}

    def test_report_rendering(self, quick_config):
        result = run_synthetic_comparison(
            quick_config, blocks=("uniform",), patterns=("Random",), algorithms=("PQ",)
        )
        text = render_synthetic_table(result, "first_query_seconds", "Table 3")
        assert "Table 3" in text and "Random" in text


class TestReportingHelpers:
    def test_format_seconds(self):
        assert format_seconds(None) == "x"
        assert format_seconds(0) == "0"
        assert format_seconds(1e-6) == "1.00e-06"
        assert format_seconds(0.5) == "0.5000"
        assert format_seconds(12.3456) == "12.35"

    def test_format_count(self):
        assert format_count(None) == "x"
        assert format_count(7) == "7"

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]

    def test_rows_to_csv(self):
        csv_text = rows_to_csv(["x", "y"], [[1, 2], [3, 4]])
        assert "x,y" in csv_text and "3,4" in csv_text

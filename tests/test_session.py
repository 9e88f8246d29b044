"""Tests for the high-level IndexingSession API."""

import numpy as np
import pytest

from repro.core.policy import CostModelGreedy, TimeAdaptive
from repro.engine import IndexingSession
from repro.errors import ExperimentError, IndexStateError
from repro.storage import Column, Table


@pytest.fixture
def table(uniform_data, skewed_data):
    return Table({"uniform": uniform_data, "skewed": skewed_data[: len(uniform_data)]})


class TestSessionConstruction:
    def test_from_table(self, table):
        session = IndexingSession(table)
        assert set(session.table.column_names) == {"uniform", "skewed"}

    def test_from_column(self, uniform_data):
        session = IndexingSession(Column(uniform_data, name="ra"))
        assert "ra" in session.table

    def test_from_array(self, uniform_data):
        session = IndexingSession(uniform_data)
        assert "value" in session.table


class TestSessionIndexing:
    def test_create_named_index(self, table):
        session = IndexingSession(table)
        index = session.create_index("uniform", method="PMSD", fixed_delta=0.25)
        assert index.name == "PMSD"
        assert session.index_for("uniform") is index

    def test_create_index_with_decision_tree(self, table):
        session = IndexingSession(table)
        index = session.create_index("skewed", skewed_data=True)
        assert index.name == "PB"

    def test_create_index_defaults_to_adaptive_budget(self, table):
        session = IndexingSession(table)
        index = session.create_index("uniform", method="PQ")
        assert isinstance(index.budget, TimeAdaptive)

    def test_duplicate_index_rejected(self, table):
        session = IndexingSession(table)
        session.create_index("uniform", method="PQ")
        with pytest.raises(ExperimentError):
            session.create_index("uniform", method="PB")

    def test_drop_index(self, table):
        session = IndexingSession(table)
        session.create_index("uniform", method="PQ")
        session.drop_index("uniform")
        with pytest.raises(IndexStateError):
            session.index_for("uniform")

    def test_index_for_unknown_column(self, table):
        session = IndexingSession(table)
        with pytest.raises(IndexStateError):
            session.index_for("uniform")


class TestSessionQueries:
    def test_between_uses_index_and_is_exact(self, table, uniform_data, rng):
        session = IndexingSession(table)
        session.create_index("uniform", method="PQ", fixed_delta=0.25)
        for _ in range(30):
            low = int(rng.integers(0, 40_000))
            high = low + 5_000
            result = session.between("uniform", low, high)
            mask = (uniform_data >= low) & (uniform_data <= high)
            assert result.count == mask.sum()
            assert result.value_sum == uniform_data[mask].sum()

    def test_between_without_index_scans(self, table, uniform_data):
        session = IndexingSession(table)
        result = session.between("uniform", 0, 1_000)
        mask = uniform_data <= 1_000
        assert result.count == mask.sum()

    def test_equals(self, table, uniform_data):
        session = IndexingSession(table)
        value = int(uniform_data[0])
        result = session.equals("uniform", value)
        assert result.count == int((uniform_data == value).sum())

    def test_status_reports_progress(self, table, rng):
        session = IndexingSession(table)
        session.create_index("uniform", method="PB", fixed_delta=0.5)
        for _ in range(10):
            low = int(rng.integers(0, 40_000))
            session.between("uniform", low, low + 1_000)
        status = session.status()
        assert status["uniform"]["algorithm"] == "PB"
        assert status["uniform"]["queries_executed"] == 10
        assert status["uniform"]["memory_bytes"] > 0

    def test_queries_drive_convergence(self, table, rng):
        session = IndexingSession(table)
        session.create_index("uniform", method="PMSD", fixed_delta=1.0)
        for _ in range(30):
            low = int(rng.integers(0, 40_000))
            session.between("uniform", low, low + 1_000)
            if session.index_for("uniform").converged:
                break
        assert session.index_for("uniform").converged
        assert session.status()["uniform"]["converged"]


class TestInteractivityBudget:
    def test_create_index_with_interactivity_budget(self, table):
        session = IndexingSession(table)
        index = session.create_index("uniform", method="PQ", interactivity_budget=0.5)
        assert isinstance(index.budget, CostModelGreedy)
        assert index.budget.interactivity_budget == pytest.approx(0.5)
        result = session.between("uniform", 100, 5_000)
        assert result.count >= 0

    def test_budget_parameters_are_mutually_exclusive(self, table):
        session = IndexingSession(table)
        with pytest.raises(ExperimentError):
            session.create_index(
                "uniform", method="PQ", fixed_delta=0.1, interactivity_budget=0.5
            )

    def test_status_reports_phase_stats(self, table):
        session = IndexingSession(table)
        session.create_index("uniform", method="PMSD", fixed_delta=0.5)
        for low in range(0, 2_000, 100):
            session.between("uniform", low, low + 500)
        status = session.status()["uniform"]
        assert "phase_stats" in status and "budget" in status
        phase_stats = status["phase_stats"]
        assert sum(stats["queries"] for stats in phase_stats.values()) == 20
        assert any(stats["indexing_seconds"] > 0 for stats in phase_stats.values())

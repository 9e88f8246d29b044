"""Edge cases shared across the whole index zoo.

Small columns, single elements, constant columns, queries outside the domain,
inverted predicates and repeated identical queries — every index has to cope
with all of them.
"""

import numpy as np
import pytest

from repro.core.policy import MINIMUM_DELTA, BatchPool, FixedDelta, TimeAdaptive
from repro.core.phase import IndexPhase
from repro.core.query import Predicate
from repro.engine.registry import ALGORITHMS, PROGRESSIVE_ALGORITHMS
from repro.engine.session import IndexingSession
from repro.errors import InvalidBudgetError, InvalidPredicateError
from repro.progressive.quicksort import ProgressiveQuicksort
from repro.storage.column import Column
from repro.storage.table import Table

from tests.conftest import delta_request

ALL_NAMES = sorted(ALGORITHMS)


def build(name: str, data: np.ndarray):
    column = Column(data)
    if name in PROGRESSIVE_ALGORITHMS:
        return ALGORITHMS[name](column, budget=FixedDelta(0.5))
    return ALGORITHMS[name](column)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestTinyColumns:
    def test_single_element_column(self, name):
        index = build(name, np.array([42]))
        for _ in range(5):
            assert index.query(Predicate(42, 42)).count == 1
            assert index.query(Predicate(0, 41)).count == 0
            assert index.query(Predicate(43, 100)).count == 0

    def test_two_element_column(self, name):
        index = build(name, np.array([7, 3]))
        for _ in range(5):
            result = index.query(Predicate(0, 10))
            assert result.count == 2 and result.value_sum == 10

    def test_tiny_constant_column(self, name):
        index = build(name, np.full(17, 5))
        for _ in range(5):
            assert index.query(Predicate(5, 5)).count == 17


@pytest.mark.parametrize("name", ALL_NAMES)
class TestQueryShapes:
    def test_query_covering_entire_domain(self, name, rng):
        data = rng.integers(0, 1_000, size=3_000)
        index = build(name, data)
        for _ in range(5):
            result = index.query(Predicate(-10, 2_000))
            assert result.count == data.size
            assert result.value_sum == data.sum()

    def test_query_below_and_above_domain(self, name, rng):
        data = rng.integers(100, 200, size=2_000)
        index = build(name, data)
        for _ in range(5):
            assert index.query(Predicate(0, 50)).count == 0
            assert index.query(Predicate(500, 600)).count == 0

    def test_boundary_values_are_inclusive(self, name, rng):
        data = rng.integers(0, 100, size=2_000)
        index = build(name, data)
        low, high = int(data.min()), int(data.max())
        for _ in range(5):
            result = index.query(Predicate(low, high))
            assert result.count == data.size

    def test_repeated_identical_query(self, name, rng):
        data = rng.integers(0, 10_000, size=3_000)
        index = build(name, data)
        predicate = Predicate(2_000, 3_000)
        expected = int(((data >= 2_000) & (data <= 3_000)).sum())
        for _ in range(10):
            assert index.query(predicate).count == expected

    def test_alternating_extreme_queries(self, name, rng):
        data = rng.integers(0, 10_000, size=3_000)
        index = build(name, data)
        narrow = Predicate(5_000, 5_001)
        wide = Predicate(0, 10_000)
        for _ in range(5):
            assert index.query(wide).count == data.size
            narrow_expected = int(((data >= 5_000) & (data <= 5_001)).sum())
            assert index.query(narrow).count == narrow_expected


class TestPredicateValidation:
    def test_inverted_predicate_rejected_at_construction(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(10, 5)


class TestBudgetEdgeCases:
    """Zero / exhausted budgets must stall construction, never corrupt it."""

    def test_zero_fixed_budget_answers_exactly_without_advancing(self, rng):
        data = rng.integers(0, 1_000, size=2_000)
        index = ProgressiveQuicksort(Column(data), budget=FixedDelta(0.0))
        expected = int(((data >= 100) & (data <= 300)).sum())
        for _ in range(10):
            assert index.query(Predicate(100, 300)).count == expected
            assert index.last_stats.elements_indexed == 0
        # delta = 0 pins the index in the creation phase forever.
        assert index.phase is IndexPhase.CREATION
        assert not index.converged

    def test_adaptive_budget_exhausted_slack_floors_at_minimum_delta(self):
        budget = TimeAdaptive(budget_seconds=0.01)
        budget.register_scan_time(1.0)
        # The query alone already exceeds the target cost: no slack remains,
        # yet the returned delta must stay at the convergence floor.
        delta = budget.choose(delta_request(full_work_time=10.0, query_base_cost=100.0))
        assert delta == MINIMUM_DELTA

    def test_adaptive_budget_with_zero_minimum_delta_can_return_zero(self):
        budget = TimeAdaptive(budget_seconds=0.01, minimum_delta=0.0)
        budget.register_scan_time(1.0)
        delta = budget.choose(delta_request(full_work_time=10.0, query_base_cost=100.0))
        assert delta == 0.0

    def test_adaptive_budget_rejects_non_positive_configuration(self):
        with pytest.raises(InvalidBudgetError):
            TimeAdaptive(budget_seconds=0.0)
        with pytest.raises(InvalidBudgetError):
            TimeAdaptive(scan_fraction=-0.1)
        with pytest.raises(InvalidBudgetError):
            TimeAdaptive()

    def test_exhausted_adaptive_budget_still_converges_index(self, rng):
        data = rng.integers(0, 1_000, size=1_000)
        index = ProgressiveQuicksort(
            Column(data), budget=TimeAdaptive(budget_seconds=1e-12)
        )
        expected = int(((data >= 0) & (data <= 999)).sum())
        for _ in range(20_000):
            assert index.query(Predicate(0, 999)).count == expected
            if index.converged:
                break
        # The minimum-delta floor guarantees eventual convergence even when
        # the cost model predicts no slack at all.
        assert index.converged

    def test_batch_budget_zero_and_exhausted(self):
        zero = BatchPool(50, per_query_seconds=0.0)
        assert zero.exhausted
        assert zero.choose(delta_request(1.0)) == 0.0
        pool = BatchPool(2, per_query_seconds=1.0)
        assert pool.choose(delta_request(2.0)) == 1.0  # drains the pool entirely
        assert pool.exhausted
        assert pool.choose(delta_request(2.0)) == 0.0


class TestSessionQueryEdgeCases:
    """Inverted ranges and absent values through the user-facing API."""

    def make_session(self, rng):
        data = rng.integers(0, 1_000, size=2_000) * 2  # even values only
        session = IndexingSession(Table({"ra": data}))
        session.create_index("ra", method="PQ", budget_fraction=0.2)
        return session, data

    def test_inverted_between_is_empty_and_does_not_advance(self, rng):
        session, _ = self.make_session(rng)
        index = session.index_for("ra")
        before = index.queries_executed
        result = session.between("ra", 500, 100)
        assert result.count == 0 and result.value_sum == 0
        assert index.queries_executed == before
        assert index.phase is IndexPhase.INACTIVE

    def test_inverted_between_on_unindexed_column(self, rng):
        session = IndexingSession(Table({"ra": rng.integers(0, 100, 500)}))
        assert session.between("ra", 50, 10).count == 0

    def test_point_query_on_absent_value(self, rng):
        session, data = self.make_session(rng)
        index = session.index_for("ra")
        # Odd values never occur in the even-only column.
        assert session.equals("ra", 3).count == 0
        assert index.queries_executed == 1  # the query still advances the index
        # Construction keeps progressing correctly after the miss.
        expected = int((data == data[0]).sum())
        for _ in range(60):
            assert session.equals("ra", int(data[0])).count == expected
            if index.converged:
                break
        assert index.converged
        assert session.equals("ra", 3).count == 0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_absent_point_value_across_algorithms(self, name, rng):
        data = rng.integers(0, 500, size=1_000) * 2
        index = build(name, data)
        for _ in range(5):
            assert index.query(Predicate(7, 7)).count == 0
            assert index.query(Predicate(-3, -3)).count == 0


@pytest.mark.parametrize("name", sorted(PROGRESSIVE_ALGORITHMS))
class TestProgressiveEdgeBehaviour:
    def test_convergence_on_tiny_column(self, name):
        data = np.arange(32)
        index = build(name, data)
        for _ in range(30):
            index.query(Predicate(0, 31))
            if index.converged:
                break
        assert index.converged

    def test_already_sorted_input(self, name):
        data = np.arange(5_000)
        index = build(name, data)
        for _ in range(40):
            result = index.query(Predicate(1_000, 1_999))
            assert result.count == 1_000
            if index.converged:
                break
        assert index.converged

    def test_reverse_sorted_input(self, name, rng):
        data = np.arange(5_000)[::-1].copy()
        index = build(name, data)
        for _ in range(40):
            result = index.query(Predicate(1_000, 1_999))
            assert result.count == 1_000
            if index.converged:
                break
        assert index.converged

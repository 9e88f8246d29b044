"""Tests for the fixed and time-adaptive budget policies.

The adaptive path is exercised with an injected fake clock, so the
wall-clock feedback loop is driven deterministically — no real time is
read anywhere in this module.
"""

import pytest

from repro.core.policy import MINIMUM_DELTA, FixedDelta, FixedTime, ManualClock, TimeAdaptive
from repro.errors import InvalidBudgetError

from tests.conftest import delta_request


class TestFixedBudget:
    def test_returns_constant_delta(self):
        budget = FixedDelta(0.25)
        assert budget.choose(delta_request(1.0)) == 0.25
        assert budget.choose(delta_request(100.0)) == 0.25

    def test_zero_delta_allowed(self):
        assert FixedDelta(0.0).choose(delta_request(1.0)) == 0.0

    def test_full_delta_allowed(self):
        assert FixedDelta(1.0).choose(delta_request(1.0)) == 1.0

    @pytest.mark.parametrize("delta", [-0.1, 1.5])
    def test_rejects_out_of_range(self, delta):
        with pytest.raises(InvalidBudgetError):
            FixedDelta(delta)

    def test_not_adaptive(self):
        assert FixedDelta(0.5).adaptive is False

    def test_describe(self):
        assert "0.5" in FixedDelta(0.5).describe()


class TestFixedTimeBudget:
    def test_delta_computed_once(self):
        budget = FixedTime(budget_seconds=0.5)
        first = budget.choose(delta_request(full_work_time=2.0))
        assert first == pytest.approx(0.25)
        # Later calls keep the same delta even when the work estimate changes.
        assert budget.choose(delta_request(full_work_time=100.0)) == pytest.approx(0.25)

    def test_caps_at_one(self):
        budget = FixedTime(budget_seconds=10.0)
        assert budget.choose(delta_request(full_work_time=1.0)) == 1.0

    def test_zero_work_means_full_delta(self):
        assert FixedTime(1.0).choose(delta_request(0.0)) == 1.0

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidBudgetError):
            FixedTime(0.0)


class TestTimeAdaptive:
    """The time-adaptive policy."""

    def test_alias_is_the_policy_class(self):
        """The package exports the policy class itself, under one name."""
        import repro
        import repro.core

        assert repro.TimeAdaptive is repro.core.TimeAdaptive is TimeAdaptive
        assert not hasattr(repro, "AdaptiveBudget")

    def test_requires_exactly_one_parameter(self):
        with pytest.raises(InvalidBudgetError):
            TimeAdaptive()
        with pytest.raises(InvalidBudgetError):
            TimeAdaptive(budget_seconds=1.0, scan_fraction=0.2)

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidBudgetError):
            TimeAdaptive(budget_seconds=-1.0)
        with pytest.raises(InvalidBudgetError):
            TimeAdaptive(scan_fraction=0.0)

    def test_scan_fraction_requires_registration(self):
        budget = TimeAdaptive(scan_fraction=0.2)
        with pytest.raises(InvalidBudgetError):
            budget.choose(delta_request(1.0))

    def test_scan_fraction_resolution(self):
        budget = TimeAdaptive(scan_fraction=0.2)
        budget.register_scan_time(1.0)
        assert budget.budget_seconds == pytest.approx(0.2)
        assert budget.target_query_cost == pytest.approx(1.2)

    def test_first_query_uses_raw_budget(self):
        budget = TimeAdaptive(budget_seconds=0.2)
        # Without a registered scan time the slack is the raw budget.
        assert budget.choose(delta_request(full_work_time=1.0)) == pytest.approx(0.2)

    def test_keeps_total_cost_constant(self):
        budget = TimeAdaptive(scan_fraction=0.2)
        budget.register_scan_time(1.0)
        # Query that would cost 0.4 on its own leaves 0.8 of slack.
        delta = budget.choose(delta_request(full_work_time=2.0, query_base_cost=0.4))
        assert delta == pytest.approx(0.4)

    def test_cheap_queries_get_more_indexing(self):
        budget = TimeAdaptive(scan_fraction=0.2)
        budget.register_scan_time(1.0)
        expensive = budget.choose(delta_request(2.0, query_base_cost=1.0))
        cheap = budget.choose(delta_request(2.0, query_base_cost=0.1))
        assert cheap > expensive

    def test_minimum_delta_floor(self):
        budget = TimeAdaptive(scan_fraction=0.2)
        budget.register_scan_time(1.0)
        # The query alone already exceeds the target: fall back to the floor.
        delta = budget.choose(delta_request(full_work_time=10.0, query_base_cost=5.0))
        assert delta == pytest.approx(MINIMUM_DELTA)

    def test_delta_capped_at_one(self):
        budget = TimeAdaptive(budget_seconds=100.0)
        budget.register_scan_time(1.0)
        assert budget.choose(delta_request(full_work_time=1.0, query_base_cost=0.0)) == 1.0

    def test_is_adaptive(self):
        assert TimeAdaptive(scan_fraction=0.2).adaptive is True

    def test_describe(self):
        assert "0.2" in TimeAdaptive(scan_fraction=0.2).describe()
        assert "s" in TimeAdaptive(budget_seconds=0.25).describe()


class TestTimeAdaptiveClockFeedback:
    """Deterministic, fake-clock-driven wall-clock correction."""

    def test_no_clock_disables_feedback(self):
        budget = TimeAdaptive(budget_seconds=0.2)
        budget.observe(elapsed_seconds=100.0, predicted_seconds=1.0)
        assert budget.correction == 1.0

    def test_slow_machine_shrinks_delta(self):
        clock = ManualClock()
        budget = TimeAdaptive(budget_seconds=0.2, clock=clock)
        budget.register_scan_time(1.0)
        baseline = budget.choose(delta_request(2.0, query_base_cost=0.4))
        # Queries keep measuring 2x their prediction.
        for _ in range(20):
            budget.observe(elapsed_seconds=2.0, predicted_seconds=1.0)
        corrected = budget.choose(delta_request(2.0, query_base_cost=0.4))
        assert budget.correction > 1.0
        assert corrected < baseline

    def test_fast_machine_recovers_delta(self):
        clock = ManualClock()
        budget = TimeAdaptive(budget_seconds=0.2, clock=clock)
        budget.register_scan_time(1.0)
        for _ in range(20):
            budget.observe(elapsed_seconds=2.0, predicted_seconds=1.0)
        slowed = budget.choose(delta_request(2.0, query_base_cost=0.4))
        for _ in range(40):
            budget.observe(elapsed_seconds=0.5, predicted_seconds=1.0)
        recovered = budget.choose(delta_request(2.0, query_base_cost=0.4))
        assert recovered > slowed

    def test_correction_is_clamped(self):
        clock = ManualClock()
        budget = TimeAdaptive(budget_seconds=0.2, clock=clock)
        for _ in range(100):
            budget.observe(elapsed_seconds=1000.0, predicted_seconds=1.0)
        low, high = TimeAdaptive.CORRECTION_RANGE
        assert low <= budget.correction <= high

    def test_observe_ignores_missing_prediction(self):
        clock = ManualClock()
        budget = TimeAdaptive(budget_seconds=0.2, clock=clock)
        budget.observe(elapsed_seconds=5.0, predicted_seconds=None)
        assert budget.correction == 1.0

    def test_clock_driven_index_is_deterministic(self):
        """An index driven with a fake clock yields identical runs."""
        import numpy as np

        from repro.core.query import Predicate
        from repro.progressive.quicksort import ProgressiveQuicksort
        from repro.storage.column import Column

        def run():
            clock = ManualClock()
            data = np.arange(2_000)
            index = ProgressiveQuicksort(
                Column(data, name="v"),
                budget=TimeAdaptive(scan_fraction=2.0, clock=clock),
            )
            deltas = []
            for low in range(0, 1000, 50):
                # Advance the fake clock by a fixed amount per query: the
                # observed "wall" time is deterministic.
                before = clock.now
                index.query(Predicate(low, low + 100))
                clock.advance(1e-4)
                assert clock.now > before
                deltas.append(index.last_stats.delta)
            return deltas

        assert run() == run()

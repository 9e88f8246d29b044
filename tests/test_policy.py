"""Tests for the budget-policy layer and the budget controller.

Covers the cost-model-greedy solve (exact, against a linear ``predict``),
the deterministic clock-driven feedback loops, the pooled batch policy's
mapping from per-query policies, the controller's clamping contract, the
state codec (pinned payloads, typed errors on damaged state), and the
convergence / interactivity properties of every registry algorithm under
each policy flavour.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostBreakdown
from repro.core.phase import IndexPhase
from repro.core.policy import (
    MINIMUM_DELTA,
    ManualClock,
    BatchPool,
    BudgetController,
    CostModelGreedy,
    DeltaRequest,
    FixedDelta,
    FixedTime,
    TimeAdaptive,
    policy_from_state,
    policy_state_dict,
)
from repro.core.query import Predicate
from repro.engine.registry import ALGORITHMS, PROGRESSIVE_ALGORITHMS, create_index
from repro.errors import InvalidBudgetError
from repro.storage.column import Column
from repro.workloads.distributions import uniform_data

from tests.conftest import delta_request


def linear_predict(base: float, slope: float):
    """A linear-in-delta cost function, like every per-phase formula."""
    return lambda delta: CostBreakdown(scan=base, lookup=0.0, indexing=delta * slope)


# ----------------------------------------------------------------------
# CostModelGreedy
# ----------------------------------------------------------------------
class TestCostModelGreedy:
    def test_requires_exactly_one_parameter(self):
        with pytest.raises(InvalidBudgetError):
            CostModelGreedy()
        with pytest.raises(InvalidBudgetError):
            CostModelGreedy(interactivity_budget=1.0, scan_fraction=0.2)

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidBudgetError):
            CostModelGreedy(interactivity_budget=0.0)
        with pytest.raises(InvalidBudgetError):
            CostModelGreedy(scan_fraction=-0.5)

    def test_scan_fraction_requires_registration(self):
        policy = CostModelGreedy(scan_fraction=0.2)
        with pytest.raises(InvalidBudgetError):
            policy.choose(delta_request(1.0))

    def test_tau_resolution_from_scan_fraction(self):
        policy = CostModelGreedy(scan_fraction=0.2)
        policy.register_scan_time(1.0)
        assert policy.tau == pytest.approx(1.2)

    def test_solves_exactly_against_linear_predict(self):
        # tau = 2.0, base = 1.0, full work adds 4.0 -> delta = 0.25 lands
        # the predicted total exactly on tau.
        policy = CostModelGreedy(interactivity_budget=2.0)
        predict = linear_predict(base=1.0, slope=4.0)
        request = DeltaRequest(full_work_time=4.0, base_cost=predict(0.0), predict=predict)
        delta = policy.choose(request)
        assert delta == pytest.approx(0.25)
        assert predict(delta).total == pytest.approx(2.0)

    def test_no_slack_falls_back_to_minimum_delta(self):
        policy = CostModelGreedy(interactivity_budget=1.0)
        predict = linear_predict(base=5.0, slope=4.0)
        request = DeltaRequest(full_work_time=4.0, base_cost=predict(0.0), predict=predict)
        assert policy.choose(request) == pytest.approx(MINIMUM_DELTA)

    def test_caps_at_one(self):
        policy = CostModelGreedy(interactivity_budget=100.0)
        predict = linear_predict(base=1.0, slope=4.0)
        request = DeltaRequest(full_work_time=4.0, base_cost=predict(0.0), predict=predict)
        assert policy.choose(request) == 1.0

    def test_choose_without_predict_matches_slack_formula(self):
        policy = CostModelGreedy(interactivity_budget=2.0)
        assert policy.choose(delta_request(4.0, query_base_cost=1.0)) == pytest.approx(0.25)

    def test_no_clock_means_no_correction(self):
        policy = CostModelGreedy(interactivity_budget=2.0)
        policy.observe(100.0, 1.0)  # would be a huge miss
        assert policy.correction_for(IndexPhase.CREATION) == 1.0

    def test_backoff_when_predictions_miss(self):
        # Measured times 2x the prediction: the correction rises, the
        # effective tau falls, delta shrinks.
        clock = ManualClock()
        policy = CostModelGreedy(interactivity_budget=2.0, clock=clock)
        predict = linear_predict(base=1.0, slope=4.0)
        request = DeltaRequest(
            full_work_time=4.0, base_cost=predict(0.0), predict=predict,
            phase=IndexPhase.CREATION,
        )
        first = policy.choose(request)
        policy.observe(elapsed_seconds=4.0, predicted_seconds=2.0)  # 2x miss
        backed_off = policy.choose(request)
        assert backed_off < first
        assert policy.correction_for(IndexPhase.CREATION) > 1.0

    def test_default_correction_is_backoff_only(self):
        clock = ManualClock()
        policy = CostModelGreedy(interactivity_budget=2.0, clock=clock)
        predict = linear_predict(base=1.0, slope=4.0)
        request = DeltaRequest(
            full_work_time=4.0, base_cost=predict(0.0), predict=predict,
            phase=IndexPhase.CREATION,
        )
        policy.choose(request)
        # Queries running faster than predicted must not inflate delta with
        # the default (backoff-only) correction range.
        policy.observe(elapsed_seconds=0.5, predicted_seconds=2.0)
        assert policy.correction_for(IndexPhase.CREATION) == 1.0

    def test_symmetric_range_reclaims_slack(self):
        clock = ManualClock()
        policy = CostModelGreedy(
            interactivity_budget=2.0, correction_range=(0.25, 4.0), clock=clock
        )
        predict = linear_predict(base=1.0, slope=4.0)
        request = DeltaRequest(
            full_work_time=4.0, base_cost=predict(0.0), predict=predict,
            phase=IndexPhase.CREATION,
        )
        first = policy.choose(request)
        policy.observe(elapsed_seconds=0.5, predicted_seconds=2.0)
        assert policy.choose(request) > first

    def test_corrections_are_per_phase(self):
        clock = ManualClock()
        policy = CostModelGreedy(interactivity_budget=2.0, clock=clock)
        predict = linear_predict(base=1.0, slope=4.0)
        creation = DeltaRequest(
            full_work_time=4.0, base_cost=predict(0.0), predict=predict,
            phase=IndexPhase.CREATION,
        )
        refinement = DeltaRequest(
            full_work_time=4.0, base_cost=predict(0.0), predict=predict,
            phase=IndexPhase.REFINEMENT,
        )
        policy.choose(creation)
        policy.observe(4.0, 2.0)  # creation misses by 2x
        assert policy.correction_for(IndexPhase.CREATION) > 1.0
        assert policy.correction_for(IndexPhase.REFINEMENT) == 1.0
        # Refinement decisions are unaffected by the creation miss.
        assert policy.choose(refinement) == pytest.approx(0.25)

    def test_correction_is_clamped(self):
        clock = ManualClock()
        policy = CostModelGreedy(interactivity_budget=2.0, clock=clock)
        predict = linear_predict(base=1.0, slope=4.0)
        request = DeltaRequest(
            full_work_time=4.0, base_cost=predict(0.0), predict=predict,
            phase=IndexPhase.CREATION,
        )
        for _ in range(50):
            policy.choose(request)
            policy.observe(1000.0, 1.0)
        assert policy.correction_for(IndexPhase.CREATION) <= policy.correction_range[1]

    def test_describe(self):
        assert "0.2" in CostModelGreedy(scan_fraction=0.2).describe()
        assert "tau" in CostModelGreedy(interactivity_budget=0.5).describe()


# ----------------------------------------------------------------------
# BudgetController
# ----------------------------------------------------------------------
class TestBudgetController:
    def test_rejects_non_policy(self):
        with pytest.raises(InvalidBudgetError):
            BudgetController(object())

    def test_decide_clamps_to_max_delta(self):
        controller = BudgetController(FixedDelta(0.8))
        predict = linear_predict(base=0.0, slope=1.0)
        decision = controller.decide(
            DeltaRequest(full_work_time=1.0, base_cost=predict(0.0),
                         predict=predict, max_delta=0.3)
        )
        assert decision.delta == pytest.approx(0.3)
        assert decision.predicted.total == pytest.approx(0.3)

    def test_decide_without_predict_has_no_prediction(self):
        controller = BudgetController(FixedDelta(0.5))
        decision = controller.decide(DeltaRequest(full_work_time=1.0))
        assert decision.predicted is None
        assert decision.predicted_seconds is None

    def test_swap_policy_resolves_against_known_scan_time(self):
        controller = BudgetController(FixedDelta(0.5))
        controller.register_scan_time(1.0)
        incoming = TimeAdaptive(scan_fraction=0.2)
        previous = controller.swap_policy(incoming)
        assert previous.delta == 0.5
        # The swapped-in policy was resolved immediately.
        assert incoming.budget_seconds == pytest.approx(0.2)
        assert incoming.choose(delta_request(1.0, query_base_cost=0.4)) == pytest.approx(0.8)

    def test_swap_policy_rejects_non_policy(self):
        controller = BudgetController(FixedDelta(0.5))
        with pytest.raises(InvalidBudgetError):
            controller.swap_policy("nope")

    def test_query_timing_flows_into_policy(self):
        clock = ManualClock()
        policy = CostModelGreedy(interactivity_budget=2.0, clock=clock)
        controller = BudgetController(policy)
        predict = linear_predict(base=1.0, slope=4.0)
        controller.decide(DeltaRequest(
            full_work_time=4.0, base_cost=predict(0.0), predict=predict,
            phase=IndexPhase.CREATION,
        ))
        started = controller.query_started()
        clock.advance(4.0)
        controller.query_finished(started, predicted_seconds=2.0)
        assert policy.correction_for(IndexPhase.CREATION) > 1.0

    def test_no_clock_no_timing(self):
        controller = BudgetController(FixedDelta(0.5))
        assert controller.query_started() is None
        controller.query_finished(None, predicted_seconds=1.0)  # no-op


# ----------------------------------------------------------------------
# BatchPool
# ----------------------------------------------------------------------
class TestBatchPool:
    def test_for_index_maps_greedy_to_interactivity_slack(self, uniform_column):
        index = create_index("PQ", uniform_column,
                             budget=CostModelGreedy(interactivity_budget=3.0))
        pool = BatchPool.for_index(index, n_queries=10)
        pool.register_scan_time(1.0)
        # Per-query slack is tau - t_scan = 2.0 seconds.
        assert pool.pool_seconds == pytest.approx(20.0)

    def test_for_index_maps_greedy_scan_fraction(self, uniform_column):
        index = create_index("PQ", uniform_column,
                             budget=CostModelGreedy(scan_fraction=0.5))
        pool = BatchPool.for_index(index, n_queries=4)
        pool.register_scan_time(2.0)
        # tau = (1 + 0.5) * 2 = 3; slack per query = 1.
        assert pool.pool_seconds == pytest.approx(4.0)

    def test_for_index_maps_time_adaptive(self, uniform_column):
        index = create_index("PQ", uniform_column,
                             budget=TimeAdaptive(budget_seconds=0.5))
        pool = BatchPool.for_index(index, n_queries=8)
        pool.register_scan_time(1.0)
        assert pool.pool_seconds == pytest.approx(4.0)

    def test_for_index_maps_fixed_time(self, uniform_column):
        index = create_index("PQ", uniform_column, budget=FixedTime(0.25))
        pool = BatchPool.for_index(index, n_queries=4)
        pool.register_scan_time(1.0)
        assert pool.pool_seconds == pytest.approx(1.0)

    def test_reservoir_drains_and_exhausts(self):
        pool = BatchPool(2, per_query_seconds=1.0)
        assert pool.choose(delta_request(4.0)) == pytest.approx(0.5)
        assert pool.remaining_seconds == pytest.approx(0.0)
        assert pool.exhausted
        assert pool.choose(delta_request(4.0)) == 0.0

    def test_interactivity_budget_below_scan_yields_empty_pool(self):
        pool = BatchPool(5, interactivity_budget=0.5)
        pool.register_scan_time(1.0)
        assert pool.pool_seconds == pytest.approx(0.0)
        assert pool.exhausted


# ----------------------------------------------------------------------
# Registry-wide policy properties
# ----------------------------------------------------------------------
N_PROPERTY_ELEMENTS = 3_000
MAX_PROPERTY_QUERIES = 150

#: The policy flavours of the tentpole, each generous enough to converge a
#: progressive index well within MAX_PROPERTY_QUERIES.
POLICY_FACTORIES = {
    "fixed_delta": lambda: FixedDelta(0.5),
    "time_adaptive": lambda: TimeAdaptive(scan_fraction=4.0),
    "cost_model_greedy": lambda: CostModelGreedy(scan_fraction=4.0),
}


def property_workload(data: np.ndarray, rng: np.random.Generator):
    low, high = int(data.min()), int(data.max())
    span = max(1, high - low)
    predicates = []
    for query_number in range(MAX_PROPERTY_QUERIES):
        if query_number % 3 == 0:
            value = int(data[rng.integers(0, data.size)])
            predicates.append(Predicate(value, value))
        else:
            start = int(rng.integers(low, high))
            predicates.append(Predicate(start, start + span // 5))
    return predicates


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_registry_algorithms_run_under_every_policy(name, policy_name):
    """Every algorithm accepts every policy; progressive ones converge.

    The lifecycle also proves the phase order stayed monotone: its
    transition history is ordered by construction (advance() raises on a
    backward move), so reaching CONVERGED means the canonical sequence was
    walked forward only.
    """
    rng = np.random.default_rng(97)
    data = uniform_data(N_PROPERTY_ELEMENTS, rng=rng)
    index = create_index(name, Column(data, name="value"),
                         budget=POLICY_FACTORIES[policy_name]())
    for predicate in property_workload(data, rng):
        index.query(predicate)
        if index.converged:
            break
    if name in PROGRESSIVE_ALGORITHMS or name == "FI":
        assert index.converged, f"{name} failed to converge under {policy_name}"
        orders = [phase.order for _, phase in index.lifecycle.transitions]
        assert orders == sorted(orders)
        assert index.lifecycle.transitions[-1][1] is IndexPhase.CONVERGED
    else:
        # Baselines / cracking never converge but must stay functional.
        assert not index.converged


@pytest.mark.parametrize("name", sorted(PROGRESSIVE_ALGORITHMS))
def test_greedy_keeps_predicted_totals_within_tau(name):
    """Pre-convergence, the greedy policy's predicted totals land on tau."""
    rng = np.random.default_rng(11)
    data = uniform_data(N_PROPERTY_ELEMENTS, rng=rng)
    policy = CostModelGreedy(scan_fraction=4.0)
    index = create_index(name, Column(data, name="value"), budget=policy)
    # Tolerance: the minimum-delta floor and the creation cap (delta can
    # never exceed the uncopied fraction) may push a query marginally off.
    for predicate in property_workload(data, rng):
        converged_before = index.converged
        index.query(predicate)
        if converged_before:
            break
        assert index.last_stats.predicted_cost is not None
        assert index.last_stats.predicted_cost <= policy.tau * 1.05, (
            f"{name}: predicted {index.last_stats.predicted_cost} "
            f"exceeds tau {policy.tau}"
        )


# ----------------------------------------------------------------------
# State codec
# ----------------------------------------------------------------------
def _fixed_time():
    policy = FixedTime(0.5)
    policy.choose(delta_request(2.0))
    return policy


def _adaptive_fraction():
    policy = TimeAdaptive(scan_fraction=0.2, clock=ManualClock())
    policy.register_scan_time(1.5)
    policy.choose(delta_request(2.0, 0.4))
    policy.observe(0.9, 0.6)
    return policy


def _adaptive_seconds():
    policy = TimeAdaptive(budget_seconds=0.25, clock=ManualClock())
    policy.register_scan_time(1.0)
    policy.choose(delta_request(1.0, 0.5))
    policy.observe(0.5, 1.0)
    return policy


def _greedy():
    policy = CostModelGreedy(scan_fraction=0.5, correction_range=(0.5, 4.0), clock=ManualClock())
    policy.register_scan_time(2.0)
    for phase, elapsed in ((IndexPhase.CREATION, 4.0), (IndexPhase.REFINEMENT, 1.0), (None, 3.0)):
        policy.choose(DeltaRequest(4.0, CostBreakdown(1.0, 0.0, 0.0), phase=phase))
        policy.observe(elapsed, 2.0)
    return policy


def _pool_fraction():
    policy = BatchPool(5, scan_fraction=0.2)
    policy.register_scan_time(1.0)
    policy.choose(delta_request(0.25))
    return policy


def _pool_seconds():
    policy = BatchPool(4, per_query_seconds=0.5)
    policy.choose(delta_request(0.75))
    return policy


#: ``policy_state_dict`` output of each policy flavour, recorded from the
#: per-class codec the table replaced: checkpoints and catalogs written
#: before keep loading, and new ones are byte-for-byte the same.
PINNED_PAYLOADS = {
    "fixed_delta": (lambda: FixedDelta(0.25), {"type": "FixedDelta", "delta": 0.25}),
    "fixed_time": (_fixed_time, {
        "type": "FixedTime", "budget_seconds": 0.5, "resolved_delta": 0.25,
    }),
    "adaptive_fraction": (_adaptive_fraction, {
        "type": "TimeAdaptive", "budget_seconds": 0.30000000000000004, "scan_fraction": 0.2,
        "minimum_delta": 0.0001, "target_query_cost": 1.8, "correction": 1.15,
    }),
    "adaptive_seconds": (_adaptive_seconds, {
        "type": "TimeAdaptive", "budget_seconds": 0.25, "scan_fraction": None,
        "minimum_delta": 0.0001, "target_query_cost": 1.25, "correction": 0.85,
    }),
    "greedy": (_greedy, {
        "type": "CostModelGreedy", "interactivity_budget": 3.0, "scan_fraction": 0.5,
        "minimum_delta": 0.0001, "smoothing": 0.4, "correction_range": [0.5, 4.0],
        "corrections": {"creation": 1.4, "refinement": 0.8, "__none__": 1.2},
    }),
    "pool_fraction": (_pool_fraction, {
        "type": "BatchPool", "n_queries": 5, "scan_fraction": 0.2, "interactivity_budget": None,
        "pool_seconds": 1.0, "spent_seconds": 0.25,
    }),
    "pool_seconds": (_pool_seconds, {
        "type": "BatchPool", "n_queries": 4, "scan_fraction": None, "interactivity_budget": None,
        "pool_seconds": 2.0, "spent_seconds": 0.75,
    }),
}


def decision_stream(count: int = 20):
    """Requests of every shape: with and without ``predict``, per phase,
    with and without a column size."""
    rng = np.random.default_rng(5)
    phases = (IndexPhase.CREATION, IndexPhase.REFINEMENT, None)
    requests = []
    for number in range(count):
        full = float(rng.uniform(0.05, 4.0))
        predict = linear_predict(base=float(rng.uniform(0.0, 2.0)), slope=full)
        requests.append(DeltaRequest(
            full, predict(0.0), predict=predict if number % 2 else None,
            n_elements=(0, 100_000, 10_000_000)[number % 3], phase=phases[number % 3],
        ))
    return requests


@pytest.mark.parametrize("name", sorted(PINNED_PAYLOADS))
def test_codec_emits_the_pinned_payloads(name):
    build, payload = PINNED_PAYLOADS[name]
    assert json.dumps(policy_state_dict(build())) == json.dumps(payload)


@pytest.mark.parametrize("name", sorted(PINNED_PAYLOADS))
def test_pinned_payloads_restore_to_the_same_decisions(name):
    build, payload = PINNED_PAYLOADS[name]
    original, restored = build(), policy_from_state(copy.deepcopy(payload))
    assert type(restored) is type(original)
    for request in decision_stream():
        assert restored.choose(request) == original.choose(request)


@pytest.mark.parametrize("state", [
    {"type": "FixedDelta"},
    {"type": "FixedDelta", "delta": "x"},
    {**PINNED_PAYLOADS["greedy"][1], "corrections": {"bogus": 1.0}},
    {**PINNED_PAYLOADS["greedy"][1], "correction_range": [1.0]},
    {key: value for key, value in PINNED_PAYLOADS["pool_fraction"][1].items() if key != "n_queries"},
    {"type": "Nope"},
    {"type": ["FixedDelta"]},
    "FixedDelta",
], ids=["no-delta", "delta-str", "bogus-phase", "one-element-range", "no-n-queries",
        "unknown-type", "unhashable-type", "not-a-mapping"])
def test_malformed_policy_state_is_a_typed_error(state):
    with pytest.raises(InvalidBudgetError):
        policy_from_state(state)


#: Values a damaged or hand-edited state may carry instead of the right one.
DAMAGED_VALUES = st.sampled_from([
    "x", None, True, [], {}, [1.0], [0.5, 2.0, 3.0], [0.0, 4.0], -1.0, 0.0, 3, 1e308,
    float("nan"), float("inf"), 10**400, {"creation": 0.0}, {"creation": "x"},
    {"refinement": 2.0}, "FixedTime", "BatchPool",
])


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(PINNED_PAYLOADS)),
    damage=st.lists(st.tuples(st.booleans(), st.integers(0, 7), DAMAGED_VALUES), min_size=1, max_size=3),
)
def test_damaged_policy_state_restores_correctly_or_raises_typed(name, damage):
    """Drop, retype and corrupt keys of valid states: the restore either
    raises :class:`InvalidBudgetError` or yields a policy that decides in
    ``[0, 1]`` and round-trips through the codec."""
    state = copy.deepcopy(PINNED_PAYLOADS[name][1])
    for drop, position, value in damage:
        keys = list(state)
        if not keys:
            break
        key = keys[position % len(keys)]
        if drop:
            del state[key]
        else:
            state[key] = value
    try:
        policy = policy_from_state(state)
    except InvalidBudgetError:
        return
    policy.register_scan_time(1.0)
    for request in decision_stream(6):
        delta = policy.choose(request)
        assert 0.0 <= delta <= 1.0
    payload = policy_state_dict(policy)
    assert policy_state_dict(policy_from_state(payload)) == payload

"""Scheduler contracts: serialized mutation, τ admission, cross-class fairness.

Three properties of :class:`~repro.serve.scheduler.ProgressiveScheduler`:

* **Mutation is serialized.**  Once an index has a work lane, every
  life-cycle mutation (phase advance, query accounting) must happen on the
  thread holding the lane exclusively.  The racing-mutation detector — the
  guard the scheduler installs into :class:`~repro.core.phase.IndexLifecycle`
  — turns any unserialized advance into a :class:`~repro.errors.
  ConcurrencyError`; an in-flight probe proves at most one serialized query
  runs at a time under an 8-thread hammer.
* **τ admission.**  Every serialized query runs with the index's budget
  controller capped at its class's admission allowance
  (:meth:`~repro.core.policy.BudgetController.capped`), so per-query granted
  indexing work never exceeds τ and the per-class p99 stays within the
  interactivity budget (all in deterministic model seconds).  The cap grants
  exactly what the swapped-in wrapper policy it replaced granted.
* **Fairness.**  A class that consumed more than its weight-proportional
  share of a hot column's work sees its next allowance scaled down, while
  an under-served class keeps its full τ.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostBreakdown
from repro.core.phase import IndexPhase
from repro.core.policy import BatchPool, BudgetController, CostModelGreedy, DeltaRequest, FixedDelta
from repro.core.query import Predicate
from repro.engine.registry import create_index
from repro.engine.session import IndexingSession
from repro.engine.shared import SharedEngine
from repro.errors import ConcurrencyError, InvalidBudgetError
from repro.serve.connection import ConnectionClass
from repro.serve.scheduler import ProgressiveScheduler
from repro.shard.executor import execute_shard_query
from repro.storage.column import Column

from tests.conftest import delta_request

ROWS = 4_000
DOMAIN = 1_000_000


def _session(method: str = "PQ", delta: float = 0.25) -> IndexingSession:
    data = np.random.default_rng(3).integers(0, DOMAIN, size=ROWS, dtype=np.int64)
    session = IndexingSession(Column(data, name="ra"))
    session.create_index("ra", method=method, budget=FixedDelta(delta))
    return session


def _predicate(rng) -> Predicate:
    low = int(rng.integers(0, DOMAIN - DOMAIN // 10))
    return Predicate(low, low + DOMAIN // 10)


# ----------------------------------------------------------------------
# Mutation guard / work-queue serialization
# ----------------------------------------------------------------------
class TestMutationGuard:
    def test_unserialized_query_trips_the_detector(self):
        """Bypassing the work queue on a scheduled index is a hard error."""
        session = _session()
        scheduler = ProgressiveScheduler()
        index = session.index_for("ra")
        scheduler.lane_for(index)  # installs the racing-mutation detector

        with pytest.raises(ConcurrencyError, match="work lane"):
            index.query(Predicate(1_000, 100_000))

    def test_unserialized_phase_advance_trips_the_detector(self):
        session = _session()
        scheduler = ProgressiveScheduler()
        index = session.index_for("ra")
        scheduler.lane_for(index)

        with pytest.raises(ConcurrencyError, match="work lane"):
            index.lifecycle.advance(IndexPhase.CREATION, 1)

    def test_scheduled_queries_pass_the_detector(self):
        """The same mutations are legal through the serialized lane."""
        session = _session()
        scheduler = ProgressiveScheduler()
        index = session.index_for("ra")
        cls = scheduler.class_named("interactive")
        result = scheduler.run_serialized(
            index, cls, "ra", lambda: index.query(Predicate(1_000, 100_000))
        )
        data = session.table.column("ra").data
        mask = (data >= 1_000) & (data <= 100_000)
        assert result.count == int(mask.sum())

    def test_unscheduled_index_stays_unguarded(self):
        """Negative control: without a lane the single-client API is unchanged."""
        session = _session()
        result = session.between("ra", 1_000, 100_000)
        assert result.count >= 0  # no ConcurrencyError

    def test_a_dropped_index_takes_its_lane_with_it(self):
        """A lane must not pin its index: a served session that re-creates an
        index per cold round would otherwise keep every generation's arrays."""
        session = _session()
        scheduler = ProgressiveScheduler()
        index = session.index_for("ra")
        scheduler.lane_for(index)
        dropped = weakref.ref(index)
        del index
        session.drop_index("ra")
        gc.collect()
        assert dropped() is None
        assert scheduler.stats()["lanes"] == {}
        # The next generation gets a lane of its own, guard included.
        session.create_index("ra", method="PQ", budget=FixedDelta(0.25))
        scheduler.lane_for(session.index_for("ra"))
        assert len(scheduler.stats()["lanes"]) == 1

    def test_work_queue_admits_one_mutator_at_a_time(self):
        """8 racing threads, every query serialized, zero overlap observed."""
        session = _session()
        engine = SharedEngine(session)
        scheduler = engine.scheduler
        index = session.index_for("ra")
        cls = scheduler.class_named("interactive")

        in_flight = []
        overlaps = []
        errors = []
        barrier = threading.Barrier(8)

        def probe_query(rng):
            in_flight.append(None)
            if len(in_flight) > 1:
                overlaps.append(len(in_flight))
            try:
                return index.query(_predicate(rng))
            finally:
                in_flight.pop()

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                barrier.wait()
                for _ in range(25):
                    scheduler.run_serialized(
                        index, cls, "ra", lambda: probe_query(rng)
                    )
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(50 + i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors, f"serialized query failed: {errors[0]!r}"
        assert not overlaps, f"work queue admitted {max(overlaps)} mutators at once"
        lane = scheduler.lane_for(index)
        assert lane.serialized_ops == 8 * 25


# ----------------------------------------------------------------------
# τ admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_capped_budget_clamps_each_grant(self):
        """Unit contract: a capped controller never grants past its allowance."""
        controller = BudgetController(FixedDelta(1.0))  # wants the whole column every query
        full_work_time = 0.1
        with controller.capped(0.004) as cap:
            delta = controller.decide(delta_request(full_work_time, query_base_cost=0.01)).delta
        assert delta * full_work_time <= 0.004 + 1e-12
        assert cap.granted_seconds == pytest.approx(delta * full_work_time)

    @settings(max_examples=200, deadline=None)
    @given(
        allowance=st.one_of(st.just(0.0), st.floats(1e-9, 2.0)),
        policy_kind=st.sampled_from(["fixed", "greedy", "pool"]),
        decisions=st.lists(
            st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0)),
            min_size=1, max_size=12,
        ),
    )
    def test_a_grant_never_exceeds_the_allowance(self, allowance, policy_kind, decisions):
        policy = {
            "fixed": lambda: FixedDelta(1.0),
            "greedy": lambda: CostModelGreedy(interactivity_budget=3.0),
            "pool": lambda: BatchPool(4, per_query_seconds=1.5),
        }[policy_kind]()
        controller = BudgetController(policy)
        granted = 0.0
        with controller.capped(allowance) as cap:
            for full_work_time, base, max_delta in decisions:
                def predict(delta, base=base, slope=full_work_time):
                    return CostBreakdown(scan=base, lookup=0.0, indexing=delta * slope)

                decision = controller.decide(DeltaRequest(
                    full_work_time, predict(0.0), predict=predict, max_delta=max_delta,
                ))
                assert decision.delta * full_work_time <= allowance * (1 + 1e-12)
                granted += decision.delta * full_work_time
        # The cap counts what it granted before the phase's max_delta clamp,
        # as the wrapper policy did: never less than what the phase took.
        assert cap.granted_seconds >= granted * (1 - 1e-12)
        assert cap.granted_seconds <= allowance * len(decisions) * (1 + 1e-12)

    def test_grants_equal_the_wrapper_policy_it_replaced(self):
        """Recorded from the swapped-in wrapper policy the controller cap
        replaced: the same scheduler and shard runs grant the same seconds
        and decide the same deltas, bit for bit."""
        data = np.random.default_rng(3).integers(0, DOMAIN, size=ROWS, dtype=np.int64)
        session = IndexingSession(Column(data, name="ra"))
        session.create_index("ra", method="PMSD", budget=CostModelGreedy(scan_fraction=0.5))
        index = session.index_for("ra")
        classes = (ConnectionClass("interactive", tau=5e-7, weight=4.0),
                   ConnectionClass("batch", tau=3e-6, weight=1.0))
        scheduler = ProgressiveScheduler(classes=classes)
        grants, deltas = [], []
        charge = scheduler._charge
        scheduler._charge = lambda cls, column, granted: (grants.append(granted), charge(cls, column, granted))
        rng = np.random.default_rng(17)
        for number in range(16):
            scheduler.run_serialized(
                index, classes[number % 2], "ra", lambda: index.query(_predicate(rng))
            )
            deltas.append(index.last_stats.delta)
        assert grants == [
            5e-07, 2.8736807215186755e-06, 5e-07, 8.087914622898377e-07,
            5e-07, 8.444010314476281e-07, 5e-07, 8.650836334350709e-07,
            5e-07, 8.78192137306161e-07, 5e-07, 8.870745183280011e-07,
            5e-07, 8.934098674899413e-07, 5e-07, 8.981131904978092e-07,
        ]
        assert deltas == [
            0.03657142857142857, 0.2101892184882231, 0.03657142857142857, 0.05915731838462813,
            0.03657142857142857, 0.06176190401445508, 0.03657142857142857, 0.06327468861696518,
            0.03657142857142857, 0.06423348204296492, 0.03657142857142857, 0.06488316476913379,
            0.03657142857142857, 0.0653465503078357, 0.03657142857142857, 0.0656905647906969,
        ]

        index = create_index("PLSD", Column(data, name="ra"), budget=FixedDelta(0.5))
        rng = np.random.default_rng(31)
        grants, deltas = [], []
        for _ in range(16):
            grants.append(execute_shard_query(index, _predicate(rng), 6e-6)[1])
            deltas.append(index.last_stats.delta)
        assert grants == [6e-06] + [2.09375e-06] * 15
        assert deltas == [0.43885714285714283] + [0.15314285714285714] * 3 + [
            0.10124999999999995] + [0.15314285714285714] * 11

    def test_cap_is_released_when_the_wrapped_call_raises(self):
        controller = BudgetController(FixedDelta(1.0))
        with pytest.raises(RuntimeError):
            with controller.capped(0.0):
                raise RuntimeError("query failed")
        assert controller.decide(delta_request(1.0)).delta == 1.0
        with controller.capped(0.25) as cap:  # a new cap may be taken
            assert controller.decide(delta_request(1.0)).delta == 0.25
        assert cap.granted_seconds == 0.25

        # Through the scheduler: after a failed serialized call, the next
        # uncapped one runs the policy's own delta.
        tight = ConnectionClass("tight", tau=1e-9, weight=1.0)
        admin = ConnectionClass("admin", tau=None, weight=1.0)
        scheduler = ProgressiveScheduler(classes=(tight, admin))
        session = _session(delta=0.25)
        index = session.index_for("ra")

        def failing():
            index.query(Predicate(1_000, 100_000))
            raise RuntimeError("client went away")

        with pytest.raises(RuntimeError):
            scheduler.run_serialized(index, tight, "ra", failing)
        assert index.last_stats.delta < 0.25
        scheduler.run_serialized(index, admin, "ra", lambda: index.query(Predicate(1_000, 100_000)))
        assert index.last_stats.delta == 0.25

    def test_nested_caps_are_refused(self):
        controller = BudgetController(FixedDelta(1.0))
        with controller.capped(1.0):
            with pytest.raises(InvalidBudgetError, match="already capped"):
                with controller.capped(0.5):
                    pass
            assert controller.decide(delta_request(4.0)).delta == 0.25
        with pytest.raises(InvalidBudgetError):
            controller.capped(-1.0)

    def test_index_budget_is_the_real_policy_inside_a_capped_call(self):
        policy = FixedDelta(1.0)
        data = np.random.default_rng(3).integers(0, DOMAIN, size=ROWS, dtype=np.int64)
        session = IndexingSession(Column(data, name="ra"))
        session.create_index("ra", method="PQ", budget=policy)
        index = session.index_for("ra")
        cls = ConnectionClass("tight", tau=2e-6, weight=1.0)
        scheduler = ProgressiveScheduler(classes=(cls,))
        seen = []

        def query():
            seen.append((index.budget, index.budget.describe(), index.budget.pooled,
                         BatchPool.for_index(index, 4).scan_fraction))
            return index.query(Predicate(1_000, 100_000))

        scheduler.run_serialized(index, cls, "ra", query)
        assert seen == [(policy, "FixedDelta(delta=1.0)", False, 1.0)]
        assert index.last_stats.delta < 1.0  # ... and the cap still bound

        shard = create_index("PB", Column(data, name="ra"), budget=policy)
        shard_query = shard.query
        shard.query = lambda predicate: (seen.append(shard.budget), shard_query(predicate))[1]
        execute_shard_query(shard, Predicate(1_000, 100_000), 1e-6)
        assert seen[-1] is policy

    def test_per_query_grant_never_exceeds_tau(self):
        """The scheduler's admission ticket caps a greedy policy at τ."""
        tau = 0.002
        cls = ConnectionClass("tight", tau=tau, weight=1.0)
        scheduler = ProgressiveScheduler(classes=(cls,))
        session = _session(delta=1.0)  # policy wants full convergence per query
        index = session.index_for("ra")
        rng = np.random.default_rng(9)

        charges = []
        previous = 0.0
        for _ in range(30):
            scheduler.run_serialized(
                index, cls, "ra", lambda: index.query(_predicate(rng))
            )
            charged = scheduler.stats()["classes"]["tight"]["work_charged"]
            charges.append(charged - previous)
            previous = charged

        assert max(charges) <= tau * (1.0 + 1e-9), (
            f"a single query was granted {max(charges):.6f}s of indexing work "
            f"against tau={tau}"
        )
        # Admission must still grant *some* work — the index converges
        # eventually, it is not starved outright.
        assert sum(charges) > 0.0

    def test_per_class_p99_stays_within_budget(self):
        """Per-class p99 of granted indexing seconds ≤ τ (model seconds)."""
        classes = (
            ConnectionClass("interactive", tau=0.002, weight=4.0),
            ConnectionClass("batch", tau=0.02, weight=1.0),
        )
        scheduler = ProgressiveScheduler(classes=classes)
        session = _session(delta=1.0)
        index = session.index_for("ra")
        rng = np.random.default_rng(17)

        per_class_grants = {cls.name: [] for cls in classes}
        previous = {cls.name: 0.0 for cls in classes}
        for step in range(80):
            cls = classes[step % len(classes)]
            scheduler.run_serialized(
                index, cls, "ra", lambda: index.query(_predicate(rng))
            )
            charged = scheduler.stats()["classes"][cls.name]["work_charged"]
            per_class_grants[cls.name].append(charged - previous[cls.name])
            previous[cls.name] = charged

        for cls in classes:
            grants = per_class_grants[cls.name]
            p99 = float(np.percentile(grants, 99))
            assert p99 <= cls.tau * (1.0 + 1e-9), (
                f"class {cls.name!r}: p99 granted {p99:.6f}s > tau {cls.tau}"
            )

    def test_aggregate_charge_bounded_by_admissions(self):
        """Token bucket: total spend ≤ admitted queries × τ, balance ≥ 0."""
        tau = 0.003
        cls = ConnectionClass("metered", tau=tau, weight=1.0)
        scheduler = ProgressiveScheduler(classes=(cls,))
        session = _session(delta=1.0)
        index = session.index_for("ra")
        rng = np.random.default_rng(23)
        for _ in range(40):
            scheduler.run_serialized(
                index, cls, "ra", lambda: index.query(_predicate(rng))
            )
        account = scheduler.stats()["classes"]["metered"]
        assert account["queries_admitted"] == 40
        assert account["work_charged"] <= 40 * tau * (1.0 + 1e-9)
        assert account["balance"] >= 0.0

    def test_uncapped_class_is_never_throttled(self):
        scheduler = ProgressiveScheduler()
        admin = scheduler.class_named("admin")
        assert scheduler._admit(admin, "ra") == float("inf")


# ----------------------------------------------------------------------
# Fairness across hot columns
# ----------------------------------------------------------------------
class TestFairness:
    def test_greedy_class_is_throttled_on_a_hot_column(self):
        tau = 0.01
        greedy = ConnectionClass("greedy", tau=tau, weight=1.0)
        light = ConnectionClass("light", tau=tau, weight=1.0)
        scheduler = ProgressiveScheduler(classes=(greedy, light))
        session = _session(delta=1.0)
        index = session.index_for("ra")
        rng = np.random.default_rng(29)

        # The greedy class buys all of the column's convergence work.
        for _ in range(40):
            scheduler.run_serialized(
                index, greedy, "ra", lambda: index.query(_predicate(rng))
            )
        ledger = scheduler.stats()["columns"]
        assert ledger.get("greedy:ra", 0.0) > 0.0, "no work was ever charged"

        # Equal weights: the fair share is 1/2, the greedy class holds ~1.0
        # of it, so its next allowance is scaled to ~tau/2; the light class
        # has consumed nothing and keeps its full tau.
        greedy_allowance = scheduler._admit(greedy, "ra")
        light_allowance = scheduler._admit(light, "ra")
        assert light_allowance == pytest.approx(tau)
        assert greedy_allowance < light_allowance
        assert greedy_allowance == pytest.approx(tau / 2, rel=1e-6)

    def test_throttle_never_starves_below_the_floor(self):
        """Even a maximally over-served class keeps min_throttle × τ."""
        tau = 0.01
        greedy = ConnectionClass("greedy", tau=tau, weight=1.0)
        light = ConnectionClass("light", tau=tau, weight=99.0)
        scheduler = ProgressiveScheduler(classes=(greedy, light), min_throttle=0.1)
        session = _session(delta=1.0)
        index = session.index_for("ra")
        rng = np.random.default_rng(31)
        for _ in range(40):
            scheduler.run_serialized(
                index, greedy, "ra", lambda: index.query(_predicate(rng))
            )
        assert scheduler.stats()["columns"].get("greedy:ra", 0.0) > 0.0
        # fair share 1/100 against an actual share of ~1.0 would scale the
        # allowance to 1% — the floor keeps it at 10%.
        allowance = scheduler._admit(greedy, "ra")
        assert allowance == pytest.approx(0.1 * tau, rel=1e-6)

    def test_unknown_connection_class_is_rejected(self):
        scheduler = ProgressiveScheduler()
        with pytest.raises(ConcurrencyError, match="unknown connection class"):
            scheduler.class_named("warehouse")

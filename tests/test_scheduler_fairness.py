"""Scheduler contracts: serialized mutation, τ admission, cross-class fairness.

Three properties of :class:`~repro.serve.scheduler.ProgressiveScheduler`:

* **Mutation is serialized.**  Once an index has a work lane, every
  life-cycle mutation (phase advance, query accounting) must happen on the
  thread holding the lane exclusively.  The racing-mutation detector — the
  guard the scheduler installs into :class:`~repro.core.phase.IndexLifecycle`
  — turns any unserialized advance into a :class:`~repro.errors.
  ConcurrencyError`; an in-flight probe proves at most one serialized query
  runs at a time under an 8-thread hammer.
* **τ admission.**  Every serialized query runs under a
  :class:`~repro.core.policy.CappedBudget` clamped to its class's admission
  allowance, so per-query granted indexing work never exceeds τ and the
  per-class p99 stays within the interactivity budget (all in
  deterministic model seconds).
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

from repro.core.phase import IndexPhase
from repro.core.policy import CappedBudget, FixedDelta
from repro.core.query import Predicate
from repro.engine.session import IndexingSession
from repro.engine.shared import SharedEngine
from repro.errors import ConcurrencyError
from repro.serve.connection import ConnectionClass
from repro.serve.scheduler import ProgressiveScheduler
from repro.storage.column import Column

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
        """Unit contract: a CappedBudget never grants past its allowance."""
        inner = FixedDelta(1.0)  # wants the whole column every query
        capped = CappedBudget(inner, allowance_seconds=0.004)
        full_work_time = 0.1
        delta = capped.next_delta(full_work_time=full_work_time, query_base_cost=0.01)
        assert delta * full_work_time <= 0.004 + 1e-12
        assert capped.granted_seconds == pytest.approx(delta * full_work_time)

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

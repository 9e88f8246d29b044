"""The progressive-work scheduler: one index, many clients, no races.

Progressive indexes do construction work *inside* queries — every read may
move data, advance the life-cycle phase, or fold delta rows.  Under
concurrent clients that property is a hazard: two queries racing through
``index.query()`` would interleave partial sorts and corrupt the structures.
The :class:`ProgressiveScheduler` turns it back into a feature:

* **Work lanes.**  Every index gets a :class:`WorkLane` (a reader–writer
  lock): all mutating execution — construction deltas, cracking, MERGE
  folds — runs under the lane's *exclusive* side, forming the per-index
  serialized work queue the paper's budgets were always implicitly assuming.
  Converged structural lookups of families that declare
  ``concurrent_reads`` run under the *shared* side, so pure readers never
  queue behind each other.
* **Mutation guard.**  When a lane is created the scheduler installs a
  guard into the index's :class:`~repro.core.phase.IndexLifecycle` that
  raises :class:`~repro.errors.ConcurrencyError` if any life-cycle mutation
  happens on a thread not holding the lane exclusively — an unserialized
  phase advance becomes a crash in the offending thread instead of silent
  corruption.  The concurrency test harness leans on this.
* **Admission tickets.**  Each serialized query is admitted with an
  *allowance* of indexing seconds derived from its connection class's
  interactivity budget τ: the index's budget controller is capped at it for
  the duration of the query (:meth:`~repro.core.policy.BudgetController.capped`),
  so no single query exceeds its class's τ no matter what the index's
  policy wants.  Granted seconds are charged to the class's
  :class:`WorkAccount` (a τ-refilled token bucket) and to a per
  ``(class, column)`` fairness ledger; a class consuming more than its
  weight-proportional share of a hot column's work sees its next
  allowances scaled down, so a greedy client pays for convergence it
  already bought instead of starving everyone else.

All accounting is in deterministic model seconds — the same currency the
cost models and budget policies use — so scheduler behavior is exactly
reproducible under test.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro import obs
from repro.core.phase import IndexPhase
from repro.errors import ConcurrencyError
from repro.serve.connection import DEFAULT_CLASSES, ConnectionClass
from repro.serve.sync import RWLock


class _ExclusiveGuard:
    """``with lane.exclusive():`` — a slot in the work queue; the lane
    records its owner for the mutation guard while the slot is held."""

    __slots__ = ("_lane",)

    def __init__(self, lane: "WorkLane") -> None:
        self._lane = lane

    def __enter__(self) -> "WorkLane":
        lane = self._lane
        lane._rw.acquire_write()
        lane._owner = threading.get_ident()
        return lane

    def __exit__(self, *exc) -> None:
        lane = self._lane
        lane._owner = None
        lane._rw.release_write()


class WorkLane:
    """The per-index serialization point.

    Exclusive acquisition = a slot in the index's work queue (mutation
    allowed); shared acquisition = a concurrent converged read (mutation
    forbidden, enforced by the mutation guard).
    """

    def __init__(self, index) -> None:
        #: Only the name: the scheduler keys lanes by ``id(index)`` and drops
        #: a lane when its index is collected, so a lane must not keep the
        #: index (and its arrays) alive after ``drop_index``.
        self.name = getattr(index, "name", "?")
        self._rw = RWLock()
        self._owner: Optional[int] = None
        #: Number of operations that ran through the exclusive side.
        self.serialized_ops = 0
        #: Number of structural reads that ran through the shared side.
        self.lockfree_reads = 0

    def exclusive(self) -> _ExclusiveGuard:
        return _ExclusiveGuard(self)

    def shared(self):
        return self._rw.read()

    def assert_exclusive(self) -> None:
        """Mutation guard hook: the calling thread must own the lane."""
        if self._owner != threading.get_ident():
            raise ConcurrencyError(
                f"index {self.name!r} life-cycle mutation "
                "from a thread that does not hold the exclusive work lane — "
                "index work must be serialized through the scheduler"
            )


class WorkAccount:
    """Token bucket of indexing seconds for one connection class.

    Every admitted query deposits τ (capped at ``burst_queries * τ`` so idle
    classes cannot hoard unbounded credit); granted indexing work is charged
    back.  The balance therefore bounds a class's aggregate indexing spend
    to "number of admitted queries × τ" over any window — exactly the
    paper's interactivity contract, enforced across clients.
    """

    def __init__(self, cls: ConnectionClass, burst_queries: int) -> None:
        self.cls = cls
        self.balance = 0.0
        self.deposited = 0.0
        self.charged = 0.0
        self.queries_admitted = 0
        self._cap = (
            float("inf") if cls.tau is None else burst_queries * cls.tau
        )

    def deposit(self) -> None:
        self.queries_admitted += 1
        if self.cls.tau is None:
            return
        self.deposited += self.cls.tau
        self.balance = min(self.balance + self.cls.tau, self._cap)

    def charge(self, seconds: float) -> None:
        if seconds <= 0.0:
            return
        self.charged += seconds
        self.balance = max(0.0, self.balance - seconds)


class ProgressiveScheduler:
    """Shared scheduler coordinating all clients of one engine.

    Parameters
    ----------
    classes:
        The connection classes this scheduler admits; defaults to
        :data:`~repro.serve.connection.DEFAULT_CLASSES`.
    burst_queries:
        Work-account cap in units of τ (how many queries' worth of unused
        allowance a class may bank).
    min_throttle:
        Floor of the fairness scaling factor — even a maximally over-served
        class keeps this fraction of its allowance, so progress never stops
        entirely (convergence is good for everyone).
    """

    def __init__(
        self,
        classes: Optional[Iterable[ConnectionClass]] = None,
        burst_queries: int = 8,
        min_throttle: float = 0.1,
    ) -> None:
        class_list = tuple(classes) if classes is not None else DEFAULT_CLASSES
        if not class_list:
            raise ConcurrencyError("a scheduler requires at least one connection class")
        self._classes: Dict[str, ConnectionClass] = {c.name: c for c in class_list}
        self._total_weight = sum(c.weight for c in class_list)
        self._accounts: Dict[str, WorkAccount] = {
            c.name: WorkAccount(c, burst_queries) for c in class_list
        }
        #: Granted indexing seconds per (class, column) — the fairness ledger.
        self._ledger: Dict[Tuple[str, str], float] = {}
        self._lanes: Dict[int, WorkLane] = {}
        self._lock = threading.Lock()
        self.min_throttle = float(min_throttle)
        self.burst_queries = int(burst_queries)
        registry = obs.metrics()
        self._obs_admitted = {
            c.name: registry.counter(
                "scheduler.admitted",
                help="Serialized queries admitted with an allowance ticket",
                cls=c.name,
            )
            for c in class_list
        }
        self._obs_throttled = {
            c.name: registry.counter(
                "scheduler.throttled",
                help="Admissions scaled down by the fairness ledger",
                cls=c.name,
            )
            for c in class_list
        }
        self._obs_serialized_seconds = registry.histogram(
            "scheduler.serialized.seconds",
            help="Wall time of serialized (exclusive-lane) operations",
        )
        registry.register_pull(
            "scheduler.lockfree.reads", self,
            lambda s: sum(lane.lockfree_reads for lane in s._lanes.values()),
            help="Batch lookups served through the shared (lock-free) lane",
        )
        registry.register_pull(
            "scheduler.serialized.ops", self,
            lambda s: sum(lane.serialized_ops for lane in s._lanes.values()),
            help="Operations run through the exclusive work lanes",
        )

    # ------------------------------------------------------------------
    def class_named(self, name: str) -> ConnectionClass:
        try:
            return self._classes[name]
        except KeyError:
            raise ConcurrencyError(
                f"unknown connection class {name!r}; "
                f"available: {sorted(self._classes)}"
            ) from None

    def lane_for(self, index) -> WorkLane:
        """The index's work lane, created (and guard installed) on first use."""
        lane = self._lanes.get(id(index))
        if lane is None:
            with self._lock:
                lane = self._lanes.get(id(index))
                if lane is None:
                    lane = WorkLane(index)
                    index.lifecycle.set_mutation_guard(lane.assert_exclusive)
                    self._lanes[id(index)] = lane
                    weakref.finalize(index, self._lanes.pop, id(index), None)
        return lane

    # ------------------------------------------------------------------
    # Lock-free converged read path
    # ------------------------------------------------------------------
    @staticmethod
    def lockfree_eligible(index) -> bool:
        """Whether the index's structural batch lookups may run shared.

        Requires the family's ``concurrent_reads`` declaration *and* the
        converged phase with no merge cycle due: anything still doing
        construction, cracking or folding mutates on read and must go
        through the exclusive lane.
        """
        return (
            getattr(index, "concurrent_reads", False)
            and index.phase is IndexPhase.CONVERGED
            and not index.has_pending_merge()
        )

    def read_structural(self, index, lows, highs):
        """Answer via the shared (lock-free) lane, if possible.

        Array bounds take the index's batch read, scalar bounds its scalar
        twin — the same sorted leaves either way.  Returns
        ``((sums, counts), absorbed_seq)`` (``((value_sum, count),
        absorbed_seq)`` for scalars) — the structural base plus the sorted
        side buffers, and the delta-sequence watermark that answer is exact
        at (see :meth:`~repro.core.index.BaseIndex.read_absorbed`) — or
        ``None`` when the index is not eligible (caller falls back to the
        serialized path).  Eligibility is re-checked *under* the shared lane:
        a phase change between the optimistic check and the acquisition
        routes the query back to the work queue.
        """
        if not self.lockfree_eligible(index):
            return None
        lane = self.lane_for(index)
        with lane.shared():
            if not self.lockfree_eligible(index):
                return None
            structural = index.read_absorbed(lows, highs)
            if structural is not None:
                lane.lockfree_reads += 1
            return structural

    # ------------------------------------------------------------------
    # Serialized (mutating) path
    # ------------------------------------------------------------------
    def run_serialized(
        self,
        index,
        cls: ConnectionClass,
        column_name: str,
        fn: Callable[[], object],
    ):
        """Run ``fn`` in the index's work queue under an admission ticket.

        The index's budget controller is capped at the admitted allowance
        for the duration of the call; the indexing seconds the query
        actually granted are charged to the class's work account and the
        fairness ledger afterwards.
        """
        allowance = self._admit(cls, column_name)
        tracer = obs.tracer()
        span = None
        if tracer.enabled:
            span = tracer.start("scheduler.serialized", {
                "cls": cls.name, "column": column_name,
                "allowance": allowance if allowance != float("inf") else None,
            })
        op_started = time.perf_counter()
        lane = self.lane_for(index)
        granted = 0.0
        try:
            with lane.exclusive():
                with index.controller.capped(allowance) as cap:
                    result = fn()
                lane.serialized_ops += 1
                granted = cap.granted_seconds
        finally:
            if span is not None:
                span.set(granted=granted).end()
        self._obs_serialized_seconds.observe(time.perf_counter() - op_started)
        self._charge(cls, column_name, granted)
        return result

    def _admit(self, cls: ConnectionClass, column_name: str) -> float:
        """Admission ticket: the indexing-seconds allowance for one query."""
        if cls.name not in self._classes:
            raise ConcurrencyError(f"unknown connection class {cls.name!r}")
        with self._lock:
            account = self._accounts[cls.name]
            account.deposit()
            self._obs_admitted[cls.name].inc()
            if cls.tau is None:
                return float("inf")
            allowance = min(account.balance, cls.tau)
            # Fairness across hot columns: scale the allowance down when
            # this class already consumed more than its weight-proportional
            # share of the column's granted work.
            total = sum(
                self._ledger.get((name, column_name), 0.0) for name in self._classes
            )
            if total > 0.0:
                share = self._ledger.get((cls.name, column_name), 0.0) / total
                fair = cls.weight / self._total_weight
                if share > fair:
                    allowance *= max(self.min_throttle, fair / share)
                    self._obs_throttled[cls.name].inc()
            return allowance

    def _throttle_factor(self, cls_name: str, column_name: str) -> float:
        """Current fairness scaling a class's next admission would see."""
        cls = self._classes[cls_name]
        total = sum(
            self._ledger.get((name, column_name), 0.0) for name in self._classes
        )
        if total <= 0.0:
            return 1.0
        share = self._ledger.get((cls_name, column_name), 0.0) / total
        fair = cls.weight / self._total_weight
        if share <= fair:
            return 1.0
        return max(self.min_throttle, fair / share)

    def _charge(self, cls: ConnectionClass, column_name: str, granted: float) -> None:
        if granted <= 0.0:
            return
        with self._lock:
            self._accounts[cls.name].charge(granted)
            key = (cls.name, column_name)
            self._ledger[key] = self._ledger.get(key, 0.0) + granted

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe scheduler counters for status reporting and tests."""
        with self._lock:
            return {
                "min_throttle": self.min_throttle,
                "total_weight": self._total_weight,
                "burst_queries": self.burst_queries,
                "classes": {
                    name: {
                        "tau": account.cls.tau,
                        "weight": account.cls.weight,
                        "queries_admitted": account.queries_admitted,
                        "allowance_deposited": account.deposited,
                        "work_charged": account.charged,
                        "balance": account.balance,
                        "balance_cap": (
                            None if account.cls.tau is None
                            else self.burst_queries * account.cls.tau
                        ),
                    }
                    for name, account in self._accounts.items()
                },
                "columns": {
                    f"{cls}:{column}": seconds
                    for (cls, column), seconds in sorted(self._ledger.items())
                },
                # The computed fairness view: per (class, column) share of
                # the column's granted work vs. the class's fair share, and
                # the throttle factor the *next* admission would be scaled
                # by — previously only derivable by poking the raw ledger.
                "fairness": {
                    f"{cls}:{column}": {
                        "charged": seconds,
                        "share": (
                            seconds / total if (total := sum(
                                self._ledger.get((name, column), 0.0)
                                for name in self._classes
                            )) > 0.0 else 0.0
                        ),
                        "fair_share": (
                            self._classes[cls].weight / self._total_weight
                        ),
                        "throttle": self._throttle_factor(cls, column),
                    }
                    for (cls, column), seconds in sorted(self._ledger.items())
                },
                "lanes": {
                    f"{lane.name}@{key:#x}": {
                        "serialized_ops": lane.serialized_ops,
                        "lockfree_reads": lane.lockfree_reads,
                    }
                    for key, lane in self._lanes.items()
                },
            }

"""Budget policies and the controller routing every delta decision.

Section 3 of the paper derives per-algorithm cost models so that the
indexing fraction ``delta`` can be *chosen* instead of guessed: given an
interactivity threshold τ, every query should perform exactly as much
indexing work as keeps its total predicted cost at τ.  This module turns
that idea into the single execution-layer abstraction all engine paths
share:

:class:`BudgetPolicy`
    Strategy object answering "how much of the remaining phase work should
    this query perform?".  Three first-class flavours implement the paper's
    spectrum:

    * :class:`FixedDelta` — the fixed-``delta`` baseline (Figure 7 sweeps);
    * :class:`TimeAdaptive` — the time-based adaptive budget (Section 3,
      "adaptive indexing budget"), optionally correcting itself from
      *measured* query times through an injectable clock;
    * :class:`CostModelGreedy` — the cost-model-driven greedy adaptation:
      it asks the index for a full :class:`~repro.core.cost_model.CostBreakdown`
      prediction as a function of ``delta`` and solves for the ``delta``
      that lands the query on the caller's ``interactivity_budget`` τ,
      backing off multiplicatively when measured times show the
      predictions missed.

:class:`BatchPool`
    The pooled policy used by the batch executor: ``n`` queries' worth of
    budget drained greedily so batches front-load convergence.

:class:`BudgetController`
    The one controller every budget decision routes through — single
    queries, multi-column ``where()`` driving queries, batch execution,
    and the mutable substrate's delta-merge decisions alike.  It builds
    the per-query :class:`DeltaRequest` (base cost, remaining-work cost,
    and a ``predict(delta)`` callable backed by the index's cost model),
    clamps the policy's answer to the phase's feasible range, and feeds
    measured wall-clock durations back into the policy.

Merge work is priced through the same machinery: during the ``MERGE``
life-cycle stage the ``predict(delta)`` callable reports the pending
delta-fold cost in the ``merge`` component of the
:class:`~repro.core.cost_model.CostBreakdown`, so
:class:`CostModelGreedy` trades scanning vs. indexing vs. merging under
one interactivity budget τ, fixed/adaptive budgets pace merging exactly
as they pace construction, and a :class:`BatchPool` front-loads pending
merges into the first queries of a batch.

All model-space costs are in seconds.  Policies never read the wall clock
directly: time only enters through the injectable ``clock`` callable, so
the adaptive paths are deterministic under test.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.cost_model import CostBreakdown
from repro.errors import InvalidBudgetError

#: Smallest delta an adaptive policy will return while work remains.  A
#: strictly positive floor guarantees deterministic convergence even when a
#: single query is predicted to have no slack at all.
MINIMUM_DELTA = 1e-4

#: Fewest elements a time-budgeted query indexes while work remains.  The cost
#: of dispatching one query's indexing — a kernel call from Python, its
#: buffers, the piece bookkeeping: some tens of microseconds — does not shrink
#: with delta, and on the compiled kernel backend 20 % of a 1M-row scan is
#: 50 µs: a budget that buys fewer elements than this spends itself on
#: dispatch.  At ~2.5 ns an element, 2**15 elements are about that fixed cost
#: again.  The floor also bounds queries-to-converge by the column size
#: instead of by a ratio of two measured constants, which on a shared host
#: swings by 2x from one calibration to the next.
MINIMUM_ELEMENTS = 1 << 15

#: Type of the injectable clock: a zero-argument callable returning seconds.
Clock = Callable[[], float]


def _updated_correction(
    current: float,
    elapsed_seconds: float,
    predicted_seconds: float,
    smoothing: float,
    bounds: tuple,
) -> float:
    """One step of the shared measured/predicted feedback loop.

    Clamps the observed ratio to ``bounds``, folds it into the running
    correction with exponential smoothing, and clamps the result — the one
    place both self-correcting policies get their update from.
    """
    low, high = bounds
    ratio = min(high, max(low, elapsed_seconds / predicted_seconds))
    updated = current + smoothing * (ratio - current)
    return min(high, max(low, updated))


@dataclass
class DeltaRequest:
    """Everything a policy may consult when choosing ``delta`` for one query.

    Attributes
    ----------
    full_work_time:
        Predicted cost (seconds) of performing *all* remaining work of the
        current phase at once (``delta = 1``).
    base_cost:
        Predicted cost of answering the query without any indexing work
        (``delta = 0``), split into scan / lookup components.
    predict:
        Optional callable mapping a candidate ``delta`` to the full
        predicted :class:`CostBreakdown` of the query.  Progressive indexes
        provide their per-phase cost formulas here; policies that solve for
        ``delta`` exactly (:class:`CostModelGreedy`) use it, slack-based
        policies ignore it.
    max_delta:
        Upper bound on the feasible ``delta`` this query (e.g. the fraction
        of the column not yet copied during creation).
    n_elements:
        Column size, for policies that want to scale floors.
    phase:
        Life-cycle phase the decision is for; self-correcting policies keep
        per-phase measured/predicted statistics keyed on it.
    """

    full_work_time: float
    base_cost: CostBreakdown = field(default_factory=lambda: CostBreakdown(0.0, 0.0, 0.0))
    predict: Optional[Callable[[float], CostBreakdown]] = None
    max_delta: float = 1.0
    n_elements: int = 0
    phase: object = None

    @property
    def base_total(self) -> float:
        """Total predicted no-indexing cost in seconds."""
        return self.base_cost.total


@dataclass
class DeltaDecision:
    """The controller's answer for one query.

    Attributes
    ----------
    delta:
        The clamped fraction of the remaining phase work to perform.
    predicted:
        The cost-model prediction at the chosen ``delta`` (``None`` when the
        request carried no ``predict`` callable).
    """

    delta: float
    predicted: Optional[CostBreakdown] = None

    @property
    def predicted_seconds(self) -> Optional[float]:
        """Total predicted query time, if a prediction was available."""
        return None if self.predicted is None else self.predicted.total


class BudgetPolicy(abc.ABC):
    """Strategy object deciding how much indexing work each query performs.

    The legacy entry point is :meth:`next_delta`; richer policies override
    :meth:`choose` to consult the full :class:`DeltaRequest`.  Policies with
    a wall-clock feedback loop additionally implement :meth:`observe`.
    """

    #: Whether the policy recomputes delta for every query.
    adaptive: bool = False

    #: Whether the policy pools many queries' worth of work (batch
    #: execution).  Indexes may take whole-phase fast paths under a pooled
    #: policy; under per-query policies they must keep the paper's bounded
    #: per-query work semantics.
    pooled: bool = False

    #: Injectable clock; ``None`` disables wall-clock feedback entirely.
    clock: Optional[Clock] = None

    def register_scan_time(self, scan_time: float) -> None:
        """Inform the policy of the predicted full-scan time.

        Policies defined as a fraction of the scan cost resolve themselves
        to seconds on this call; other policies ignore it.
        """

    @abc.abstractmethod
    def next_delta(self, full_work_time: float, query_base_cost: float = 0.0) -> float:
        """Return the fraction of the remaining phase work to perform now.

        Parameters
        ----------
        full_work_time:
            Predicted cost (seconds) of performing all remaining work of
            the current phase at once.
        query_base_cost:
            Predicted cost (seconds) of answering the current query without
            any indexing work.
        """

    def choose(self, request: DeltaRequest) -> float:
        """Choose ``delta`` for ``request``; defaults to :meth:`next_delta`."""
        return self.next_delta(request.full_work_time, request.base_total)

    def observe(self, elapsed_seconds: float, predicted_seconds: float | None = None) -> None:
        """Feed back the measured duration of the query just executed.

        Only called when the policy carries a clock; the default is a no-op.
        """

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.describe()


class FixedDelta(BudgetPolicy):
    """Index a fixed fraction ``delta`` of the remaining work every query.

    Parameters
    ----------
    delta:
        Fraction of the (remaining phase) work performed per query.  ``0``
        disables indexing entirely — the index never converges, matching
        the paper's ``delta = 0`` discussion.
    """

    adaptive = False

    def __init__(self, delta: float) -> None:
        if not 0.0 <= delta <= 1.0:
            raise InvalidBudgetError(f"delta must be within [0, 1], got {delta}")
        self.delta = float(delta)

    def next_delta(self, full_work_time: float, query_base_cost: float = 0.0) -> float:
        return self.delta

    def describe(self) -> str:
        return f"FixedDelta(delta={self.delta})"


class FixedTime(BudgetPolicy):
    """Fixed budget expressed as seconds of indexing time for the first query.

    The delta implied by the first query (``t_budget / t_full_work``) is
    computed once and reused for all subsequent queries, as described in
    the paper's "fixed indexing budget" flavour.
    """

    adaptive = False

    def __init__(self, budget_seconds: float) -> None:
        if budget_seconds <= 0:
            raise InvalidBudgetError(
                f"budget_seconds must be positive, got {budget_seconds}"
            )
        self.budget_seconds = float(budget_seconds)
        self._delta: float | None = None

    def next_delta(self, full_work_time: float, query_base_cost: float = 0.0) -> float:
        if self._delta is None:
            if full_work_time <= 0:
                self._delta = 1.0
            else:
                self._delta = min(1.0, self.budget_seconds / full_work_time)
        return self._delta

    def describe(self) -> str:
        return f"FixedTime(budget={self.budget_seconds:.6f}s)"


class TimeAdaptive(BudgetPolicy):
    """Time-based adaptive policy keeping total query cost ~constant.

    The user provides the indexing budget of the first query; that fixes
    the target query time ``t_target = t_scan + t_budget``.  Every
    subsequent query spends whatever slack ``t_target - t_base`` remains
    on indexing: ``delta = slack / t_full_work``.

    Parameters
    ----------
    budget_seconds:
        Indexing budget of the first query, in seconds.  Mutually exclusive
        with ``scan_fraction``.
    scan_fraction:
        Indexing budget of the first query expressed as a fraction of the
        full-scan cost (the paper's experiments use ``0.2``, i.e. every
        query costs about ``1.2 x t_scan`` until convergence).  Resolved to
        seconds when :meth:`register_scan_time` is called.
    minimum_delta:
        Floor on the returned delta while work remains, guaranteeing
        convergence even when the cost model predicts no slack.
    clock:
        Optional clock enabling the wall-clock feedback loop: measured
        query durations are compared against the cost-model predictions and
        the slack is divided by the (clamped, exponentially smoothed)
        measured/predicted ratio, so a machine running slower than the
        model thinks indexes less per query.  ``None`` (the default) keeps
        the policy purely model-driven; tests inject a fake clock to drive
        the adaptive path deterministically.
    """

    adaptive = True

    #: Clamp of the measured/predicted correction ratio.
    CORRECTION_RANGE = (0.25, 4.0)

    #: Exponential-smoothing weight of a new measured/predicted ratio.
    SMOOTHING = 0.3

    def __init__(
        self,
        budget_seconds: float | None = None,
        scan_fraction: float | None = None,
        minimum_delta: float = MINIMUM_DELTA,
        clock: Optional[Clock] = None,
    ) -> None:
        if (budget_seconds is None) == (scan_fraction is None):
            raise InvalidBudgetError(
                "provide exactly one of budget_seconds or scan_fraction"
            )
        if budget_seconds is not None and budget_seconds <= 0:
            raise InvalidBudgetError(
                f"budget_seconds must be positive, got {budget_seconds}"
            )
        if scan_fraction is not None and scan_fraction <= 0:
            raise InvalidBudgetError(
                f"scan_fraction must be positive, got {scan_fraction}"
            )
        if minimum_delta < 0:
            raise InvalidBudgetError(
                f"minimum_delta must be non-negative, got {minimum_delta}"
            )
        self.budget_seconds = budget_seconds
        self.scan_fraction = scan_fraction
        self.minimum_delta = float(minimum_delta)
        self.target_query_cost: float | None = None
        self.clock = clock
        self.correction = 1.0

    def register_scan_time(self, scan_time: float) -> None:
        if self.budget_seconds is None:
            self.budget_seconds = self.scan_fraction * scan_time
        if self.target_query_cost is None:
            self.target_query_cost = scan_time + self.budget_seconds

    def choose(self, request: DeltaRequest) -> float:
        delta = self.next_delta(request.full_work_time, request.base_total)
        # minimum_delta == 0 asks for a policy that may stand still.
        if request.n_elements and self.minimum_delta > 0:
            delta = max(delta, min(1.0, MINIMUM_ELEMENTS / request.n_elements))
        return delta

    def next_delta(self, full_work_time: float, query_base_cost: float = 0.0) -> float:
        if self.budget_seconds is None:
            raise InvalidBudgetError(
                "TimeAdaptive with scan_fraction requires register_scan_time() "
                "before the first next_delta() call"
            )
        if full_work_time <= 0:
            return 1.0
        if self.target_query_cost is None:
            # First query: the budget itself is the indexing slack.
            slack = self.budget_seconds
        else:
            slack = self.target_query_cost - query_base_cost
        slack /= self.correction
        delta = slack / full_work_time
        return float(min(1.0, max(self.minimum_delta, delta)))

    def observe(self, elapsed_seconds: float, predicted_seconds: float | None = None) -> None:
        if self.clock is None or predicted_seconds is None or predicted_seconds <= 0:
            return
        self.correction = _updated_correction(
            self.correction, elapsed_seconds, predicted_seconds,
            self.SMOOTHING, self.CORRECTION_RANGE,
        )

    def describe(self) -> str:
        if self.scan_fraction is not None:
            return f"TimeAdaptive(scan_fraction={self.scan_fraction})"
        return f"TimeAdaptive(budget={self.budget_seconds:.6f}s)"


class CostModelGreedy(BudgetPolicy):
    """Cost-model-driven greedy adaptation towards an interactivity budget.

    The caller states the interactivity threshold τ — the total time one
    query is allowed to take.  For every query the policy asks the index's
    cost model for the predicted :class:`CostBreakdown` as a function of
    ``delta`` and solves ``predicted_total(delta) = τ`` exactly (all the
    paper's per-phase formulas are linear in ``delta``, so the solve is a
    closed form between ``predict(0)`` and ``predict(1)``).  Queries with
    no slack fall back to ``minimum_delta`` so convergence stays
    deterministic.

    When a ``clock`` is provided, the policy additionally implements the
    paper's backoff for cost-model misses as a continuous feedback loop:
    after every query it observes the measured / predicted time ratio and
    keeps a clamped, exponentially smoothed *correction* per life-cycle
    phase.  The solve then targets ``τ / correction`` — a phase whose
    predictions miss low (queries overshoot τ) gets its indexing backed
    off until the measured time lands back on τ.  With the default
    ``correction_range`` the loop only ever backs off (corrections stay
    ≥ 1); passing a lower bound below ``1`` additionally returns unused
    slack when predictions miss high, trading per-query stability for
    faster convergence.  Without a clock the corrections stay at ``1``
    and the policy is purely model-driven and deterministic.

    Parameters
    ----------
    interactivity_budget:
        τ in seconds: the target total per-query time.  Mutually exclusive
        with ``scan_fraction``.
    scan_fraction:
        Express τ relative to the scan cost: ``τ = (1 + scan_fraction) *
        t_scan``, the same shape as the paper's adaptive experiments
        (``0.2`` → every query costs about ``1.2 x t_scan``).  Resolved on
        :meth:`register_scan_time`.
    minimum_delta:
        Convergence floor while work remains.
    smoothing:
        Exponential-smoothing weight of a new measured/predicted ratio.
    correction_range:
        Clamp of the per-phase correction; bounds how far a single
        mis-calibrated phase can drag the target.  The default
        ``(1.0, 4.0)`` is backoff-only.
    clock:
        Injectable clock enabling the feedback loop; ``None`` keeps the
        policy deterministic.
    """

    adaptive = True

    def __init__(
        self,
        interactivity_budget: float | None = None,
        scan_fraction: float | None = None,
        minimum_delta: float = MINIMUM_DELTA,
        smoothing: float = 0.4,
        correction_range: tuple = (1.0, 4.0),
        clock: Optional[Clock] = None,
    ) -> None:
        if (interactivity_budget is None) == (scan_fraction is None):
            raise InvalidBudgetError(
                "provide exactly one of interactivity_budget or scan_fraction"
            )
        if interactivity_budget is not None and interactivity_budget <= 0:
            raise InvalidBudgetError(
                f"interactivity_budget must be positive, got {interactivity_budget}"
            )
        if scan_fraction is not None and scan_fraction <= 0:
            raise InvalidBudgetError(
                f"scan_fraction must be positive, got {scan_fraction}"
            )
        if not 0.0 < smoothing <= 1.0:
            raise InvalidBudgetError(f"smoothing must be in (0, 1], got {smoothing}")
        if minimum_delta < 0:
            raise InvalidBudgetError(
                f"minimum_delta must be non-negative, got {minimum_delta}"
            )
        low, high = correction_range
        if not 0 < low <= 1.0 <= high:
            raise InvalidBudgetError(
                f"correction_range must bracket 1.0, got {correction_range}"
            )
        self.interactivity_budget = interactivity_budget
        self.scan_fraction = scan_fraction
        self.minimum_delta = float(minimum_delta)
        self.smoothing = float(smoothing)
        self.correction_range = (float(low), float(high))
        self.clock = clock
        self._corrections: dict = {}
        self._observe_phase = None

    # ------------------------------------------------------------------
    @property
    def tau(self) -> float | None:
        """The interactivity threshold τ in seconds (``None`` if unresolved)."""
        return self.interactivity_budget

    def register_scan_time(self, scan_time: float) -> None:
        if self.interactivity_budget is None:
            self.interactivity_budget = (1.0 + self.scan_fraction) * scan_time

    def correction_for(self, phase) -> float:
        """The measured/predicted correction currently applied for ``phase``."""
        return self._corrections.get(phase, 1.0)

    # ------------------------------------------------------------------
    def choose(self, request: DeltaRequest) -> float:
        tau = self._require_tau() / self.correction_for(request.phase)
        self._observe_phase = request.phase
        if request.full_work_time <= 0:
            return 1.0
        base = request.base_total
        if request.predict is not None:
            # The caller already evaluated predict(0) into base_cost; only
            # the delta = 1 endpoint needs a fresh evaluation.
            work_slope = request.predict(1.0).total - base
        else:
            work_slope = request.full_work_time
        if work_slope <= 0:
            return 1.0
        delta = (tau - base) / work_slope
        return float(min(1.0, max(self.minimum_delta, delta)))

    def next_delta(self, full_work_time: float, query_base_cost: float = 0.0) -> float:
        return self.choose(
            DeltaRequest(
                full_work_time=full_work_time,
                base_cost=CostBreakdown(scan=query_base_cost, lookup=0.0, indexing=0.0),
            )
        )

    def _require_tau(self) -> float:
        if self.interactivity_budget is None:
            raise InvalidBudgetError(
                "CostModelGreedy with scan_fraction requires register_scan_time() "
                "before the first delta decision"
            )
        return self.interactivity_budget

    # ------------------------------------------------------------------
    def observe(self, elapsed_seconds: float, predicted_seconds: float | None = None) -> None:
        if self.clock is None or predicted_seconds is None or predicted_seconds <= 0:
            return
        phase = self._observe_phase
        self._corrections[phase] = _updated_correction(
            self._corrections.get(phase, 1.0), elapsed_seconds, predicted_seconds,
            self.smoothing, self.correction_range,
        )

    def describe(self) -> str:
        if self.scan_fraction is not None and self.interactivity_budget is None:
            return f"CostModelGreedy(scan_fraction={self.scan_fraction})"
        return f"CostModelGreedy(tau={self.interactivity_budget:.6f}s)"


class BatchPool(BudgetPolicy):
    """Shared indexing-budget pool for a batch of queries.

    The batch executor answers a whole workload at once, so instead of
    granting every query its individual slice of indexing time, the
    per-query budget of ``n_queries`` queries is pooled into one reservoir
    that is drained greedily: the first queries of the batch may perform far
    more than their per-query share of indexing work (front-loading
    convergence so the rest of the batch can be answered with vectorized
    lookups), but the batch as a whole never spends more indexing time than
    the equivalent sequential execution would have.

    Parameters
    ----------
    n_queries:
        Number of queries whose budgets are pooled.
    per_query_seconds:
        Indexing budget of one query, in seconds.  Mutually exclusive with
        ``scan_fraction`` and ``interactivity_budget``.
    scan_fraction:
        Per-query budget as a fraction of the full-scan cost (the paper's
        default is ``0.2``); resolved to seconds by
        :meth:`register_scan_time`.
    interactivity_budget:
        Per-query total-time target τ; the pooled per-query budget becomes
        the slack ``max(0, τ - t_scan)``, resolved by
        :meth:`register_scan_time`.  Used when pooling the budget of an
        index driven by :class:`CostModelGreedy`.
    """

    adaptive = True
    pooled = True

    def __init__(
        self,
        n_queries: int,
        per_query_seconds: float | None = None,
        scan_fraction: float | None = None,
        interactivity_budget: float | None = None,
    ) -> None:
        if n_queries < 0:
            raise InvalidBudgetError(f"n_queries must be non-negative, got {n_queries}")
        provided = [
            value
            for value in (per_query_seconds, scan_fraction, interactivity_budget)
            if value is not None
        ]
        if len(provided) > 1:
            raise InvalidBudgetError(
                "provide at most one of per_query_seconds, scan_fraction or "
                "interactivity_budget"
            )
        if per_query_seconds is not None and per_query_seconds < 0:
            raise InvalidBudgetError(
                f"per_query_seconds must be non-negative, got {per_query_seconds}"
            )
        if scan_fraction is not None and scan_fraction < 0:
            raise InvalidBudgetError(
                f"scan_fraction must be non-negative, got {scan_fraction}"
            )
        if interactivity_budget is not None and interactivity_budget < 0:
            raise InvalidBudgetError(
                f"interactivity_budget must be non-negative, got {interactivity_budget}"
            )
        if not provided:
            scan_fraction = 0.2
        self.n_queries = int(n_queries)
        self.scan_fraction = scan_fraction
        self.interactivity_budget = interactivity_budget
        self.pool_seconds: float | None = (
            None if per_query_seconds is None else per_query_seconds * self.n_queries
        )
        self.spent_seconds = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def for_index(cls, index, n_queries: int) -> "BatchPool":
        """A pool equivalent to ``n_queries`` queries of ``index``'s policy.

        The mapping preserves the spirit of each per-query budget flavour:
        time-based budgets pool their per-query seconds, fraction/delta-based
        budgets pool the corresponding fraction of the scan cost, and
        interactivity budgets pool their per-query slack over the scan.
        """
        policy = index.budget
        if isinstance(policy, cls):
            per_query = None
            if policy.pool_seconds is not None and policy.n_queries > 0:
                per_query = policy.pool_seconds / policy.n_queries
            if per_query is not None:
                return cls(n_queries, per_query_seconds=per_query)
            if policy.interactivity_budget is not None:
                return cls(n_queries, interactivity_budget=policy.interactivity_budget)
            return cls(n_queries, scan_fraction=policy.scan_fraction)
        if isinstance(policy, CostModelGreedy):
            if policy.interactivity_budget is not None:
                return cls(n_queries, interactivity_budget=policy.interactivity_budget)
            return cls(n_queries, scan_fraction=policy.scan_fraction)
        if isinstance(policy, TimeAdaptive):
            if policy.budget_seconds is not None:
                return cls(n_queries, per_query_seconds=policy.budget_seconds)
            return cls(n_queries, scan_fraction=policy.scan_fraction)
        if isinstance(policy, FixedTime):
            return cls(n_queries, per_query_seconds=policy.budget_seconds)
        if isinstance(policy, FixedDelta):
            # A fixed delta indexes `delta` of the phase work per query; one
            # unit of phase work costs on the order of one scan, so the
            # pooled equivalent is `delta` of the scan cost per query.
            return cls(n_queries, scan_fraction=policy.delta)
        return cls(n_queries)

    # ------------------------------------------------------------------
    @property
    def remaining_seconds(self) -> float:
        """Indexing seconds left in the pool (``0`` when exhausted)."""
        if self.pool_seconds is None:
            return 0.0
        return max(0.0, self.pool_seconds - self.spent_seconds)

    @property
    def exhausted(self) -> bool:
        """Whether the pool has been drained (or never held any budget)."""
        return self.pool_seconds is not None and self.remaining_seconds <= 0.0

    def register_scan_time(self, scan_time: float) -> None:
        if self.pool_seconds is not None:
            return
        if self.interactivity_budget is not None:
            per_query = max(0.0, self.interactivity_budget - scan_time)
        else:
            per_query = self.scan_fraction * scan_time
        self.pool_seconds = per_query * self.n_queries

    def next_delta(self, full_work_time: float, query_base_cost: float = 0.0) -> float:
        if self.pool_seconds is None:
            raise InvalidBudgetError(
                "BatchPool with scan_fraction requires register_scan_time() "
                "before the first next_delta() call"
            )
        if full_work_time <= 0:
            return 1.0
        remaining = self.remaining_seconds
        if remaining <= 0.0:
            return 0.0
        delta = min(1.0, remaining / full_work_time)
        self.spent_seconds += delta * full_work_time
        return delta

    def describe(self) -> str:
        if self.pool_seconds is not None:
            return (
                f"BatchPool(n_queries={self.n_queries}, "
                f"pool={self.pool_seconds:.6f}s)"
            )
        if self.interactivity_budget is not None:
            return (
                f"BatchPool(n_queries={self.n_queries}, "
                f"tau={self.interactivity_budget:.6f}s)"
            )
        return (
            f"BatchPool(n_queries={self.n_queries}, "
            f"scan_fraction={self.scan_fraction})"
        )


class CappedBudget(BudgetPolicy):
    """Admission wrapper clamping the inner policy's per-query grant.

    The serving layer's :class:`~repro.serve.scheduler.ProgressiveScheduler`
    turns a connection class's interactivity budget (tau) into an
    *allowance* of indexing seconds for each admitted query.  This wrapper
    is swapped in front of the index's own policy for the duration of that
    query: the inner policy still chooses its preferred ``delta`` (so
    adaptive policies keep learning from an undistorted stream), but the
    grant is clamped so the predicted indexing work ``delta *
    full_work_time`` never exceeds the allowance.  The seconds actually
    granted accumulate in :attr:`granted_seconds`, which the scheduler
    charges to the connection class's work account — budgets become a
    fairness currency shared across clients rather than a per-session knob.

    Parameters
    ----------
    inner:
        The index's own policy; every decision and observation is
        forwarded to it.
    allowance_seconds:
        Maximum predicted indexing seconds one query may spend.  Use
        ``float("inf")`` for no cap (pass-through).
    """

    def __init__(self, inner: BudgetPolicy, allowance_seconds: float) -> None:
        if not isinstance(inner, BudgetPolicy):
            raise InvalidBudgetError(
                f"CappedBudget expects a BudgetPolicy, got {type(inner).__name__}"
            )
        if allowance_seconds < 0:
            raise InvalidBudgetError(
                f"allowance_seconds must be >= 0, got {allowance_seconds}"
            )
        self.inner = inner
        self.allowance_seconds = float(allowance_seconds)
        #: Predicted indexing seconds granted through this wrapper so far.
        self.granted_seconds = 0.0

    # Delegate the capability flags so engine fast paths (pooled
    # whole-phase shortcuts, wall-clock feedback) behave exactly as they
    # would under the inner policy.
    @property
    def adaptive(self) -> bool:  # type: ignore[override]
        return self.inner.adaptive

    @property
    def pooled(self) -> bool:  # type: ignore[override]
        return self.inner.pooled

    @property
    def clock(self):  # type: ignore[override]
        return self.inner.clock

    def register_scan_time(self, scan_time: float) -> None:
        self.inner.register_scan_time(scan_time)

    def _cap(self, delta: float, full_work_time: float) -> float:
        if full_work_time > 0.0 and self.allowance_seconds < float("inf"):
            delta = min(delta, self.allowance_seconds / full_work_time)
        delta = max(0.0, min(1.0, float(delta)))
        self.granted_seconds += delta * max(full_work_time, 0.0)
        return delta

    def next_delta(self, full_work_time: float, query_base_cost: float = 0.0) -> float:
        return self._cap(
            self.inner.next_delta(full_work_time, query_base_cost), full_work_time
        )

    def choose(self, request: DeltaRequest) -> float:
        return self._cap(self.inner.choose(request), request.full_work_time)

    def observe(self, elapsed_seconds: float, predicted_seconds: float | None = None) -> None:
        self.inner.observe(elapsed_seconds, predicted_seconds)

    def describe(self) -> str:
        if self.allowance_seconds == float("inf"):
            return f"CappedBudget(uncapped, {self.inner.describe()})"
        return (
            f"CappedBudget(allowance={self.allowance_seconds:.2e}s, "
            f"{self.inner.describe()})"
        )

    def __getattr__(self, name: str):
        # Forward policy-specific attributes (``tau``, ``correction_for``,
        # ``budget_seconds`` ...) so index code that introspects its policy
        # keeps working while the wrapper is installed.
        if name == "inner":  # guard half-constructed instances
            raise AttributeError(name)
        return getattr(self.inner, name)


class PooledBudgetController:
    """Splits one interactivity budget τ across the shards a query touches.

    Sharded execution answers one logical query with up to K per-shard
    queries.  Handing every shard the full τ would multiply the end-to-end
    latency by the number of touched shards; this controller instead
    derives a per-shard total-time target so the *logical* query still
    lands on τ:

    ``lanes = min(parallelism, touched)`` shards run concurrently, each
    execution lane serves ``touched / lanes`` shards back to back, so the
    per-shard target is ``τ_s = τ * lanes / touched``.  Serial execution
    (``parallelism = 1``) degrades to the natural ``τ / touched`` split;
    with enough workers every touched shard gets the full τ.  Because the
    divisor is the number of *touched* shards, everything the zone-map
    router prunes automatically donates its slice to the survivors.

    Per shard the target is enforced by wrapping the shard index's own
    policy in a :class:`CappedBudget` whose allowance is the slack
    ``max(0, τ_s - predicted_base_cost)`` — the shard policy keeps
    choosing (and learning) freely, it just cannot overdraw the pool.

    Parameters
    ----------
    interactivity_budget:
        τ in seconds for the logical query; ``None`` disables pooling
        (shards run under their own policies uncapped).
    n_shards:
        Total shard count K (for reporting).
    parallelism:
        Number of concurrent execution lanes (the shard executor's
        threads; 1 when it runs serially).
    """

    def __init__(
        self,
        interactivity_budget: float | None = None,
        n_shards: int = 1,
        parallelism: int = 1,
    ) -> None:
        if interactivity_budget is not None and interactivity_budget <= 0:
            raise InvalidBudgetError(
                f"interactivity_budget must be positive, got {interactivity_budget}"
            )
        if n_shards < 1:
            raise InvalidBudgetError(f"n_shards must be >= 1, got {n_shards}")
        if parallelism < 1:
            raise InvalidBudgetError(f"parallelism must be >= 1, got {parallelism}")
        self.interactivity_budget = interactivity_budget
        self.n_shards = int(n_shards)
        self.parallelism = int(parallelism)
        #: Logical queries routed through the pool.
        self.queries = 0
        #: Per-shard dispatches charged against the pool.
        self.shards_charged = 0
        #: Predicted indexing seconds granted through the per-shard caps.
        self.granted_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def tau(self) -> float | None:
        """The logical query's interactivity threshold τ (``None`` = off)."""
        return self.interactivity_budget

    def lanes(self, touched: int) -> int:
        """Concurrent execution lanes available for ``touched`` shards."""
        return max(1, min(self.parallelism, max(1, int(touched))))

    def shard_budget(self, touched: int) -> float | None:
        """Per-shard total-time target τ_s for a query touching ``touched``.

        Pruned shards do not appear in ``touched``, so their budget flows
        to the survivors.
        """
        if self.interactivity_budget is None:
            return None
        touched = max(1, int(touched))
        return self.interactivity_budget * self.lanes(touched) / touched

    def shard_allowance(self, touched: int, base_seconds: float | None) -> float:
        """Indexing-seconds cap for one shard of a ``touched``-shard query.

        ``base_seconds`` is the shard's predicted no-indexing cost
        (``predict(0)``); shards without a cost model get the full τ_s.
        """
        budget = self.shard_budget(touched)
        if budget is None:
            return float("inf")
        if base_seconds is None:
            return budget
        return max(0.0, budget - float(base_seconds))

    def charge(self, touched: int, granted_seconds: float, queries: int = 1) -> None:
        """Account the per-shard grants of one logical query — or of a
        batch of ``queries`` that touched ``touched`` shards between them."""
        self.queries += queries
        if touched > 0:
            self.shards_charged += int(touched)
        if granted_seconds > 0.0:
            self.granted_seconds += float(granted_seconds)

    def snapshot(self) -> dict:
        return {
            "tau": self.interactivity_budget,
            "n_shards": self.n_shards,
            "parallelism": self.parallelism,
            "queries": int(self.queries),
            "shards_charged": int(self.shards_charged),
            "granted_seconds": float(self.granted_seconds),
        }

    def describe(self) -> str:
        if self.interactivity_budget is None:
            return (
                f"PooledBudget(uncapped, shards={self.n_shards}, "
                f"parallelism={self.parallelism})"
            )
        return (
            f"PooledBudget(tau={self.interactivity_budget:.6f}s, "
            f"shards={self.n_shards}, parallelism={self.parallelism})"
        )


class BudgetController:
    """The single decision point every budget question routes through.

    One controller is attached to every index.  The engine paths — a
    sequential :meth:`~repro.core.index.BaseIndex.query`, the driving query
    of a multi-column ``where()``, and the batch executor's pooled
    execution — all end up in :meth:`decide`, which consults the installed
    :class:`BudgetPolicy` with the full :class:`DeltaRequest` (including
    the index's ``predict(delta)`` cost-model callable) and clamps the
    answer to the feasible range.  Measured query durations flow back
    through :meth:`observe` so self-correcting policies see reality.

    Parameters
    ----------
    policy:
        The initially installed budget policy.
    """

    def __init__(self, policy: BudgetPolicy) -> None:
        if not isinstance(policy, BudgetPolicy):
            raise InvalidBudgetError(
                f"BudgetController expects a BudgetPolicy, got {type(policy).__name__}"
            )
        self._policy = policy
        self._scan_time: float | None = None

    # ------------------------------------------------------------------
    @property
    def policy(self) -> BudgetPolicy:
        """The currently installed budget policy."""
        return self._policy

    def swap_policy(self, policy: BudgetPolicy) -> BudgetPolicy:
        """Install ``policy`` and return the previously installed one.

        The batch executor uses this to temporarily replace a per-query
        policy with a pooled :class:`BatchPool` for the duration of one
        batch, restoring the original afterwards.  A policy installed
        mid-run is resolved against the already-registered scan time.
        """
        if not isinstance(policy, BudgetPolicy):
            raise InvalidBudgetError(
                f"swap_policy() expects a BudgetPolicy, got {type(policy).__name__}"
            )
        previous = self._policy
        self._policy = policy
        if self._scan_time is not None:
            policy.register_scan_time(self._scan_time)
        return previous

    def register_scan_time(self, scan_time: float) -> None:
        """Resolve fraction-based policies against the predicted scan time."""
        self._scan_time = float(scan_time)
        self._policy.register_scan_time(self._scan_time)

    # ------------------------------------------------------------------
    def decide(self, request: DeltaRequest) -> DeltaDecision:
        """Choose the indexing fraction for one query.

        The policy's raw answer is clamped to ``[0, request.max_delta]``
        *after* the policy call, preserving pooled-reservoir accounting
        (a pool spends what it granted, not what the phase could absorb).
        """
        delta = float(self._policy.choose(request))
        delta = min(delta, float(request.max_delta))
        delta = max(0.0, min(1.0, delta))
        predicted = request.predict(delta) if request.predict is not None else None
        return DeltaDecision(delta=delta, predicted=predicted)

    # ------------------------------------------------------------------
    # Wall-clock seam
    # ------------------------------------------------------------------
    def query_started(self) -> float | None:
        """Timestamp the start of a query (``None`` without a policy clock)."""
        clock = self._policy.clock
        return None if clock is None else clock()

    def query_finished(self, started: float | None, predicted_seconds: float | None) -> None:
        """Report the measured duration of the query back to the policy."""
        clock = self._policy.clock
        if started is None or clock is None:
            return
        self._policy.observe(clock() - started, predicted_seconds)


def wall_clock() -> float:
    """The default real clock for production use (``time.perf_counter``)."""
    return time.perf_counter()


# ----------------------------------------------------------------------
# Persistence (checkpointing)
# ----------------------------------------------------------------------
def policy_state_dict(policy: BudgetPolicy) -> dict:
    """Serializable snapshot of a budget policy (configuration + dynamics).

    Clocks are process-local callables and are not persisted: a restored
    policy wakes up without wall-clock feedback until the caller re-injects
    one.  The learned corrections *are* persisted, so a restarted adaptive
    policy resumes from its calibrated state rather than from scratch.
    """
    if isinstance(policy, FixedDelta):
        return {"type": "FixedDelta", "delta": policy.delta}
    if isinstance(policy, FixedTime):
        return {
            "type": "FixedTime",
            "budget_seconds": policy.budget_seconds,
            "resolved_delta": policy._delta,
        }
    if isinstance(policy, TimeAdaptive):
        return {
            "type": "TimeAdaptive",
            "budget_seconds": policy.budget_seconds,
            "scan_fraction": policy.scan_fraction,
            "minimum_delta": policy.minimum_delta,
            "target_query_cost": policy.target_query_cost,
            "correction": policy.correction,
        }
    if isinstance(policy, CostModelGreedy):
        corrections = {}
        for phase, value in policy._corrections.items():
            key = getattr(phase, "value", None) or "__none__"
            corrections[str(key)] = float(value)
        return {
            "type": "CostModelGreedy",
            "interactivity_budget": policy.interactivity_budget,
            "scan_fraction": policy.scan_fraction,
            "minimum_delta": policy.minimum_delta,
            "smoothing": policy.smoothing,
            "correction_range": list(policy.correction_range),
            "corrections": corrections,
        }
    if isinstance(policy, BatchPool):
        return {
            "type": "BatchPool",
            "n_queries": policy.n_queries,
            "scan_fraction": policy.scan_fraction,
            "interactivity_budget": policy.interactivity_budget,
            "pool_seconds": policy.pool_seconds,
            "spent_seconds": policy.spent_seconds,
        }
    raise InvalidBudgetError(
        f"cannot checkpoint budget policy of type {type(policy).__name__}"
    )


def policy_from_state(state: dict) -> BudgetPolicy:
    """Rebuild a budget policy from :func:`policy_state_dict` output."""
    from repro.core.phase import IndexPhase

    kind = state.get("type")
    if kind == "FixedDelta":
        return FixedDelta(state["delta"])
    if kind == "FixedTime":
        policy = FixedTime(state["budget_seconds"])
        policy._delta = state.get("resolved_delta")
        return policy
    if kind == "TimeAdaptive":
        if state.get("budget_seconds") is not None and state.get("scan_fraction") is not None:
            # Fraction policies resolve budget_seconds in place; rebuild from
            # the fraction and restore the resolved seconds afterwards.
            policy = TimeAdaptive(
                scan_fraction=state["scan_fraction"],
                minimum_delta=state.get("minimum_delta", MINIMUM_DELTA),
            )
            policy.budget_seconds = state["budget_seconds"]
        elif state.get("budget_seconds") is not None:
            policy = TimeAdaptive(
                budget_seconds=state["budget_seconds"],
                minimum_delta=state.get("minimum_delta", MINIMUM_DELTA),
            )
        else:
            policy = TimeAdaptive(
                scan_fraction=state["scan_fraction"],
                minimum_delta=state.get("minimum_delta", MINIMUM_DELTA),
            )
        policy.target_query_cost = state.get("target_query_cost")
        policy.correction = float(state.get("correction", 1.0))
        return policy
    if kind == "CostModelGreedy":
        if state.get("interactivity_budget") is not None:
            policy = CostModelGreedy(
                interactivity_budget=state["interactivity_budget"],
                minimum_delta=state.get("minimum_delta", MINIMUM_DELTA),
                smoothing=state.get("smoothing", 0.4),
                correction_range=tuple(state.get("correction_range", (1.0, 4.0))),
            )
            policy.scan_fraction = state.get("scan_fraction")
        else:
            policy = CostModelGreedy(
                scan_fraction=state["scan_fraction"],
                minimum_delta=state.get("minimum_delta", MINIMUM_DELTA),
                smoothing=state.get("smoothing", 0.4),
                correction_range=tuple(state.get("correction_range", (1.0, 4.0))),
            )
        for key, value in state.get("corrections", {}).items():
            phase = None if key == "__none__" else IndexPhase(key)
            policy._corrections[phase] = float(value)
        return policy
    if kind == "BatchPool":
        policy = BatchPool(
            int(state["n_queries"]),
            scan_fraction=state.get("scan_fraction"),
            interactivity_budget=state.get("interactivity_budget"),
        )
        if state.get("pool_seconds") is not None:
            policy.pool_seconds = float(state["pool_seconds"])
        policy.spent_seconds = float(state.get("spent_seconds", 0.0))
        return policy
    raise InvalidBudgetError(f"unknown budget-policy state type {kind!r}")


class ManualClock:
    """A manually advanced clock for deterministic adaptive runs.

    Inject into :class:`TimeAdaptive` / :class:`CostModelGreedy` instead of
    a real clock to drive the wall-clock feedback loops reproducibly (the
    test suite uses it everywhere the adaptive path is exercised).
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds``."""
        self.now += float(seconds)

    def __call__(self) -> float:
        return self.now

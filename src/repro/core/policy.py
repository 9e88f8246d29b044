"""Budget policies and the controller routing every delta decision.

Section 3 of the paper derives per-algorithm cost models so that the
indexing fraction ``delta`` can be *chosen* instead of guessed: given an
interactivity threshold τ, every query should perform exactly as much
indexing work as keeps its total predicted cost at τ.  This module turns
that idea into the single execution-layer abstraction all engine paths
share:

:class:`BudgetPolicy`
    Strategy object with one decision method, :meth:`~BudgetPolicy.choose`:
    given the query's :class:`DeltaRequest`, how much of the remaining phase
    work should it perform?  The flavours implement the paper's spectrum:

    * :class:`FixedDelta` — the fixed-``delta`` baseline (Figure 7 sweeps);
    * :class:`FixedTime` — a fixed budget in seconds, turned into a
      ``delta`` by the first query;
    * :class:`TimeAdaptive` — the time-based adaptive budget (Section 3,
      "adaptive indexing budget"), optionally correcting itself from
      *measured* query times through an injectable clock;
    * :class:`CostModelGreedy` — the cost-model-driven greedy adaptation:
      it asks the index for a full :class:`~repro.core.cost_model.CostBreakdown`
      prediction as a function of ``delta`` and solves for the ``delta``
      that lands the query on the caller's ``interactivity_budget`` τ,
      backing off multiplicatively when measured times show the
      predictions missed;
    * :class:`BatchPool` — the batch executor's pool: ``n`` queries' worth
      of budget drained greedily so batches front-load convergence.

:class:`BudgetController`
    The one place a ``delta`` is decided, for every engine path.  The index
    builds the per-query :class:`DeltaRequest` (base cost, remaining-work
    cost, and a ``predict(delta)`` callable backed by its cost model); the
    controller asks the policy, clamps the answer to the phase's feasible
    range, and feeds measured durations back.  For one call it may hold an
    admission cap (:meth:`BudgetController.capped`) bounding each grant's
    predicted indexing seconds — the serving scheduler's τ tickets and the
    sharded executor's per-shard slices — with the index's policy still
    installed.

Checkpoints persist a policy through one codec table (``_CODEC``: per type
the persisted keys, the constructor arguments and the dynamic fields);
restores run the constructor's validation, and malformed state raises
:class:`~repro.errors.InvalidBudgetError`.

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
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.cost_model import CostBreakdown
from repro.core.phase import IndexPhase
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

#: The smallest positive float: a range starting here excludes zero.
_POSITIVE = math.nextafter(0.0, 1.0)


def _number(name: str, value, low: float = 0.0, high: float = math.inf, optional: bool = False):
    """``value`` as given, if it is a real number in ``[low, high]`` (or
    ``None`` and ``optional``); else :class:`~repro.errors.InvalidBudgetError`.

    The one check behind every policy argument and every restored field, so
    a caller's arguments and a checkpoint meet the same validation.
    """
    if value is None and optional:
        return None
    valid = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        valid = valid and low <= float(value) <= high
    except OverflowError:
        valid = False
    if not valid:
        lower = "(0" if low == _POSITIVE else f"[{low:g}"
        raise InvalidBudgetError(f"{name} must be a number in {lower}, {high:g}], got {value!r}")
    return value


def _updated_correction(
    current: float, elapsed_seconds: float, predicted_seconds: float, smoothing: float, bounds: tuple
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
        Optional callable mapping a candidate ``delta`` to the query's full
        predicted :class:`CostBreakdown` (the index's per-phase formula);
        :class:`CostModelGreedy` solves against it, slack-based policies
        ignore it.
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
    """The controller's answer for one query: the clamped ``delta``, and the
    cost-model prediction at it (``None`` without a ``predict`` callable)."""

    delta: float
    predicted: Optional[CostBreakdown] = None

    @property
    def predicted_seconds(self) -> Optional[float]:
        """Total predicted query time, if a prediction was available."""
        return None if self.predicted is None else self.predicted.total


class BudgetPolicy(abc.ABC):
    """Strategy object deciding how much indexing work each query performs.

    A policy answers one question, :meth:`choose`, and only the
    :class:`BudgetController` asks it.  Policies with a wall-clock feedback
    loop additionally implement :meth:`observe`.
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
    def choose(self, request: DeltaRequest) -> float:
        """Return the fraction of the remaining phase work to perform now.

        ``request.full_work_time`` prices all of that work and
        ``request.base_cost`` the query without any; the controller clamps
        the answer to the phase's feasible range.
        """

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

    def __init__(self, delta: float) -> None:
        self.delta = float(_number("delta", delta, 0.0, 1.0))

    def choose(self, request: DeltaRequest) -> float:
        return self.delta

    def describe(self) -> str:
        return f"FixedDelta(delta={self.delta})"


class FixedTime(BudgetPolicy):
    """Fixed budget expressed as seconds of indexing time for the first query.

    The delta implied by the first query (``t_budget / t_full_work``) is
    computed once and reused for all subsequent queries, as described in
    the paper's "fixed indexing budget" flavour.
    """

    def __init__(self, budget_seconds: float) -> None:
        self.budget_seconds = float(_number("budget_seconds", budget_seconds, _POSITIVE))
        self._delta: float | None = None

    def choose(self, request: DeltaRequest) -> float:
        if self._delta is None:
            full = request.full_work_time
            self._delta = 1.0 if full <= 0 else min(1.0, self.budget_seconds / full)
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
        Optional clock enabling the wall-clock feedback loop: the slack is
        divided by the clamped, smoothed measured/predicted ratio, so a
        machine slower than the model indexes less per query.  ``None``
        keeps the policy purely model-driven.
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
        self.budget_seconds = _number("budget_seconds", budget_seconds, _POSITIVE, optional=True)
        self.scan_fraction = _number("scan_fraction", scan_fraction, _POSITIVE, optional=True)
        self.minimum_delta = float(_number("minimum_delta", minimum_delta))
        self.target_query_cost: float | None = None
        self.clock = clock
        self.correction = 1.0

    def register_scan_time(self, scan_time: float) -> None:
        if self.budget_seconds is None:
            self.budget_seconds = self.scan_fraction * scan_time
        if self.target_query_cost is None:
            self.target_query_cost = scan_time + self.budget_seconds

    def choose(self, request: DeltaRequest) -> float:
        if self.budget_seconds is None:
            raise InvalidBudgetError(
                "TimeAdaptive with scan_fraction requires register_scan_time() "
                "before the first delta decision"
            )
        full_work_time = request.full_work_time
        if full_work_time <= 0:
            return 1.0
        if self.target_query_cost is None:
            # First query: the budget itself is the indexing slack.
            slack = self.budget_seconds
        else:
            slack = self.target_query_cost - request.base_total
        slack /= self.correction
        delta = float(min(1.0, max(self.minimum_delta, slack / full_work_time)))
        # minimum_delta == 0 asks for a policy that may stand still.
        if request.n_elements and self.minimum_delta > 0:
            delta = max(delta, min(1.0, MINIMUM_ELEMENTS / request.n_elements))
        return delta

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

    With a ``clock`` the policy implements the paper's backoff for
    cost-model misses as a feedback loop: it keeps a clamped, smoothed
    measured/predicted *correction* per life-cycle phase and solves for
    ``τ / correction``, so a phase whose queries overshoot τ indexes less
    until they land back on τ.  The default ``correction_range`` only backs
    off; a lower bound below ``1`` also returns slack when predictions miss
    high.  Without a clock the policy is purely model-driven.

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
        if not isinstance(correction_range, (tuple, list)) or len(correction_range) != 2:
            raise InvalidBudgetError(
                f"correction_range must be a (low, high) pair, got {correction_range!r}"
            )
        self.interactivity_budget = _number(
            "interactivity_budget", interactivity_budget, _POSITIVE, optional=True
        )
        self.scan_fraction = _number("scan_fraction", scan_fraction, _POSITIVE, optional=True)
        self.minimum_delta = float(_number("minimum_delta", minimum_delta))
        self.smoothing = float(_number("smoothing", smoothing, _POSITIVE, 1.0))
        # The range must bracket 1.0: a correction of 1 means "no correction".
        self.correction_range = (
            float(_number("correction_range low", correction_range[0], _POSITIVE, 1.0)),
            float(_number("correction_range high", correction_range[1], 1.0)),
        )
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
        if self.interactivity_budget is None:
            raise InvalidBudgetError(
                "CostModelGreedy with scan_fraction requires register_scan_time() "
                "before the first delta decision"
            )
        tau = self.interactivity_budget / self.correction_for(request.phase)
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

    The per-query budget of ``n_queries`` queries is pooled into one
    reservoir drained greedily: the first queries of a batch may do far more
    than their share of indexing (front-loading convergence, so the rest is
    answered with vectorized lookups), but the batch never spends more than
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
        _number("per_query_seconds", per_query_seconds, optional=True)
        _number("scan_fraction", scan_fraction, optional=True)
        _number("interactivity_budget", interactivity_budget, optional=True)
        if not provided:
            scan_fraction = 0.2
        self.n_queries = int(_number("n_queries", n_queries, high=2.0**63))
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
        if isinstance(policy, cls) and policy.pool_seconds is not None and policy.n_queries > 0:
            return cls(n_queries, per_query_seconds=policy.pool_seconds / policy.n_queries)
        if isinstance(policy, (TimeAdaptive, FixedTime)) and policy.budget_seconds is not None:
            return cls(n_queries, per_query_seconds=policy.budget_seconds)
        if isinstance(policy, FixedDelta):
            # A fixed delta indexes `delta` of the phase work per query; one
            # unit of phase work costs on the order of one scan, so the
            # pooled equivalent is `delta` of the scan cost per query.
            return cls(n_queries, scan_fraction=policy.delta)
        tau = getattr(policy, "interactivity_budget", None)
        if tau is not None:
            return cls(n_queries, interactivity_budget=tau)
        return cls(n_queries, scan_fraction=getattr(policy, "scan_fraction", None))

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

    def choose(self, request: DeltaRequest) -> float:
        if self.pool_seconds is None:
            raise InvalidBudgetError(
                "BatchPool with scan_fraction requires register_scan_time() "
                "before the first delta decision"
            )
        full_work_time = request.full_work_time
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
            return f"BatchPool(n_queries={self.n_queries}, pool={self.pool_seconds:.6f}s)"
        if self.interactivity_budget is not None:
            return f"BatchPool(n_queries={self.n_queries}, tau={self.interactivity_budget:.6f}s)"
        return f"BatchPool(n_queries={self.n_queries}, scan_fraction={self.scan_fraction})"


class PooledBudgetController:
    """Splits one interactivity budget τ across the shards a query touches.

    Handing each of a logical query's per-shard queries the full τ would
    multiply its latency by the number of touched shards.  Instead
    ``lanes = min(parallelism, touched)`` shards run concurrently, each lane
    serving ``touched / lanes`` shards back to back, so the per-shard
    target is ``τ_s = τ * lanes / touched`` (``τ / touched`` serially).
    Shards the zone-map router prunes are not touched, so they donate their
    slice to the survivors.

    Per shard the target is enforced by capping the shard index's
    controller for that one query (:meth:`BudgetController.capped`) at the
    slack ``max(0, τ_s - predicted_base_cost)`` — the shard policy keeps
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
        self.interactivity_budget = _number(
            "interactivity_budget", interactivity_budget, _POSITIVE, optional=True
        )
        self.n_shards = int(_number("n_shards", n_shards, 1.0, 2.0**63))
        self.parallelism = int(_number("parallelism", parallelism, 1.0, 2.0**63))
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
        tau = "uncapped" if self.interactivity_budget is None else (
            f"tau={self.interactivity_budget:.6f}s"
        )
        return f"PooledBudget({tau}, shards={self.n_shards}, parallelism={self.parallelism})"


class BudgetCap:
    """An admission cap on every decision of one call.

    Held by the controller while a :meth:`BudgetController.capped` block
    runs: each decision clamps the policy's answer so the predicted indexing
    work ``delta * full_work_time`` stays within :attr:`allowance_seconds`,
    and adds the grant to :attr:`granted_seconds`.  The policy still chooses
    freely (adaptive policies keep learning from an undistorted stream).
    """

    __slots__ = ("allowance_seconds", "granted_seconds", "_controller")

    def __init__(self, controller: "BudgetController", allowance_seconds: float) -> None:
        self.allowance_seconds = float(_number("allowance_seconds", allowance_seconds))
        #: Predicted indexing seconds granted under this cap so far.
        self.granted_seconds = 0.0
        self._controller = controller

    def __enter__(self) -> "BudgetCap":
        if self._controller._cap is not None:
            raise InvalidBudgetError("the budget controller is already capped")
        self._controller._cap = self
        return self

    def __exit__(self, *exc) -> None:
        self._controller._cap = None

    def grant(self, delta: float, full_work_time: float) -> float:
        """``delta`` clamped to the allowance; the grant is accounted."""
        if full_work_time > 0.0 and self.allowance_seconds < math.inf:
            delta = min(delta, self.allowance_seconds / full_work_time)
        delta = max(0.0, min(1.0, delta))
        self.granted_seconds += delta * max(full_work_time, 0.0)
        return delta


class BudgetController:
    """The single decision point every budget question routes through.

    One controller is attached to every index.  Every engine path — single
    queries, ``where()`` driving queries, batches, delta merges and the
    future-work extensions — ends in :meth:`decide`, which asks the installed
    :class:`BudgetPolicy` with the full :class:`DeltaRequest`, applies the
    call's admission cap if one is held, and clamps the answer to the
    feasible range.  Measured durations flow back through
    :meth:`query_finished`.

    Parameters
    ----------
    policy:
        The initially installed budget policy.
    """

    def __init__(self, policy: BudgetPolicy) -> None:
        self._policy: BudgetPolicy | None = None
        self._scan_time: float | None = None
        self._cap: BudgetCap | None = None
        self.swap_policy(policy)

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
            raise InvalidBudgetError(f"expected a BudgetPolicy, got {type(policy).__name__}")
        previous = self._policy
        self._policy = policy
        if self._scan_time is not None:
            policy.register_scan_time(self._scan_time)
        return previous

    def register_scan_time(self, scan_time: float) -> None:
        """Resolve fraction-based policies against the predicted scan time."""
        self._scan_time = float(scan_time)
        self._policy.register_scan_time(self._scan_time)

    def capped(self, allowance_seconds: float) -> BudgetCap:
        """An admission cap for one call: ``with controller.capped(a) as cap:``.

        Each decision in the block grants at most ``allowance_seconds`` of
        predicted indexing work (``float("inf")`` only counts) and
        ``cap.granted_seconds`` adds the grants up.  The cap is released when
        the block exits, by an exception too; the policy stays installed.
        """
        return BudgetCap(self, allowance_seconds)

    # ------------------------------------------------------------------
    def decide(self, request: DeltaRequest) -> DeltaDecision:
        """Choose the indexing fraction for one query.

        The policy's raw answer is capped by the call's admission cap, then
        clamped to ``[0, request.max_delta]`` — both *after* the policy call,
        preserving pooled-reservoir accounting (a pool spends what it
        chose, not what the phase could absorb) and charging a cap what it
        granted.
        """
        delta = float(self._policy.choose(request))
        if self._cap is not None:
            delta = self._cap.grant(delta, request.full_work_time)
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


# ----------------------------------------------------------------------
# Persistence (checkpointing)
# ----------------------------------------------------------------------
#: The state codec, one row per policy type: the class; the persisted keys,
#: in payload order; the constructor arguments (of an either-or group
#: ``a|b``, the first one with a value); and the dynamic fields, set on the
#: constructed policy.  A key that is missing or ``None`` keeps the
#: constructor's value.
_CODEC = {
    "FixedDelta": (FixedDelta, "delta", "delta", ""),
    "FixedTime": (FixedTime, "budget_seconds resolved_delta", "budget_seconds", "resolved_delta"),
    "TimeAdaptive": (
        TimeAdaptive,
        "budget_seconds scan_fraction minimum_delta target_query_cost correction",
        "scan_fraction|budget_seconds minimum_delta",
        "budget_seconds target_query_cost correction",
    ),
    "CostModelGreedy": (
        CostModelGreedy,
        "interactivity_budget scan_fraction minimum_delta smoothing correction_range corrections",
        "interactivity_budget|scan_fraction minimum_delta smoothing correction_range",
        "scan_fraction corrections",
    ),
    "BatchPool": (
        BatchPool,
        "n_queries scan_fraction interactivity_budget pool_seconds spent_seconds",
        "n_queries scan_fraction interactivity_budget",
        "pool_seconds spent_seconds",
    ),
}

#: Persisted keys held in an attribute of another name.
_ATTRIBUTES = {"resolved_delta": "_delta", "corrections": "_corrections"}

#: Range of a dynamic field; the others are in ``[0, inf]``.
_RANGES = {
    "resolved_delta": (0.0, 1.0),
    "correction": TimeAdaptive.CORRECTION_RANGE,
    "scan_fraction": (_POSITIVE, math.inf),
}


def _encode(key: str, value):
    if key == "correction_range":
        return list(value)
    if key == "corrections":
        return {
            str(getattr(phase, "value", None) or "__none__"): float(ratio)
            for phase, ratio in value.items()
        }
    return value


def _decode(kind: str, key: str, value):
    """A dynamic field's stored value, checked; per-phase corrections are
    keyed by phase value (``"__none__"`` for decisions outside a phase)."""
    if key != "corrections":
        return _number(f"{kind} state {key}", value, *_RANGES.get(key, (0.0, math.inf)))
    if not isinstance(value, dict):
        raise InvalidBudgetError(f"{kind} state corrections must be a mapping, got {value!r}")
    phases = {phase.value: phase for phase in IndexPhase}
    phases["__none__"] = None
    unknown = [name for name in value if name not in phases]
    if unknown:
        raise InvalidBudgetError(f"{kind} state corrections name unknown phases {unknown!r}")
    return {
        phases[name]: _number(f"{kind} correction of {name}", ratio, _POSITIVE)
        for name, ratio in value.items()
    }


def policy_state_dict(policy: BudgetPolicy) -> dict:
    """Serializable snapshot of a budget policy (configuration + dynamics).

    Clocks are process-local callables and are not persisted: a restored
    policy wakes up without wall-clock feedback until the caller re-injects
    one.  The learned corrections *are* persisted, so a restarted adaptive
    policy resumes from its calibrated state rather than from scratch.
    """
    for kind, (cls, keys, _, _) in _CODEC.items():
        if isinstance(policy, cls):
            state = {"type": kind}
            for key in keys.split():
                state[key] = _encode(key, getattr(policy, _ATTRIBUTES.get(key, key)))
            return state
    raise InvalidBudgetError(
        f"cannot checkpoint budget policy of type {type(policy).__name__}"
    )


def policy_from_state(state: dict) -> BudgetPolicy:
    """Rebuild a budget policy from :func:`policy_state_dict` output.

    The constructor validates the arguments and :func:`_decode` checks the
    dynamic fields, so a malformed state — an unknown type, a value of the wrong
    type or range, a missing required argument — raises
    :class:`~repro.errors.InvalidBudgetError`.
    """
    kind = state.get("type") if isinstance(state, dict) else None
    if not isinstance(kind, str) or kind not in _CODEC:
        raise InvalidBudgetError(f"unknown budget-policy state type {kind!r}")
    cls, _, arguments, dynamic = _CODEC[kind]
    passed = {}
    for argument in arguments.split():
        names = [name for name in argument.split("|") if state.get(name) is not None]
        if names:
            passed[names[0]] = state[names[0]]
    try:
        policy = cls(**passed)
    except TypeError as exc:  # a required argument is missing
        raise InvalidBudgetError(f"{kind} state is incomplete: {exc}") from None
    for key in dynamic.split():
        if state.get(key) is not None:
            setattr(policy, _ATTRIBUTES.get(key, key), _decode(kind, key, state[key]))
    return policy


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

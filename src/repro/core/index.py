"""Common interface implemented by every index in the library.

The benchmark harness, the execution engine, and the examples only rely on
this interface, so progressive indexes, adaptive (cracking) indexes and the
full-scan / full-index baselines are interchangeable:

* :meth:`BaseIndex.query` answers a predicate and, as a side effect, performs
  whatever indexing work the algorithm's budget policy allows.
* :attr:`BaseIndex.phase` exposes the life-cycle phase, driven by the shared
  :class:`~repro.core.phase.IndexLifecycle` (baselines report ``CONVERGED``
  or ``INACTIVE`` as appropriate).
* :attr:`BaseIndex.last_stats` exposes per-query bookkeeping (predicted cost,
  delta used, phase) consumed by the cost-model-validation experiments.
* Once an index is ``CONVERGED`` and no merge is due, :meth:`BaseIndex.query`
  is one read of the sorted leaf (:class:`~repro.core.query.SortedLeaf`) —
  plus, with writes pending, the same read of the two sorted side buffers and
  a mask over the small raw window — and its counters; the bookkeeping above
  is materialised only when asked for.

Every budget decision flows through the index's
:class:`~repro.core.policy.BudgetController`: the per-phase execute methods
describe the query's cost as a function of ``delta`` (via
:meth:`BaseIndex.predicted_cost`) and the controller asks the installed
:class:`~repro.core.policy.BudgetPolicy` — fixed, time-adaptive,
cost-model-greedy, or a pooled batch reservoir — for the fraction of the
remaining phase work this query should perform.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

import numpy as np

from repro import obs

from repro.core.calibration import CostConstants
from repro.core.cost_model import CostBreakdown, CostModel
from repro.core.overlay import DeltaOverlay
from repro.core.phase import IndexLifecycle, IndexPhase
from repro.core.policy import (
    BudgetController,
    BudgetPolicy,
    DeltaDecision,
    DeltaRequest,
    FixedDelta,
    policy_from_state,
    policy_state_dict,
)
from repro.core.query import Predicate, QueryResult, SortedLeaf
from repro.errors import PAYLOAD_ERRORS, IndexStateError
from repro.storage.column import Column, ColumnSnapshot
from repro.storage.lazy import ChainArray, is_lazy


def _snapshot_is_compressed(snapshot) -> bool:
    """Whether the snapshot reads through a compressed paged base.

    A raw ``np.memmap`` base decompresses nothing (the page cache serves
    it directly), so only paged views of v2 compressed files — alone or as
    a part of a chained snapshot — carry the decompression surcharge.
    """
    data = getattr(snapshot, "_data", None)
    if data is None or not is_lazy(data):
        return False
    parts = data.parts if isinstance(data, ChainArray) else (data,)
    return any(hasattr(part, "reader") for part in parts)


#: Stable tracer singleton; hot paths read one attribute (``.enabled``)
#: per query when the detailed trace mode is off.
_TR = obs.tracer()

#: Duration-sampling period for converged steady-state reads.  While an
#: index is under construction every query is timed (the budgeted work
#: dwarfs the timer), but once converged a query is a bare structure probe
#: and two clock reads plus a histogram observe would be the largest
#: non-essential cost on the hottest path — so only every Nth converged
#: read is timed.  Query *counts* stay exact: they come from the
#: ``index.queries`` pull series, not from histogram totals.
_OBS_SAMPLE_EVERY = 7


@dataclass
class QueryStats:
    """Bookkeeping recorded by an index for a single query.

    Attributes
    ----------
    query_number:
        1-based sequence number of the query against this index.
    phase:
        Phase the index was in when the query arrived.
    delta:
        Fraction of (remaining phase) work performed during this query;
        ``0`` for baselines and converged indexes.
    predicted_cost:
        Cost-model prediction for the query in seconds (``None`` when the
        algorithm has no cost model, e.g. cracking baselines).
    predicted_breakdown:
        The full scan/lookup/indexing split of the prediction, when the
        decision was made from a per-phase cost function.
    elements_indexed:
        Number of elements moved / refined / copied by the indexing work.
    """

    query_number: int = 0
    phase: IndexPhase = IndexPhase.INACTIVE
    delta: float = 0.0
    predicted_cost: float | None = None
    predicted_breakdown: CostBreakdown | None = None
    elements_indexed: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def indexing_seconds(self) -> float:
        """Predicted budgeted work this query spent (``0`` if unknown).

        Construction *and* delta-merge budget: both are paid out of the
        same per-query indexing allowance.
        """
        if self.predicted_breakdown is None:
            return 0.0
        return self.predicted_breakdown.maintenance


class BaseIndex(DeltaOverlay, abc.ABC):
    """Abstract base class of all indexes.

    Every index builds its structures against an immutable
    :class:`~repro.storage.column.ColumnSnapshot` pinned at construction
    time (``self._column`` — subclasses never see mutable state), while the
    live mutable :class:`~repro.storage.column.Column` is tracked by the
    shared :class:`~repro.core.overlay.DeltaOverlay` mixin: every
    :meth:`query` and :meth:`search_many` answer is corrected with the
    delta-store writes the structures have not absorbed yet, and converged
    foldable families progressively merge those writes in under the same
    budget policies that paced construction.

    Parameters
    ----------
    column:
        The column to index: a live :class:`~repro.storage.column.Column`
        (mutable behavior via the delta overlay), a frozen
        :class:`~repro.storage.column.ColumnSnapshot` (immutable), or raw
        array-like data (wrapped into a live column).
    budget:
        Budget policy; defaults to a fixed ``delta = 0.1``.  Baselines
        ignore the budget.
    constants:
        Machine constants for the cost model; defaults to the deterministic
        simulated constants.
    """

    #: Short, unique identifier used in reports (e.g. ``"PQ"``, ``"STD"``).
    name: str = "base"
    #: Longer human-readable description.
    description: str = ""
    #: Whether the batch executor should call :meth:`search_many` right away
    #: instead of first driving per-query progressive work.  True for
    #: algorithms whose batched answering already performs (or needs) no
    #: budgeted refinement: cracking variants and the non-adaptive baselines.
    eager_batch: bool = False
    #: Whether a *converged* instance's structural batch lookups
    #: (:meth:`_search_many`) are safe to run from concurrent reader threads
    #: without serialization.  True for families whose converged read path
    #: only consults frozen structures plus idempotent caches (progressive
    #: sort families, the full-scan/full-index baselines); False for
    #: families that reorganise data *on every read* (cracking), which the
    #: serving scheduler always routes through the exclusive work lane.
    concurrent_reads: bool = False

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
    ) -> None:
        if isinstance(column, ColumnSnapshot):
            live = None
            snapshot = column
        else:
            if not isinstance(column, Column):
                column = Column(column)
            live = column
            snapshot = column.snapshot()
        #: The pinned snapshot all structural reads go through.  Subclasses
        #: use ``self._column`` exactly as they did when columns were
        #: immutable; writes after the pin are the overlay's concern.
        self._column = snapshot
        self._controller = BudgetController(budget or FixedDelta(0.1))
        self._cost_model = CostModel(constants)
        self._lifecycle = IndexLifecycle()
        self._queries_executed = 0
        self.last_stats = QueryStats()
        #: The sorted structural base once the family owns one (converged
        #: progressive indexes, the built full index): what
        #: :meth:`_search_one` and :meth:`_search_many` read.
        self._leaf: SortedLeaf | None = None
        #: Match count of the last steady-state read (see :attr:`last_stats`).
        self._steady_count = 0
        # Paged compressed bases add a per-element decode cost on every
        # scan; expressed as a fraction of the scan-time constant so one
        # wrap point (_decide / predict_cost) prices it into every family's
        # phase formula without touching the formulas themselves.
        constants_eff = self._cost_model.constants
        if _snapshot_is_compressed(snapshot):
            self._decompress_ratio = self._cost_model.decompress_time(
                constants_eff.gamma
            ) / constants_eff.omega
        else:
            self._decompress_ratio = 0.0
        # Observability: one duration histogram and one actual/predicted
        # ratio histogram per algorithm, shared across instances via the
        # registry's idempotent lookup.  A disabled registry hands back a
        # falsy no-op, which the query hot path uses to skip its timers.
        registry = obs.metrics()
        self._obs_query_seconds = registry.histogram(
            "index.query.seconds",
            help=(
                "End-to-end index.query() latency including budgeted work "
                "(converged steady-state reads sampled 1:%d)" % _OBS_SAMPLE_EVERY
            ),
            algorithm=self.name,
        )
        self._obs_sample_tick = 1
        self._obs_tau_ratio = registry.histogram(
            "index.tau.ratio",
            help="Actual / predicted query cost (tau-miss debugging)",
            edges=obs.RATIO_EDGES,
            algorithm=self.name,
        )
        self._init_overlay(live, snapshot)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def column(self) -> Column:
        """The column this index answers queries for.

        The live mutable column when the index was created from one, else
        the frozen snapshot it was pinned to.
        """
        return self._live if self._live is not None else self._column

    @property
    def base(self) -> ColumnSnapshot:
        """The pinned snapshot the index structures were built against."""
        return self._column

    @property
    def budget(self) -> BudgetPolicy:
        """The budget policy currently installed in the controller."""
        return self._controller.policy

    @property
    def controller(self) -> BudgetController:
        """The budget controller every delta decision routes through."""
        return self._controller

    @property
    def lifecycle(self) -> IndexLifecycle:
        """The shared phase-transition driver (history and per-phase stats)."""
        return self._lifecycle

    def swap_budget(self, budget: BudgetPolicy) -> BudgetPolicy:
        """Install ``budget`` and return the previously installed policy.

        The batch executor uses this to temporarily replace a per-query
        policy with a pooled :class:`~repro.core.policy.BatchPool` for the
        duration of one batch, restoring the original afterwards.
        """
        if not isinstance(budget, BudgetPolicy):
            raise IndexStateError(
                f"swap_budget() expects a BudgetPolicy, got {type(budget).__name__}"
            )
        return self._controller.swap_policy(budget)

    @property
    def cost_model(self) -> CostModel:
        """The cost model parameterised with this index's constants."""
        return self._cost_model

    @property
    def queries_executed(self) -> int:
        """Number of queries answered so far."""
        return self._queries_executed

    @property
    def phase(self) -> IndexPhase:
        """Current life-cycle phase."""
        return self._lifecycle.phase

    @property
    def converged(self) -> bool:
        """Whether the index is fully built (no further indexing work)."""
        return self.phase is IndexPhase.CONVERGED

    @property
    def last_stats(self) -> QueryStats:
        """Bookkeeping of the most recent query.

        A steady-state converged read records only its match count; its
        stats (``phase=CONVERGED``, ``delta=0``, the cost model's prediction
        for that count) are built here, on first access.
        """
        stats = self._last_stats
        if stats is None:
            breakdown = self._converged_count_cost(self._steady_count)
            stats = self._last_stats = QueryStats(
                query_number=self._queries_executed,
                phase=IndexPhase.CONVERGED,
                predicted_cost=breakdown.total,
                predicted_breakdown=breakdown,
            )
        return stats

    @last_stats.setter
    def last_stats(self, stats: QueryStats) -> None:
        self._last_stats = stats

    def query(self, predicate: Predicate) -> QueryResult:
        """Answer ``predicate``, spending at most the budgeted indexing time.

        Returns the exact aggregate over the column's *currently visible*
        rows regardless of how much of the index has been built: the
        structural answer over the pinned snapshot is corrected with the
        pending delta-store writes, and — for converged foldable indexes —
        part of the budget is spent progressively merging those writes in
        (the ``MERGE`` life-cycle stage).
        """
        if not isinstance(predicate, Predicate):
            raise IndexStateError(
                f"query() expects a Predicate, got {type(predicate).__name__}"
            )
        leaf = self._leaf
        if (
            leaf is not None
            and self._lifecycle.phase is IndexPhase.CONVERGED
            and not _TR.enabled
        ):
            live = self._live
            pending = 0 if live is None else live.version - self._folded_seq
            # The trigger is never below the absorb threshold, so the clean
            # read (pending == 0) decides on this one compare.
            if pending < self.ABSORB_THRESHOLD or not self._merge_due(pending):
                return self._steady_query(leaf, predicate, pending)
        predicate = predicate.in_python()
        hist = self._obs_query_seconds
        tracing = _TR.enabled
        t0 = 0.0
        if tracing or (hist and self._lifecycle.phase is not IndexPhase.CONVERGED):
            t0 = perf_counter()
        elif hist:
            tick = self._obs_sample_tick - 1
            if tick <= 0:
                self._obs_sample_tick = _OBS_SAMPLE_EVERY
                t0 = perf_counter()
            else:
                self._obs_sample_tick = tick
        qspan = None
        if tracing:
            qspan = _TR.start("index.query", {
                "column": getattr(self._column, "name", None),
                "algorithm": self.name,
            })
        try:
            self._queries_executed += 1
            self.last_stats = QueryStats(
                query_number=self._queries_executed, phase=self.phase
            )
            started = self._controller.query_started()
            espan = _TR.start("phase.execute") if tracing else None
            result = self._execute(predicate)
            if espan is not None:
                arrival = self.last_stats.phase
                ran = self.phase if arrival is IndexPhase.INACTIVE else arrival
                espan.rename(f"phase.{ran.value}").set(
                    delta=self.last_stats.delta,
                    elements_indexed=self.last_stats.elements_indexed,
                ).end()
            if self.pending_delta_rows():
                cspan = None
                if tracing:
                    state = self._pending
                    cspan = _TR.start("overlay.correct", {
                        "buffer_rows": int(state.ins_leaf.values.size + state.del_leaf.values.size),
                        "raw_rows": self._raw_rows(),
                    })
                result = QueryResult(*self._overlay_correct_one(
                    predicate.low, predicate.high, result.value_sum, result.count
                ))
                if cspan is not None:
                    cspan.end()
                # Maintenance runs strictly after the correction: a fold
                # changes the watermark the *next* query's correction is
                # computed from.
                mspan = _TR.start("overlay.merge") if tracing else None
                self._merge_maintenance(predicate)
                if mspan is not None:
                    mspan.end()
            self._controller.query_finished(started, self.last_stats.predicted_cost)
            self._lifecycle.note_query(
                self.last_stats.phase, self.last_stats.indexing_seconds
            )
        finally:
            if qspan is not None:
                stats = self.last_stats
                qspan.set(
                    phase=stats.phase.value,
                    delta=stats.delta,
                    predicted_cost=stats.predicted_cost,
                    query_number=stats.query_number,
                ).end()
        if hist and t0:
            elapsed = perf_counter() - t0
            hist.observe(elapsed)
            stats = self.last_stats
            # The tau ratio tracks the cost model's prediction error while
            # the model is steering construction; converged steady-state
            # reads make no delta decision, so charging them an extra
            # observe would only tax the hottest path.
            if stats.predicted_cost and stats.phase is not IndexPhase.CONVERGED:
                self._obs_tau_ratio.observe(elapsed / stats.predicted_cost)
        return result

    def _steady_query(self, leaf: SortedLeaf, predicate: Predicate, pending: int) -> QueryResult:
        """A converged read with no merge due and tracing off.

        The same leaf read :meth:`_execute` performs once converged — with
        ``pending`` writes, corrected by the same overlay read the general
        path uses, then the threshold absorb — minus everything nobody reads
        in the steady state: no :class:`QueryStats`, no cost prediction, no
        budget-controller clock.  The counters stay exact and the duration
        histogram keeps its 1:N sampling.
        """
        hist = self._obs_query_seconds
        t0 = 0.0
        if hist:
            tick = self._obs_sample_tick - 1
            if tick <= 0:
                self._obs_sample_tick = _OBS_SAMPLE_EVERY
                t0 = perf_counter()
            else:
                self._obs_sample_tick = tick
        self._queries_executed += 1
        low, high = predicate.low, predicate.high
        value_sum, count = leaf.range_one(low, high)
        self._lifecycle.note_query(IndexPhase.CONVERGED)
        self._last_stats = None
        self._steady_count = count
        if pending:
            value_sum, count = self._overlay_correct_one(low, high, value_sum, count)
            self._absorb_if_due()
        if t0:
            hist.observe(perf_counter() - t0)
        return QueryResult(value_sum, count)

    def search_many(self, lows, highs):
        """Answer a batch of range predicates with vectorized lookups.

        Parameters
        ----------
        lows, highs:
            Parallel arrays of inclusive bounds, one entry per query.

        Returns
        -------
        tuple or None
            ``(sums, counts)`` arrays aligned with the input bounds, or
            ``None`` when the index cannot (yet) answer batches vectorized —
            e.g. a progressive index that is still mid-construction.  Callers
            fall back to per-query :meth:`query` dispatch on ``None``.

        Notes
        -----
        Unlike :meth:`query`, batched answering performs no budgeted
        progressive refinement and does not advance ``queries_executed``;
        the batch executor accounts for the batch as one bulk operation.
        The structural batch answer (:meth:`_search_many`) is corrected for
        pending delta-store writes before being returned.
        """
        answered = self._search_many(lows, highs)
        if answered is None:
            return None
        return self._overlay_correct_many(lows, highs, answered)

    def _search_many(self, lows, highs):
        """Family-specific vectorized batch answering over the snapshot.

        The default answers from the sorted leaf once the family owns one
        and cannot answer batches before; subclasses override this (never
        the public :meth:`search_many`, which owns the delta correction).
        """
        leaf = self._leaf
        return None if leaf is None else leaf.range_many(lows, highs)

    def _search_one(self, low, high):
        """Scalar twin of :meth:`_search_many`: ``(value_sum, count)`` over
        the structural base, or ``None`` while there is no sorted leaf."""
        leaf = self._leaf
        return None if leaf is None else leaf.range_one(low, high)

    def read_absorbed(self, lows, highs):
        """Structural base plus side buffers: ``(answer, absorbed_seq)``.

        The answer — ``(sums, counts)`` arrays for array bounds,
        ``(value_sum, count)`` for scalars — is exact at the returned
        watermark and built from one published
        :class:`~repro.core.overlay.PendingState`, so a reader thread may
        call it while another thread absorbs.  ``None`` when the family has
        no vectorized answer yet, or rows sit in sealed runs (those are read
        under the work lane).
        """
        # The state before the runs: sealing appends the run, then publishes
        # the emptied buffers, so an emptied state is never seen without it.
        state = self._pending
        if self._run_ins is not None and self._spilled_rows():
            return None
        # Nothing absorbed since the fold means empty buffers: the clean read
        # decides on one compare.
        buffered = state.absorbed_seq != self._folded_seq
        if isinstance(lows, np.ndarray):
            answered = self._search_many(lows, highs)
            if buffered and answered is not None:
                answered = state.correct_many(lows, highs, *answered)
        else:
            answered = self._search_one(lows, highs)
            if buffered and answered is not None:
                value_sum, count = state.correct_one(lows, highs, *answered)
                answered = state.ins_leaf.wrap(value_sum), count
        if answered is None:
            return None
        return answered, state.absorbed_seq

    def _fold_base_size(self) -> int:
        """The sorted leaf's size once there is one (a fold grows it)."""
        return len(self._column) if self._leaf is None else int(self._leaf.values.size)

    def _converged_count_cost(self, match_count: int) -> CostBreakdown:
        """Predicted cost of a sorted-leaf read matching ``match_count`` rows:
        a binary search over the column plus a scan of the matches."""
        return CostBreakdown(
            scan=self._cost_model.scan_time(match_count),
            lookup=self._cost_model.binary_search_time(len(self._column)),
            indexing=0.0,
        )

    def _execute_converged(self, predicate: Predicate) -> QueryResult:
        """The leaf read with its stats recorded: what :meth:`_execute` runs
        once the family is converged (or merging) over a sorted leaf."""
        value_sum, count = self._leaf.range_one(predicate.low, predicate.high)
        # The answer is in hand, so the recorded stats use the exact count.
        breakdown = self._converged_count_cost(count)
        self.last_stats.predicted_breakdown = breakdown
        self.last_stats.predicted_cost = breakdown.total
        return QueryResult(value_sum, count)

    def predicted_cost(self, predicate: Predicate, delta: float = 0.0) -> CostBreakdown | None:
        """Cost-model prediction for ``predicate`` at indexing fraction ``delta``.

        Progressive indexes answer with their current phase's formula from
        Section 3 of the paper; the default returns ``None`` for algorithms
        without a per-phase cost model (e.g. cracking baselines).  The
        prediction is side-effect free — no indexing work is performed.
        """
        return None

    def predict_cost(self, predicate: Predicate) -> float | None:
        """Total predicted time of the next query without indexing work.

        For paged compressed bases the scan share carries its decompression
        surcharge, so the serving scheduler's tau admission sees the real
        out-of-core cost.
        """
        breakdown = self._price_decompression(self.predicted_cost(predicate, 0.0))
        return None if breakdown is None else breakdown.total

    def _price_decompression(self, breakdown: CostBreakdown | None) -> CostBreakdown | None:
        """Add the paged-base decode surcharge to a prediction's scan share."""
        if breakdown is None or self._decompress_ratio == 0.0:
            return breakdown
        return replace(breakdown, decompress=breakdown.scan * self._decompress_ratio)

    def memory_footprint(self) -> int:
        """Approximate additional memory used by the index, in bytes.

        The default accounts for nothing; concrete indexes override it.
        """
        return 0

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        return f"{self.name}: {self.description or type(self).__name__}"

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    #: Version of the ``state_dict`` layout, the only one :meth:`load_state` reads.
    STATE_FORMAT = 2

    def state_dict(self) -> dict:
        """Serializable snapshot of the index: phase, budget and structures.

        The returned tree contains only JSON-able scalars and NumPy arrays
        (see :func:`repro.persist.pager.encode_state`), never live objects,
        so a checkpoint can be written and read without pickle.  Loading it
        into a freshly constructed index over the same column
        (:meth:`load_state`) resumes construction exactly where it stood:
        the life-cycle phase, the budget policy's learned corrections, the
        delta-overlay buffers and the family-specific structures all
        survive, so a restarted index never falls back to the RAW phase.
        """
        return {
            "format": self.STATE_FORMAT,
            "algorithm": self.name,
            "class": type(self).__name__,
            "queries_executed": int(self._queries_executed),
            "lifecycle": self._lifecycle.state_dict(),
            "policy": policy_state_dict(self._controller.policy),
            "scan_time": self._controller._scan_time,
            "overlay": self._overlay_state(),
            "family": self._family_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this (fresh) index.

        The index must have been constructed over the same logical column
        the state was captured from; the pinned snapshot is re-taken at the
        checkpointed version, so structures and overlay watermarks agree
        even when the live column has newer (WAL-replayed) writes on top.
        Only the current :attr:`STATE_FORMAT` loads.
        """
        if state.get("format") != self.STATE_FORMAT:
            raise IndexStateError(f"index state format {state.get('format')!r}, expected {self.STATE_FORMAT}")
        if state.get("algorithm") != self.name:
            raise IndexStateError(
                f"checkpoint state belongs to algorithm {state.get('algorithm')!r}, "
                f"cannot load into {self.name!r}"
            )
        overlay = state.get("overlay", {})
        self._column = self._pinned_column(state)
        try:
            self._queries_executed = int(state["queries_executed"])
            self._lifecycle.load_state(state["lifecycle"])
            self._controller = BudgetController(policy_from_state(state["policy"]))
            scan_time = state.get("scan_time")
            if scan_time is not None:
                self._controller.register_scan_time(float(scan_time))
            self._load_overlay_state(overlay)
            self._load_family_state(state["family"])
        except PAYLOAD_ERRORS as error:
            raise IndexStateError(f"damaged {self.name} payload: {error!r}") from error
        self.last_stats = QueryStats()

    def _pinned_column(self, state: dict):
        """The snapshot ``state``'s structures were built over."""
        version = int(state.get("overlay", {}).get("snapshot_version", 0))
        if self._live is not None and version != self._column.version:
            return self._live.snapshot(version)
        return self._column

    def _checked_leaf(self, values: np.ndarray) -> np.ndarray:
        """A checkpointed sorted leaf: of the column's dtype and, with no
        write folded in since the pinned snapshot, of its length."""
        if values.ndim != 1 or values.dtype != self._column.dtype or (
                self._folded_seq == self._column.version and values.size != len(self._column)):
            raise IndexStateError(f"the {self.name} sorted leaf does not match the column")
        return values

    def _family_state(self) -> dict:
        """Family-specific structure payload; default has none (FullScan)."""
        return {}

    def _load_family_state(self, state: dict) -> None:
        """Restore the family-specific payload; default no-op."""

    # ------------------------------------------------------------------
    # Implementation hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _execute(self, predicate: Predicate) -> QueryResult:
        """Answer the predicate and perform budgeted indexing work."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _advance_phase(self, phase: IndexPhase) -> None:
        """Move the lifecycle to ``phase``, stamped with the current query."""
        self._lifecycle.advance(phase, self._queries_executed)

    def _register_scan_time(self) -> None:
        """Resolve fraction-based budget policies against the scan cost."""
        self._controller.register_scan_time(
            self._cost_model.scan_time(len(self._column))
            * (1.0 + self._decompress_ratio)
        )

    def _decide(
        self,
        full_work_time: float,
        predict: Callable[[float], CostBreakdown],
        max_delta: float = 1.0,
    ) -> DeltaDecision:
        """Route one delta decision through the budget controller.

        ``predict`` is the current phase's cost formula as a function of
        ``delta``; its ``delta = 0`` evaluation is the query's base cost.
        The chosen delta and the prediction at that delta are recorded in
        :attr:`last_stats`.
        """
        if self._decompress_ratio:
            family_predict = predict

            def predict(delta: float) -> CostBreakdown:  # noqa: F811
                return self._price_decompression(family_predict(delta))

        request = DeltaRequest(
            full_work_time=full_work_time,
            base_cost=predict(0.0),
            predict=predict,
            max_delta=max_delta,
            n_elements=len(self._column),
            phase=self.phase,
        )
        decision = self._controller.decide(request)
        self.last_stats.delta = decision.delta
        self.last_stats.predicted_breakdown = decision.predicted
        self.last_stats.predicted_cost = decision.predicted_seconds
        if _TR.enabled:
            span = _TR.current()
            if span is not None:
                predicted = decision.predicted
                span.add_decision({
                    "phase": self.phase.value,
                    "delta": decision.delta,
                    "predicted_seconds": decision.predicted_seconds,
                    "breakdown": None if predicted is None else {
                        "scan": predicted.scan,
                        "lookup": predicted.lookup,
                        "indexing": predicted.indexing,
                        "merge": predicted.merge,
                        "decompress": predicted.decompress,
                        "total": predicted.total,
                    },
                })
        return decision

    def _scan_column(self, predicate: Predicate, start: int = 0, stop: int | None = None) -> QueryResult:
        """Predicated scan of (part of) the base column."""
        value_sum, count = self._column.scan_range(
            predicate.low, predicate.high, start=start, stop=stop
        )
        return QueryResult(value_sum, count)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(name={self.name!r}, phase={self.phase.value!r}, "
            f"queries={self._queries_executed})"
        )

"""Delta overlay: correct index answers over base ∪ delta and merge on budget.

The mutable column substrate (:mod:`repro.storage.column`) never pauses to
rebuild: writes land in an append-only delta store while every index keeps
answering from the structures it built over a pinned snapshot.
:class:`DeltaOverlay` is the shared mixin that makes *every* index family —
the four progressive indexes, all five cracking variants, both baselines and
the extensions — correct and fast under that regime without per-algorithm
rewrites:

1. **Correction.**  Each query's structural answer is corrected with the
   writes the structure has not absorbed yet:
   ``answer = structure + Σ inserted − Σ deleted`` over the matching delta
   rows.  The correction is two-tiered: writes the overlay has *absorbed*
   live in sorted side buffers (answered with ``np.searchsorted`` plus
   prefix sums, O(log d) per query no matter how many writes accumulate),
   and the newest raw window is scanned predicated (kept small by tier-1
   absorption).  Aggregate queries make equal values interchangeable, so
   tombstones carry values, not positions.

2. **Budget-priced merge.**  Absorbing and folding delta rows into the index
   is priced through the same :class:`~repro.core.policy.BudgetController`
   that paces construction: a converged index with pending writes enters the
   ``MERGE`` life-cycle stage, each query's policy decision grants a
   fraction of the predicted full merge cost (the ``merge`` component of the
   :class:`~repro.core.cost_model.CostBreakdown`), and the granted credit
   accumulates until it covers the family-specific *fold* — rebuilding the
   sorted leaf / B+-tree cascade with the buffered rows merged in — after
   which the lifecycle returns to ``CONVERGED``.  Families without a
   cheap fold (cracking keeps refining forever) simply keep the sorted
   buffers: correctness is identical, queries stay logarithmic in the
   buffered delta, and no budget is spent on unpayable work.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.cost_model import CostBreakdown
from repro.core.phase import IndexPhase
from repro.core.query import Predicate, QueryResult, search_sorted_many
from repro.storage.delta import SortedRunStore
from repro.storage.membudget import budget_of


def _merge_into_sorted(sorted_buffer: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Merge an unsorted chunk into a sorted buffer in one linear pass.

    Sorting only the (small, threshold-bounded) chunk and splicing it in
    with ``searchsorted`` + ``np.insert`` keeps each absorption linear in
    the buffer size — re-sorting the whole accumulated buffer would make
    the never-folding families (cracking, FullScan) pay a growing sort on
    every absorption.
    """
    chunk = np.sort(chunk)
    if sorted_buffer.size == 0:
        return chunk
    positions = np.searchsorted(sorted_buffer, chunk)
    return np.insert(sorted_buffer, positions, chunk)


def _predicated_delta(values: np.ndarray, low, high) -> Tuple[float, int]:
    """Sum and count of ``values`` in ``[low, high]`` (predicated scan).

    An empty selection sums to the integer ``0``: a float zero would drag an
    int64 correction into float64 and round sums beyond 2**53.
    """
    if values.size == 0:
        return 0, 0
    mask = (values >= low) & (values <= high)
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0, 0
    return values[mask].sum(), count


class DeltaOverlay:
    """Mixin giving any :class:`~repro.core.index.BaseIndex` mutable behavior.

    The mixin is initialised by ``BaseIndex.__init__`` via
    :meth:`_init_overlay`; subclasses that own a foldable sorted structure
    override :attr:`can_fold` and :meth:`_fold_delta`.
    """

    #: Raw delta ops tolerated before a tier-1 absorption into the sorted
    #: buffers is forced (outside the budget-driven MERGE phase).
    ABSORB_THRESHOLD = 64

    #: Fraction of the structural base the pending delta must reach before a
    #: fold is worth its O(N) pass; below it the sorted buffers answer in
    #: O(log d) and folding would just be a rebuild-per-write in disguise.
    MERGE_TRIGGER_FRACTION = 1.0 / 256.0

    #: Whether this family can fold sorted delta buffers into its structure
    #: (and therefore participates in the budget-priced ``MERGE`` phase).
    can_fold = False

    # ------------------------------------------------------------------
    def _init_overlay(self, live, snapshot) -> None:
        """Wire the overlay to the live column (``None`` disables it)."""
        self._live = live
        version = snapshot.version if live is not None else 0
        #: Writes with seq <= _folded_seq are inside the structural base.
        self._folded_seq = version
        #: Writes with seq <= _absorbed_seq are in the sorted side buffers.
        self._absorbed_seq = version
        self._buffer_ins = np.empty(0, dtype=snapshot.dtype)
        self._buffer_del = np.empty(0, dtype=snapshot.dtype)
        self._buffer_ins_prefix: Optional[np.ndarray] = None
        self._buffer_del_prefix: Optional[np.ndarray] = None
        # Under a memory budget the sorted buffers are capped: past the cap
        # they are sealed into sorted on-disk runs, which answer the same
        # searchsorted + prefix-sum correction without staying resident.
        budget = budget_of(live) if live is not None else None
        if budget is not None:
            self._overlay_cap_rows: Optional[int] = budget.overlay_cap_rows(snapshot.dtype)
            self._run_ins: Optional[SortedRunStore] = SortedRunStore(budget.spill_dir)
            self._run_del: Optional[SortedRunStore] = SortedRunStore(budget.spill_dir)
        else:
            self._overlay_cap_rows = None
            self._run_ins = None
            self._run_del = None
        self._merge_credit = 0.0
        self._rows_absorbed = 0
        self._rows_folded = 0
        self._folds_completed = 0
        self._merge_seconds = 0.0

    # ------------------------------------------------------------------
    # Pending-state inspection
    # ------------------------------------------------------------------
    @property
    def live_column(self):
        """The live mutable column (``None`` for frozen-snapshot indexes)."""
        return self._live

    def _overlay_active(self) -> bool:
        return self._live is not None and self._live.version > self._folded_seq

    def _raw_window(self) -> Tuple[np.ndarray, np.ndarray]:
        """Insert/delete values not yet absorbed into the sorted buffers."""
        delta = self._live.delta
        if delta is None:
            empty = np.empty(0, dtype=self._column.dtype)
            return empty, empty
        version = delta.version
        return (
            delta.insert_window(self._absorbed_seq, version),
            delta.delete_window(self._absorbed_seq, version),
        )

    def pending_delta_rows(self) -> int:
        """Delta rows (inserts + tombstones) not yet folded into the index."""
        if not self._overlay_active():
            return 0
        raw_ins, raw_del = self._raw_window()
        return (
            int(self._buffer_ins.size)
            + int(self._buffer_del.size)
            + int(raw_ins.size)
            + int(raw_del.size)
            + self._spilled_rows()
        )

    def _spilled_rows(self) -> int:
        """Rows living in sealed on-disk runs (0 without a budget)."""
        if self._run_ins is None:
            return 0
        return self._run_ins.total_rows + self._run_del.total_rows

    # ------------------------------------------------------------------
    # Correction
    # ------------------------------------------------------------------
    def _overlay_correction(self, predicate: Predicate) -> Optional[QueryResult]:
        """Net (sum, count) the structural answer is missing, or ``None``."""
        if not self._overlay_active():
            return None
        low, high = predicate.low, predicate.high
        ins_sum, ins_count = _predicated_delta(self._buffer_ins, low, high)
        del_sum, del_count = _predicated_delta(self._buffer_del, low, high)
        raw_ins, raw_del = self._raw_window()
        raw_ins_sum, raw_ins_count = _predicated_delta(raw_ins, low, high)
        raw_del_sum, raw_del_count = _predicated_delta(raw_del, low, high)
        count = ins_count + raw_ins_count - del_count - raw_del_count
        value_sum = ins_sum + raw_ins_sum - del_sum - raw_del_sum
        if self._run_ins is not None:
            run_ins_sum, run_ins_count = self._run_ins.correction(low, high)
            run_del_sum, run_del_count = self._run_del.correction(low, high)
            count += run_ins_count - run_del_count
            value_sum = value_sum + run_ins_sum - run_del_sum
        if count == 0 and value_sum == 0:
            return None
        return QueryResult(value_sum, count)

    def _overlay_correct_many(self, lows, highs, answered):
        """Correct a vectorized batch answer for the pending delta.

        The raw window is absorbed into the sorted buffers first (one sort,
        amortized across the batch), then both buffers are aggregated with
        the same ``searchsorted`` + prefix-sum primitive the batch engines
        use, keeping the whole correction free of per-query Python work.
        """
        if not self._overlay_active():
            return answered
        self._absorb_raw()
        sums, counts = answered
        # Copy before correcting in place; keep the sum dtype (int64 columns
        # stay exact — casting to float64 could round sums above 2**53).
        sums = np.array(sums)
        counts = np.array(counts, dtype=np.int64)
        if self._buffer_ins.size:
            add_sums, add_counts, self._buffer_ins_prefix = search_sorted_many(
                self._buffer_ins, lows, highs, self._buffer_ins_prefix
            )
            sums += add_sums
            counts += add_counts
        if self._buffer_del.size:
            sub_sums, sub_counts, self._buffer_del_prefix = search_sorted_many(
                self._buffer_del, lows, highs, self._buffer_del_prefix
            )
            sums -= sub_sums
            counts -= sub_counts
        if self._run_ins is not None and self._spilled_rows():
            run_sums, run_counts = self._run_ins.correct_many(lows, highs)
            sums = sums + run_sums
            counts += run_counts
            run_sums, run_counts = self._run_del.correct_many(lows, highs)
            sums = sums - run_sums
            counts -= run_counts
        return sums, counts

    # ------------------------------------------------------------------
    # Tier-1 merge: raw window -> sorted buffers
    # ------------------------------------------------------------------
    def _absorb_raw(self) -> int:
        """Sort the raw write window into the side buffers; returns rows moved."""
        if self._live is None:
            return 0
        delta = self._live.delta
        if delta is None:
            return 0
        version = delta.version
        if version == self._absorbed_seq:
            return 0
        raw_ins, raw_del = self._raw_window()
        moved = int(raw_ins.size + raw_del.size)
        if raw_ins.size:
            self._buffer_ins = _merge_into_sorted(self._buffer_ins, raw_ins)
            self._buffer_ins_prefix = None
        if raw_del.size:
            self._buffer_del = _merge_into_sorted(self._buffer_del, raw_del)
            self._buffer_del_prefix = None
        self._absorbed_seq = version
        self._rows_absorbed += moved
        self._maybe_seal_buffers()
        return moved

    def _maybe_seal_buffers(self) -> None:
        """Seal over-cap sorted buffers into on-disk runs (budget only)."""
        cap = self._overlay_cap_rows
        if cap is None:
            return
        sealed = 0
        if self._buffer_ins.size > cap:
            self._run_ins.seal(self._buffer_ins)
            self._buffer_ins = np.empty(0, dtype=self._buffer_ins.dtype)
            self._buffer_ins_prefix = None
            sealed += 1
        if self._buffer_del.size > cap:
            self._run_del.seal(self._buffer_del)
            self._buffer_del = np.empty(0, dtype=self._buffer_del.dtype)
            self._buffer_del_prefix = None
            sealed += 1
        if sealed:
            from repro import obs

            obs.metrics().counter(
                "overlay.seals",
                help="Overlay buffers sealed into sorted on-disk runs",
            ).inc(sealed)

    # ------------------------------------------------------------------
    # Tier-2 merge: sorted buffers -> structure (budget-priced)
    # ------------------------------------------------------------------
    def _fold_delta(self, inserts_sorted: np.ndarray, tombstones_sorted: np.ndarray) -> bool:
        """Fold the sorted buffers into the structural base.

        Families with a sorted backbone (progressive cascades, the full
        index) override this and return ``True``; the default keeps the
        buffers (cracking and the scan baseline stay overlay-resident).
        """
        return False

    def _fold_base_size(self) -> int:
        """Structure size the fold pricing is relative to."""
        return len(self._column)

    def merge_trigger_rows(self) -> int:
        """Pending rows required before a merge cycle starts."""
        return max(
            self.ABSORB_THRESHOLD,
            int(self._fold_base_size() * self.MERGE_TRIGGER_FRACTION),
        )

    def has_pending_merge(self) -> bool:
        """Whether budgeted merge work is running or due on the next query.

        The batch executor consults this so a converged index with a
        trigger-crossing pending delta keeps receiving per-query dispatch —
        pooled budget then front-loads the fold — instead of jumping
        straight to the vectorized tail.
        """
        if not self.can_fold or not self._overlay_active():
            return False
        phase = self._lifecycle.phase
        if phase is IndexPhase.MERGE:
            return True
        return (
            phase is IndexPhase.CONVERGED
            and self.pending_delta_rows() >= self.merge_trigger_rows()
        )

    def _merge_full_work_time(self) -> float:
        """Predicted cost of absorbing + folding the entire pending delta."""
        raw_ins, raw_del = self._raw_window()
        raw = int(raw_ins.size + raw_del.size)
        buffered = int(self._buffer_ins.size + self._buffer_del.size) + self._spilled_rows()
        model = self._cost_model
        return model.delta_absorb_time(raw) + model.delta_fold_time(
            self._fold_base_size(), raw + buffered
        )

    def _merge_maintenance(self, predicate: Predicate) -> None:
        """Per-query merge driver, called after the answer is corrected.

        Outside the MERGE phase the overlay only keeps the raw window small
        (threshold-triggered tier-1 absorption).  A converged foldable index
        with pending writes enters MERGE; every query then routes one merge
        decision through the budget controller, accumulating credit until
        the fold is paid for.
        """
        if not self._overlay_active():
            return
        phase = self._lifecycle.phase
        mergeable = self.can_fold and phase in (IndexPhase.CONVERGED, IndexPhase.MERGE)
        if mergeable and phase is IndexPhase.CONVERGED:
            # LSM-style trigger: only start a merge cycle once the pending
            # delta justifies the O(N) fold.  An in-progress MERGE always
            # runs to completion.
            if self.pending_delta_rows() < self.merge_trigger_rows():
                mergeable = False
        if not mergeable:
            raw_ins, raw_del = self._raw_window()
            if raw_ins.size + raw_del.size >= self.ABSORB_THRESHOLD:
                self._absorb_raw()
            return
        if phase is IndexPhase.CONVERGED:
            self._advance_phase(IndexPhase.MERGE)
            # Baselines never spend construction budget, so their
            # fraction-based policies may still be unresolved when the first
            # merge decision arrives (idempotent for everyone else).
            self._register_scan_time()
        full_merge = self._merge_full_work_time()
        base = self.last_stats.predicted_breakdown or CostBreakdown(0.0, 0.0, 0.0)

        def predict(delta: float) -> CostBreakdown:
            return CostBreakdown(
                scan=base.scan,
                lookup=base.lookup,
                indexing=base.indexing,
                merge=delta * full_merge,
            )

        decision = self._decide(full_merge, predict)
        granted = decision.delta * full_merge
        self._merge_credit += granted
        self._merge_seconds += granted
        if granted <= 0.0:
            return
        self._absorb_raw()
        pending = int(self._buffer_ins.size + self._buffer_del.size) + self._spilled_rows()
        fold_cost = self._cost_model.delta_fold_time(self._fold_base_size(), pending)
        if self._merge_credit < fold_cost:
            return
        folded_rows = pending
        fold_ins, fold_del = self._gather_fold_buffers()
        if not self._fold_delta(fold_ins, fold_del):
            return
        self._merge_credit = max(0.0, self._merge_credit - fold_cost)
        self._folded_seq = self._absorbed_seq
        self._rows_folded += folded_rows
        self._folds_completed += 1
        from repro import obs

        obs.metrics().counter(
            "overlay.folds",
            help="Budget-priced delta folds merged into index structures",
        ).inc()
        self._clear_buffers()
        if self._live.version == self._folded_seq:
            self._merge_credit = 0.0
            self._advance_phase(IndexPhase.CONVERGED)

    def _gather_fold_buffers(self) -> Tuple[np.ndarray, np.ndarray]:
        """Resident buffers merged with any sealed runs, both sorted.

        A fold is O(N) anyway, so materializing the runs here does not
        change the asymptotic cost — and they are freed right after.
        """
        fold_ins, fold_del = self._buffer_ins, self._buffer_del
        if self._run_ins is not None and self._run_ins.total_rows:
            fold_ins = np.concatenate([fold_ins, self._run_ins.merged()])
            fold_ins.sort(kind="stable")
        if self._run_del is not None and self._run_del.total_rows:
            fold_del = np.concatenate([fold_del, self._run_del.merged()])
            fold_del.sort(kind="stable")
        return fold_ins, fold_del

    def _clear_buffers(self) -> None:
        self._buffer_ins = np.empty(0, dtype=self._column.dtype)
        self._buffer_del = np.empty(0, dtype=self._column.dtype)
        self._buffer_ins_prefix = None
        self._buffer_del_prefix = None
        if self._run_ins is not None:
            self._run_ins.clear()
            self._run_del.clear()

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _overlay_state(self) -> dict:
        """Serializable snapshot of the overlay.

        The raw write window is absorbed into the sorted buffers first
        (answer-neutral — it is the same tier-1 absorption every batch pays),
        so the persisted state is just the two sorted buffers plus the
        watermarks into the column's sequence space.
        """
        if self._live is None:
            return {"mutable": False, "snapshot_version": int(self._column.version)}
        self._absorb_raw()
        # Sealed runs are merged into the persisted buffers: the state
        # format stays version-1 and the load path re-seals past the cap.
        state_ins, state_del = self._gather_fold_buffers()
        return {
            "mutable": True,
            "snapshot_version": int(self._column.version),
            "folded_seq": int(self._folded_seq),
            "absorbed_seq": int(self._absorbed_seq),
            "buffer_ins": np.array(state_ins),
            "buffer_del": np.array(state_del),
            "merge_credit": float(self._merge_credit),
            "rows_absorbed": int(self._rows_absorbed),
            "rows_folded": int(self._rows_folded),
            "folds_completed": int(self._folds_completed),
            "merge_seconds": float(self._merge_seconds),
        }

    def _load_overlay_state(self, state: dict) -> None:
        """Restore the overlay watermarks and sorted buffers."""
        if not state.get("mutable") or self._live is None:
            return
        self._folded_seq = int(state["folded_seq"])
        self._absorbed_seq = int(state["absorbed_seq"])
        self._buffer_ins = np.asarray(state["buffer_ins"], dtype=self._column.dtype)
        self._buffer_del = np.asarray(state["buffer_del"], dtype=self._column.dtype)
        self._buffer_ins_prefix = None
        self._buffer_del_prefix = None
        if self._run_ins is not None:
            self._run_ins.clear()
            self._run_del.clear()
        self._maybe_seal_buffers()
        self._merge_credit = float(state.get("merge_credit", 0.0))
        self._rows_absorbed = int(state.get("rows_absorbed", 0))
        self._rows_folded = int(state.get("rows_folded", 0))
        self._folds_completed = int(state.get("folds_completed", 0))
        self._merge_seconds = float(state.get("merge_seconds", 0.0))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def overlay_stats(self) -> dict:
        """Write/merge counters surfaced by ``session.status()``."""
        if self._live is None:
            return {"mutable": False}
        raw_ins, raw_del = self._raw_window()
        return {
            "mutable": True,
            "column_version": int(self._live.version),
            "folded_watermark": int(self._folded_seq),
            "pending_rows": self.pending_delta_rows(),
            "buffered_rows": int(self._buffer_ins.size + self._buffer_del.size),
            "raw_rows": int(raw_ins.size + raw_del.size),
            "rows_absorbed": int(self._rows_absorbed),
            "rows_folded": int(self._rows_folded),
            "folds_completed": int(self._folds_completed),
            "merge_budget_seconds": float(self._merge_seconds),
            "overlay_bytes": int(self._buffer_ins.nbytes + self._buffer_del.nbytes),
            "spilled_rows": self._spilled_rows(),
            "spilled_runs": 0 if self._run_ins is None
            else len(self._run_ins.runs) + len(self._run_del.runs),
        }

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
   live in sorted side buffers (each a :class:`~repro.core.query.SortedLeaf`,
   the structural base's own read: O(log d) per query no matter how many
   writes accumulate), and the newest raw window is scanned predicated (kept
   small by tier-1 absorption).  Aggregate queries make equal values
   interchangeable, so tombstones carry values, not positions.

2. **Budget-priced merge.**  Absorbing and folding delta rows into the index
   is priced through the same :class:`~repro.core.policy.BudgetController`
   that paces construction: a converged index with pending writes enters the
   ``MERGE`` life-cycle stage, each query's policy decision grants a
   fraction of the predicted full merge cost (the ``merge`` component of the
   :class:`~repro.core.cost_model.CostBreakdown`), and the granted credit
   accumulates until it covers the family-specific *fold* — rebuilding the
   sorted leaf with the buffered rows merged in — after
   which the lifecycle returns to ``CONVERGED``.  Families without a
   cheap fold (cracking keeps refining forever) simply keep the sorted
   buffers: correctness is identical, queries stay logarithmic in the
   buffered delta, and no budget is spent on unpayable work.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.cost_model import CostBreakdown
from repro.core.phase import IndexPhase
from repro.core.query import Predicate, SortedLeaf
from repro.storage.delta import SortedRunStore
from repro.storage.membudget import budget_of


def _merge_into_sorted(sorted_buffer: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Merge an unsorted chunk into a sorted buffer in one linear pass.

    Only the (small, threshold-bounded) chunk is sorted; re-sorting the
    whole accumulated buffer would make the never-folding families
    (cracking, FullScan) pay a growing sort on every absorption.
    """
    return kernels.merge_sorted(sorted_buffer, np.sort(chunk))


def _predicated_delta(values: np.ndarray, low, high) -> Tuple[float, int]:
    """Sum and count of ``values`` in ``[low, high]`` (predicated scan).

    The read of an *unsorted* write window.  An empty selection sums to the
    integer ``0``: a float zero would drag an int64 correction into float64
    and round sums beyond 2**53.
    """
    if values.size == 0:
        return 0, 0
    mask = (values >= low) & (values <= high)
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0, 0
    return values[mask].sum(), count


class PendingState(NamedTuple):
    """The writes an index has absorbed but not folded, as one immutable value.

    ``ins_leaf`` / ``del_leaf`` are the sorted side buffers (inserted values,
    tombstoned values) behind the same :class:`~repro.core.query.SortedLeaf`
    read the structural base uses.  They hold every write up to
    ``absorbed_seq``; ``ins_cursor`` / ``del_cursor`` are the delta-log
    positions of the first write after it, so the raw window is two slices
    of the append-only logs.  An index publishes a new state with one
    attribute store on absorb, fold, restore and clear: a concurrent reader
    that loaded the old one keeps a consistent (buffers, watermark) pair.
    """

    ins_leaf: SortedLeaf
    del_leaf: SortedLeaf
    absorbed_seq: int
    ins_cursor: int
    del_cursor: int

    def correct_one(self, low, high, value_sum, count) -> Tuple:
        """``(value_sum, count)`` plus the buffered inserts minus the tombstones."""
        if self.ins_leaf.values.size:
            add_sum, add_count = self.ins_leaf.range_one(low, high)
            value_sum += add_sum
            count += add_count
        if self.del_leaf.values.size:
            sub_sum, sub_count = self.del_leaf.range_one(low, high)
            value_sum -= sub_sum
            count -= sub_count
        return value_sum, count

    def correct_many(self, lows, highs, sums, counts) -> Tuple[np.ndarray, np.ndarray]:
        """Batch form of :meth:`correct_one`: new arrays, sum dtype kept
        (a float64 cast would round int64 sums above 2**53)."""
        if self.ins_leaf.values.size:
            add_sums, add_counts = self.ins_leaf.range_many(lows, highs)
            sums = sums + add_sums
            counts = counts + add_counts
        if self.del_leaf.values.size:
            sub_sums, sub_counts = self.del_leaf.range_many(lows, highs)
            sums = sums - sub_sums
            counts = counts - sub_counts
        return sums, counts


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
        # Under a memory budget the sorted buffers are capped: past the cap
        # they are sealed into sorted on-disk runs, which answer the same
        # searchsorted + prefix-sum correction without staying resident, and
        # the resident buffers' prefix sums go through the budget's scratch.
        budget = budget_of(live) if live is not None else None
        if budget is not None:
            self._overlay_cap_rows: Optional[int] = budget.overlay_cap_rows(snapshot.dtype)
            self._run_ins: Optional[SortedRunStore] = SortedRunStore(budget.spill_dir)
            self._run_del: Optional[SortedRunStore] = SortedRunStore(budget.spill_dir)
            self._buffer_allocate = budget.scratch.allocate
        else:
            self._overlay_cap_rows = None
            self._run_ins = None
            self._run_del = None
            self._buffer_allocate = None
        #: Writes with seq <= absorbed_seq are in the sorted side buffers (or
        #: their sealed runs); see :class:`PendingState`.
        self._pending = self._empty_state(version)
        self._merge_credit = 0.0
        self._rows_absorbed = 0
        self._rows_folded = 0
        self._folds_completed = 0
        self._merge_seconds = 0.0

    def _buffer_leaf(self, values_sorted: np.ndarray) -> SortedLeaf:
        return SortedLeaf(values_sorted, self._buffer_allocate)

    def _empty_state(self, absorbed_seq: int) -> PendingState:
        """Empty buffers with every write up to ``absorbed_seq`` behind them."""
        delta = None if self._live is None else self._live.delta
        cursors = (0, 0) if delta is None else delta.cursors_at(absorbed_seq)
        empty = self._buffer_leaf(np.empty(0, dtype=self._column.dtype))
        return PendingState(empty, empty, absorbed_seq, *cursors)

    # ------------------------------------------------------------------
    # Pending-state inspection
    # ------------------------------------------------------------------
    @property
    def live_column(self):
        """The live mutable column (``None`` for frozen-snapshot indexes)."""
        return self._live

    def pending_delta_rows(self) -> int:
        """Delta rows (inserts + tombstones) not yet folded into the index:
        sequence numbers are dense, so the version minus the fold watermark."""
        live = self._live
        return 0 if live is None else live.version - self._folded_seq

    def _raw_rows(self) -> int:
        """Writes not yet absorbed into the sorted buffers."""
        live = self._live
        return 0 if live is None else live.version - self._pending.absorbed_seq

    def _spilled_rows(self) -> int:
        """Rows living in sealed on-disk runs (0 without a budget)."""
        if self._run_ins is None:
            return 0
        return self._run_ins.total_rows + self._run_del.total_rows

    # ------------------------------------------------------------------
    # Correction
    # ------------------------------------------------------------------
    def _overlay_correct_one(self, low, high, value_sum, count) -> Tuple:
        """The structural ``(value_sum, count)`` moved to the live version.

        Two reads of the buffer leaves, the sealed runs under a budget, and
        a predicated scan of the raw window (at most ``ABSORB_THRESHOLD``
        rows between absorptions).  Only called with a delta pending.
        """
        state = self._pending
        leaf = state.ins_leaf
        integral = leaf.integral
        if integral:
            value_sum = int(value_sum)  # Python ints: exact until wrapped below
        value_sum, count = state.correct_one(low, high, value_sum, count)
        if self._run_ins is not None:
            ins_sum, ins_count = self._run_ins.correction(low, high)
            del_sum, del_count = self._run_del.correction(low, high)
            value_sum += ins_sum - del_sum
            count += ins_count - del_count
        delta = self._live.delta
        if delta.version != state.absorbed_seq:
            raw_ins, raw_del = delta.raw_window(state.ins_cursor, state.del_cursor)
            ins_sum, ins_count = _predicated_delta(raw_ins, low, high)
            del_sum, del_count = _predicated_delta(raw_del, low, high)
            if integral:
                ins_sum, del_sum = int(ins_sum), int(del_sum)
            value_sum += ins_sum - del_sum
            count += ins_count - del_count
        return leaf.wrap(value_sum), count

    def _overlay_correct_many(self, lows, highs, answered):
        """Correct a vectorized batch answer for the pending delta.

        The raw window is absorbed into the sorted buffers first (one sort,
        amortized across the batch), then both buffers are aggregated with
        the same leaf read the batch engines use, keeping the whole
        correction free of per-query Python work.
        """
        if not self.pending_delta_rows():
            return answered
        self._absorb_raw()
        sums, counts = answered
        sums, counts = self._pending.correct_many(
            lows, highs, np.asarray(sums), np.asarray(counts, dtype=np.int64)
        )
        if self._spilled_rows():
            run_sums, run_counts = self._run_ins.correct_many(lows, highs)
            sums = sums + run_sums
            counts = counts + run_counts
            run_sums, run_counts = self._run_del.correct_many(lows, highs)
            sums = sums - run_sums
            counts = counts - run_counts
        return sums, counts

    # ------------------------------------------------------------------
    # Tier-1 merge: raw window -> sorted buffers
    # ------------------------------------------------------------------
    def _absorb_raw(self) -> int:
        """Sort the raw write window into the side buffers; returns rows moved.

        One load of the state and one of the version bound both log windows:
        a checkpoint absorbs outside the work lane, beside writes.
        """
        state = self._pending
        live = self._live
        version = 0 if live is None else live.version
        moved = version - state.absorbed_seq
        if moved <= 0:
            return 0
        delta = live.delta
        ins_cursor, del_cursor = delta.cursors_at(version)
        raw_ins, raw_del = delta.raw_window(state.ins_cursor, state.del_cursor)
        raw_ins = raw_ins[: ins_cursor - state.ins_cursor]
        raw_del = raw_del[: del_cursor - state.del_cursor]
        ins_leaf, del_leaf = state.ins_leaf, state.del_leaf
        if raw_ins.size:
            ins_leaf = self._buffer_leaf(_merge_into_sorted(ins_leaf.values, raw_ins))
        if raw_del.size:
            del_leaf = self._buffer_leaf(_merge_into_sorted(del_leaf.values, raw_del))
        ins_leaf, del_leaf = self._seal_over_cap(ins_leaf, del_leaf)
        self._pending = PendingState(ins_leaf, del_leaf, version, ins_cursor, del_cursor)
        self._rows_absorbed += moved
        return moved

    def _absorb_if_due(self) -> None:
        """Keep the raw window small: absorb it once it reaches the threshold."""
        if self._raw_rows() >= self.ABSORB_THRESHOLD:
            self._absorb_raw()

    def _seal_over_cap(self, ins_leaf: SortedLeaf, del_leaf: SortedLeaf):
        """Seal over-cap sorted buffers into on-disk runs (budget only);
        returns the leaves to publish (a sealed buffer comes back empty)."""
        cap = self._overlay_cap_rows
        if cap is None:
            return ins_leaf, del_leaf
        sealed = 0
        if ins_leaf.values.size > cap:
            self._run_ins.seal(ins_leaf.values)
            ins_leaf = self._buffer_leaf(ins_leaf.values[:0])
            sealed += 1
        if del_leaf.values.size > cap:
            self._run_del.seal(del_leaf.values)
            del_leaf = self._buffer_leaf(del_leaf.values[:0])
            sealed += 1
        if sealed:
            from repro import obs

            obs.metrics().counter(
                "overlay.seals",
                help="Overlay buffers sealed into sorted on-disk runs",
            ).inc(sealed)
        return ins_leaf, del_leaf

    # ------------------------------------------------------------------
    # Tier-2 merge: sorted buffers -> structure (budget-priced)
    # ------------------------------------------------------------------
    def _fold_delta(self, inserts_sorted: np.ndarray, tombstones_sorted: np.ndarray) -> bool:
        """Fold the sorted buffers into the structural base.

        Families with a sorted backbone (converged progressive indexes, the full
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

    def _merge_due(self, pending: int) -> bool:
        """LSM-style trigger: ``pending`` rows justify the O(N) fold."""
        return self.can_fold and pending >= self.merge_trigger_rows()

    def has_pending_merge(self) -> bool:
        """Whether budgeted merge work is running or due on the next query.

        The batch executor consults this so a converged index with a
        trigger-crossing pending delta keeps receiving per-query dispatch —
        pooled budget then front-loads the fold — instead of jumping
        straight to the vectorized tail.
        """
        live = self._live  # inlined count: the lock-free lane asks twice per read
        pending = 0 if live is None else live.version - self._folded_seq
        if not pending or not self.can_fold:
            return False
        phase = self._lifecycle.phase
        if phase is IndexPhase.MERGE:
            return True
        return phase is IndexPhase.CONVERGED and self._merge_due(pending)

    def _merge_full_work_time(self) -> float:
        """Predicted cost of absorbing + folding the entire pending delta."""
        raw = self._raw_rows()
        model = self._cost_model
        return model.delta_absorb_time(raw) + model.delta_fold_time(
            self._fold_base_size(), self.pending_delta_rows()
        )

    def _merge_maintenance(self, predicate: Predicate) -> None:
        """Per-query merge driver, called after the answer is corrected.

        Outside the MERGE phase the overlay only keeps the raw window small
        (threshold-triggered tier-1 absorption).  A converged foldable index
        with pending writes enters MERGE; every query then routes one merge
        decision through the budget controller, accumulating credit until
        the fold is paid for.
        """
        # An in-progress MERGE always runs to completion; a converged index
        # starts one only past the trigger.
        if not self.has_pending_merge():
            self._absorb_if_due()
            return
        if self._lifecycle.phase is IndexPhase.CONVERGED:
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
        absorbed_seq = self._pending.absorbed_seq
        folded_rows = absorbed_seq - self._folded_seq
        fold_cost = self._cost_model.delta_fold_time(self._fold_base_size(), folded_rows)
        if self._merge_credit < fold_cost:
            return
        fold_ins, fold_del = self._gather_fold_buffers()
        if not self._fold_delta(fold_ins, fold_del):
            return
        self._merge_credit = max(0.0, self._merge_credit - fold_cost)
        self._folded_seq = absorbed_seq
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
        state = self._pending
        fold_ins, fold_del = state.ins_leaf.values, state.del_leaf.values
        if self._run_ins is not None and self._run_ins.total_rows:
            fold_ins = kernels.merge_sorted(fold_ins, self._run_ins.merged())
        if self._run_del is not None and self._run_del.total_rows:
            fold_del = kernels.merge_sorted(fold_del, self._run_del.merged())
        return fold_ins, fold_del

    def _clear_buffers(self) -> None:
        """Publish empty buffers at the absorbed watermark (after a fold)."""
        state = self._pending
        empty = self._buffer_leaf(state.ins_leaf.values[:0])
        self._pending = state._replace(ins_leaf=empty, del_leaf=empty)
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
            "absorbed_seq": int(self._pending.absorbed_seq),
            "buffer_ins": np.array(state_ins),
            "buffer_del": np.array(state_del),
            "merge_credit": float(self._merge_credit),
            "rows_absorbed": int(self._rows_absorbed),
            "rows_folded": int(self._rows_folded),
            "folds_completed": int(self._folds_completed),
            "merge_seconds": float(self._merge_seconds),
        }

    def _load_overlay_state(self, state: dict) -> None:
        """Restore the overlay watermarks and sorted buffers.

        The log cursors are not persisted: they are recomputed from
        ``absorbed_seq`` against the restored (and WAL-replayed) delta store.
        """
        if not state.get("mutable") or self._live is None:
            return
        self._folded_seq = int(state["folded_seq"])
        if self._run_ins is not None:
            self._run_ins.clear()
            self._run_del.clear()
        dtype = self._column.dtype
        ins_leaf, del_leaf = self._seal_over_cap(
            self._buffer_leaf(np.asarray(state["buffer_ins"], dtype=dtype)),
            self._buffer_leaf(np.asarray(state["buffer_del"], dtype=dtype)),
        )
        self._pending = self._empty_state(int(state["absorbed_seq"]))._replace(
            ins_leaf=ins_leaf, del_leaf=del_leaf
        )
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
        state = self._pending
        return {
            "mutable": True,
            "column_version": int(self._live.version),
            "folded_watermark": int(self._folded_seq),
            "pending_rows": self.pending_delta_rows(),
            "merge_trigger_rows": self.merge_trigger_rows(),
            "buffered_rows": int(state.ins_leaf.values.size + state.del_leaf.values.size),
            "raw_rows": self._raw_rows(),
            "rows_absorbed": int(self._rows_absorbed),
            "rows_folded": int(self._rows_folded),
            "folds_completed": int(self._folds_completed),
            "merge_budget_seconds": float(self._merge_seconds),
            "overlay_bytes": int(state.ins_leaf.values.nbytes + state.del_leaf.values.nbytes),
            "spilled_rows": self._spilled_rows(),
            "spilled_runs": 0 if self._run_ins is None
            else len(self._run_ins.runs) + len(self._run_del.runs),
        }

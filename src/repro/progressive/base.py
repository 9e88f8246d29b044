"""Shared life-cycle driver of the four progressive indexes.

Every progressive indexing algorithm of the paper moves through the same
phases — creation, refinement, converged — and prices every construction
phase with the same formula shape, ``(1-ρ-δ)·t_scan + α·t_indexed_scan +
δ·t_work``.  :class:`ProgressiveIndexBase` is the template method that owns
all of it:

* phase transitions go through the index's shared
  :class:`~repro.core.phase.IndexLifecycle` (monotone, history-recording);
* every per-query ``delta`` decision routes through the
  :class:`~repro.core.policy.BudgetController` with the current phase's
  cost formula exposed as a side-effect-free ``predict(delta)`` callable —
  which is also what powers the public
  :meth:`~repro.core.index.BaseIndex.predicted_cost` API that
  :class:`~repro.core.policy.CostModelGreedy` solves against;
* the creation phase (ingest ``δ·N`` more base-column rows, answer from the
  ingested part plus a scan of the rest) and the refinement phase (spend
  ``δ·N`` elements of work, answer from the partly refined index), priced
  through :meth:`~repro.core.cost_model.CostModel.creation_phase_cost` and
  :meth:`~repro.core.cost_model.CostModel.refinement_phase_cost`;
* convergence on the query that finishes sorting (the final array becomes
  the :class:`~repro.core.query.SortedLeaf` every converged read uses — the
  paper's consolidation phase has no tree to build here), the memory
  footprint, and the construction of every bucket set and radix key space;
* for PQ, PMSD and PB, the refinement's
  :class:`~repro.progressive.pieces.PieceTable` — its lookup, answer, α walk
  and checkpoint codec (``_construction_state`` /
  ``_load_construction_state``: the creation buckets, the final array and
  the table's arrays, a family's own fields through ``_load_fields``; any
  other payload raises :class:`~repro.errors.IndexStateError` — older ones
  are upgraded first, by ``repro.persist.upgrade``).

Each algorithm is reduced to its partition rule, as hooks:

========================  ==================================================
``_initialize``           the first query's structures (pivot, bounds, ...)
``_ingest``               route one chunk of base-column rows
``_creation_work_time``   ``t_work`` of ingesting the whole column
``_creation_scan``        α and ``t_indexed_scan`` of the ingested part
``_scan_ingested``        the answer from the ingested part
``_start_refinement``     the pieces' roots, once all is ingested
``_refinement_work_time`` ``t_work`` of the whole refinement
``_refine``               one budgeted step of the split rule; returns the
                          elements it spent
``_route``                the predicate as the piece table's keys
``_load_fields``          the family's own checkpoint fields
========================  ==================================================

The bucket families (PMSD, PB, PLSD) name the buckets a query reads
(``_relevant_buckets``) and inherit ``_creation_scan``/``_scan_ingested``;
PQ's two creation pieces override them.  PLSD refines whole-array
generations, not pieces: it overrides ``_refinement_scan``,
``_refinement_answer``, ``_refinement_done`` and the checkpoint payload,
and its range fallback (a full column scan, whatever ρ and δ are) is the
one override of ``_creation_cost``, with ``_creation_answer``.

Mutable columns ride on the shared :class:`~repro.core.overlay.DeltaOverlay`
mixin (inherited through :class:`~repro.core.index.BaseIndex`): structures
are built over the snapshot pinned at creation, answers are corrected with
the pending delta, and — because every progressive index converges to a
sorted array — the converged family implements the overlay's *fold*: the
buffered inserts/tombstones are merged into the sorted array, which becomes
a new leaf, paid for by the ``MERGE``-phase budget decisions the same way
creation and refinement work was.
"""

from __future__ import annotations

import abc
import math
from functools import cached_property

import numpy as np

from repro.core.calibration import CostConstants
from repro.core.cost_model import CostBreakdown
from repro.core.index import BaseIndex
from repro.core.keys import RadixKeySpace
from repro.core.phase import IndexPhase
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult, SortedLeaf
from repro.errors import IndexStateError
from repro.progressive.blocks import BucketSet, ExactBucketSet
from repro.progressive.pieces import LAYOUT, PieceTable
from repro.storage.column import Column
from repro.storage.delta import merge_sorted_with_delta
from repro.storage.lazy import array_chunks
from repro.storage.membudget import budget_of


class ProgressiveIndexBase(BaseIndex):
    """Template-method base class of the progressive indexing algorithms.

    Parameters
    ----------
    column:
        Column to index.
    budget:
        Budget policy (fixed delta, time-adaptive, cost-model greedy, or a
        pooled batch reservoir).
    constants:
        Cost-model constants.
    """

    #: Once converged, the sorted-leaf lookups of this family are pure reads
    #: over frozen structures (plus the idempotent prefix-sum cache), so the
    #: serving scheduler may run them from concurrent reader threads.
    concurrent_reads = True

    #: Checkpoint key of the ingested-elements counter.
    _ingested_key = "elements_bucketed"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants)
        #: Base-column rows the creation phase has ingested (``ρ·N``).
        self._ingested = 0
        #: The creation phase's buckets (bucket families).
        self._buckets: BucketSet | None = None
        #: The array that ends sorted and becomes the sorted leaf.
        self._final_array: np.ndarray | None = None
        #: Slab arena of the bucket storage under a memory budget.
        self._arena = None
        #: The refinement's pieces (PQ, PMSD, PB; PLSD has generations).
        self._pieces: PieceTable | None = None

    # ------------------------------------------------------------------
    # Phase dispatch
    # ------------------------------------------------------------------
    def _execute(self, predicate: Predicate) -> QueryResult:
        if self.phase is IndexPhase.INACTIVE:
            self._initialize()
            self._register_scan_time()
            self._advance_phase(IndexPhase.CREATION)
        phase = self.phase
        if phase is IndexPhase.CREATION:
            return self._execute_creation(predicate)
        if phase is IndexPhase.REFINEMENT:
            return self._execute_refinement(predicate)
        return self._execute_converged(predicate)

    # ------------------------------------------------------------------
    # Per-phase cost model (Section 3)
    # ------------------------------------------------------------------
    def predicted_cost(self, predicate: Predicate, delta: float = 0.0) -> CostBreakdown | None:
        """The current phase's cost formula evaluated at ``delta``.

        Side-effect free; returns ``None`` while the index is inactive (no
        structures exist before the first query initialises them).
        """
        phase = self.phase
        if phase is IndexPhase.CREATION:
            return self._creation_cost(predicate, delta)
        if phase is IndexPhase.REFINEMENT:
            return self._refinement_pricing(predicate)(delta)
        if phase is IndexPhase.CONVERGED:
            return self._converged_cost(predicate)
        if phase is IndexPhase.MERGE:
            return self._merge_phase_cost(predicate, delta)
        return None

    def memory_footprint(self) -> int:
        """Bytes held by the bucket blocks, the index array and, once built,
        its prefix sums."""
        total = sum(
            buckets.memory_footprint() for buckets in self._bucket_sets() if buckets is not None
        )
        if self._final_array is not None:
            total += self._final_array.nbytes
        if self._leaf is not None:
            total += self._leaf.prefix_bytes()
        return total

    def _bucket_sets(self) -> tuple:
        """The bucket sets the footprint counts (``None`` where there is none)."""
        return (self._buckets,)

    # ------------------------------------------------------------------
    # Out-of-core support (streaming kernels)
    # ------------------------------------------------------------------
    def _scratch_allocate(self, n_rows: int, dtype) -> np.ndarray:
        """Writable construction array; pager-backed past the memory budget.

        With no budget attached to the column this is a plain ``np.empty``
        — the in-memory engine, unchanged.
        """
        budget = budget_of(self._column)
        if budget is not None:
            return budget.scratch.allocate(n_rows, dtype)
        return np.empty(int(n_rows), dtype=np.dtype(dtype))

    def _stream_column(self, start: int, stop: int):
        """The base column's rows ``[start, stop)`` as ndarray chunks of the
        memory budget's chunk size (one chunk without a budget); a paged
        base yields them on its block grid."""
        budget = budget_of(self._column)
        step = budget.chunk_rows(self._column.dtype) if budget is not None else max(1, stop - start)
        for _, chunk in array_chunks(self._column.data, step, start=start, stop=stop):
            yield np.asarray(chunk)

    def _scratch_pool(self):
        """The column's shared scratch allocator, or ``None`` (no budget)."""
        budget = budget_of(self._column)
        return budget.scratch if budget is not None else None

    def _block_arena(self):
        """The index's spillable slab arena for bucket storage (``None``
        unbudgeted); one per index, so small exact-offset sets share slabs."""
        pool = self._scratch_pool()
        if pool is None:
            return None
        if self._arena is None or self._arena.allocator is not pool:
            from repro.storage.scratch import BlockArena

            self._arena = BlockArena(pool, self.block_size, self._column.dtype)
        return self._arena

    # ------------------------------------------------------------------
    # Bucket families' structures
    # ------------------------------------------------------------------
    def _bucket_set(self, state: dict | None = None, sizes=None) -> BucketSet:
        """An empty ``n_buckets`` set, or the one ``state`` saved; an
        exact-offset set when the buckets' final ``sizes`` are known.  Either
        way its storage comes from the column's arena under a memory budget."""
        if state is not None and [state["n_buckets"], state["block_size"], state["dtype"], len(state["buckets"])] != [
                self.n_buckets, self.block_size, self._column.dtype.name, self.n_buckets]:
            raise IndexStateError("a saved bucket set of another shape or dtype")
        arena = self._block_arena()
        if sizes is not None:
            buckets = ExactBucketSet(sizes, self.block_size, self._column.dtype, arena)
            if state is not None:
                buckets.restore(state["buckets"])
            return buckets
        if state is not None:
            return BucketSet.from_state(state, arena=arena)
        return BucketSet(self.n_buckets, block_size=self.block_size, dtype=self._column.dtype, arena=arena)

    @cached_property
    def _keyspace(self) -> RadixKeySpace:
        """The column's radix key space, ``log2(n_buckets)`` bits a digit (a
        pure function of the pinned snapshot's bounds)."""
        return RadixKeySpace(*self._column.value_range(), self._column.dtype, self.n_buckets.bit_length() - 1)

    def _relevant_buckets(self, predicate: Predicate) -> range:
        """The creation buckets that can hold values matching ``predicate``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Creation phase
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _initialize(self) -> None:
        """Allocate the first-query structures (pivot, buckets, bounds...)."""

    @abc.abstractmethod
    def _ingest(self, chunk: np.ndarray) -> None:
        """Route the next ``chunk`` of base-column rows into the index."""

    @abc.abstractmethod
    def _creation_work_time(self) -> float:
        """Time to ingest the whole column (the phase's ``t_work``)."""

    def _creation_scan(self, predicate: Predicate) -> tuple:
        """``(α, t_indexed_scan)``: the share of the column the query scans
        in the ingested part, and the time to scan all of it."""
        n = len(self._column)
        scanned = sum(len(self._buckets[i]) for i in self._relevant_buckets(predicate))
        return scanned / n, self._cost_model.bucket_scan_time(n)

    def _scan_ingested(self, predicate: Predicate) -> QueryResult:
        """The answer over the rows ingested so far."""
        return self._buckets.scan(predicate.low, predicate.high, self._relevant_buckets(predicate))

    def _creation_answer(self, predicate: Predicate) -> QueryResult:
        """The ingested part plus the column rows not ingested yet."""
        result = self._scan_ingested(predicate)
        result += self._scan_column(predicate, start=self._ingested)
        return result

    def _creation_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        """Creation-phase cost at ``delta`` (state read-only)."""
        n = len(self._column)
        alpha, indexed_scan_time = self._creation_scan(predicate)
        return self._cost_model.creation_phase_cost(
            n, self._ingested / n, alpha, delta, self._creation_work_time(), indexed_scan_time
        )

    def _execute_creation(self, predicate: Predicate) -> QueryResult:
        n = len(self._column)
        decision = self._decide(
            self._creation_work_time(),
            lambda d: self._creation_cost(predicate, d),
            max_delta=1.0 - self._ingested / n,
        )
        delta = decision.delta
        to_ingest = min(n - self._ingested, int(np.ceil(delta * n))) if delta > 0 else 0
        if to_ingest > 0:
            # Streamed in budget-sized chunks, so a paged base never
            # materializes more than one chunk of decompressed data.
            for chunk in self._stream_column(self._ingested, self._ingested + to_ingest):
                self._ingest(chunk)
                self._ingested += chunk.size
        result = self._creation_answer(predicate)
        self.last_stats.elements_indexed = to_ingest
        if self._ingested >= n:
            self._start_refinement()
            self._advance_phase(IndexPhase.REFINEMENT)
            if self._refinement_done():
                self._finish_refinement()
        return result

    # ------------------------------------------------------------------
    # Refinement phase
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _start_refinement(self) -> None:
        """Build the refinement structures over the fully ingested index."""

    @abc.abstractmethod
    def _refinement_work_time(self) -> float:
        """Time to perform the entire remaining refinement at once."""

    #: Whether the pieces follow PQ's rule (value bounds and pivots); α then
    #: counts the matches of the sorted pieces, which it binary-searches.
    _pq_rule = False

    def _route(self, predicate: Predicate):
        """The predicate as the piece table's keys (``None``: no piece)."""
        return predicate.low, predicate.high

    def _refinement_scan(self, predicate: Predicate) -> tuple:
        """``(α, t_indexed_scan)`` of the partly refined index."""
        n = len(self._column)
        touched = self._pieces.touched(predicate.low, predicate.high, self._route(predicate), self._pq_rule)
        return touched / n, self._cost_model.bucket_scan_time(n)

    def _refinement_lookup_time(self) -> float:
        """Traversal time of the refinement's lookup structure."""
        return 0.0

    @abc.abstractmethod
    def _refine(self, element_budget: int, predicate: Predicate) -> int:
        """Spend up to ``element_budget`` elements of refinement work; return
        the elements processed."""

    def _refinement_answer(self, predicate: Predicate) -> QueryResult:
        """The exact answer from the partly refined index."""
        return self._pieces.answer(predicate.low, predicate.high, self._route(predicate))

    def _refinement_done(self) -> bool:
        """Whether the final array is fully sorted."""
        return self._pieces.done

    def _piece_table(self, sources=None) -> PieceTable:
        """An empty piece table over the final array."""
        return PieceTable(self._final_array, sources, self.sort_threshold, scratch=self._scratch_pool())

    def _refinement_pricing(self, predicate: Predicate):
        """The refinement-phase cost as a function of δ (state read-only);
        the α walk is taken once, however many δ the policy prices."""
        alpha, indexed_scan_time = self._refinement_scan(predicate)
        lookup_time, work_time = self._refinement_lookup_time(), self._refinement_work_time()
        return lambda delta: self._cost_model.refinement_phase_cost(
            alpha, delta, lookup_time, indexed_scan_time, work_time
        )

    def _execute_refinement(self, predicate: Predicate) -> QueryResult:
        n = len(self._column)
        decision = self._decide(self._refinement_work_time(), self._refinement_pricing(predicate))
        element_budget = int(np.ceil(decision.delta * n)) if decision.delta > 0 else 0
        refined = self._refine(element_budget, predicate) if element_budget > 0 else 0
        result = self._refinement_answer(predicate)
        self.last_stats.elements_indexed = refined
        if self._refinement_done():
            self._finish_refinement()
        return result

    def _finish_refinement(self) -> None:
        """The final array is sorted: release the buckets and converge on it."""
        self._buckets = self._pieces = None
        self._sorted_leaf(self._final_array)
        self._advance_phase(IndexPhase.CONVERGED)

    # ------------------------------------------------------------------
    # Converged (shared)
    # ------------------------------------------------------------------
    def _sorted_leaf(self, sorted_array: np.ndarray) -> None:
        """Read through ``sorted_array`` from now on; its prefix sums go
        through the column's memory budget when one is attached."""
        pool = self._scratch_pool()
        self._final_array = sorted_array
        self._leaf = SortedLeaf(sorted_array, None if pool is None else pool.allocate)

    def _converged_cost(self, predicate: Predicate) -> CostBreakdown:
        # Estimate the match count from the predicate's selectivity rather
        # than executing the query: predicted_cost() is documented as
        # side-effect free AND cheap, so planners can call it per query.
        n = len(self._column)
        selectivity = predicate.selectivity(
            float(self._column.min()), float(self._column.max())
        )
        return self._converged_count_cost(int(selectivity * n))

    # ------------------------------------------------------------------
    # Merge phase (mutable substrate; shared by all four algorithms)
    # ------------------------------------------------------------------
    #: A converged progressive index owns a sorted leaf array, so the
    #: buffered delta can be folded in and the budget-priced MERGE phase
    #: applies.
    can_fold = True

    def _merge_phase_cost(self, predicate: Predicate, delta: float) -> CostBreakdown:
        """Converged answering plus ``delta`` of the remaining merge work."""
        base = self._converged_cost(predicate)
        return CostBreakdown(
            scan=base.scan,
            lookup=base.lookup,
            indexing=0.0,
            merge=delta * self._merge_full_work_time(),
        )

    def _fold_delta(self, inserts_sorted: np.ndarray, tombstones_sorted: np.ndarray) -> bool:
        """Merge the buffered delta into the sorted array and read the merge."""
        if self._leaf is None:
            return False
        self._sorted_leaf(merge_sorted_with_delta(self._leaf.values, inserts_sorted, tombstones_sorted))
        return True

    # ------------------------------------------------------------------
    # Persistence (checkpointing; the shared converged stage)
    # ------------------------------------------------------------------
    def _family_state(self) -> dict:
        if self._leaf is not None:
            return {"stage": "converged", "leaf_values": np.array(self._leaf.values)}
        state = {"stage": "construction", self._ingested_key: int(self._ingested)}
        state.update(self._construction_state())
        return state

    def _load_family_state(self, state: dict) -> None:
        # load_state may have re-pinned the snapshot the key space derives from.
        self.__dict__.pop("_keyspace", None)
        stage = state["stage"]
        if stage == "converged" and state.keys() == {"stage", "leaf_values"}:
            self._sorted_leaf(self._checked_leaf(state["leaf_values"]))
        elif stage != "construction" or state.keys() - self._construction_keys:
            raise IndexStateError(f"{self.name} payload of stage {stage!r} with keys {sorted(state)}")
        else:
            self._ingested = int(state[self._ingested_key])
            self._load_construction_state(state)

    #: Routing bounds the piece table's roots span together.
    _outer_keys = (-math.inf, math.inf)

    #: The keys a construction payload may hold.
    _construction_keys = frozenset(("stage", "elements_bucketed", "layout", "initialized", "final_array",
                                    "buckets", "pieces"))

    def _construction_state(self) -> dict:
        """Creation/refinement payload: the creation buckets, the final array
        and the piece table, as arrays."""
        state = {"layout": LAYOUT, "initialized": self.phase is not IndexPhase.INACTIVE}
        if self._final_array is not None:
            state["final_array"] = np.array(self._final_array)
        if self._buckets is not None:
            state["buckets"] = self._buckets.state_dict()
        if self._pieces is not None:
            state["pieces"] = self._pieces.state_dict()
        return state

    def _load_construction_state(self, state: dict) -> None:
        """Restore :meth:`_construction_state` output."""
        if state["layout"] != LAYOUT:
            raise IndexStateError(f"construction layout {state['layout']!r}, expected {LAYOUT}")
        self._load_fields(state)
        if state["initialized"]:
            if "final_array" in state:
                self._final_array = np.asarray(state["final_array"], dtype=self._column.dtype)
                if self._final_array.shape != (len(self._column),):
                    raise IndexStateError("the final array does not match the column")
            if "buckets" in state:
                self._buckets = self._bucket_set(state["buckets"])
            if "pieces" in state:
                self._pieces = PieceTable.from_state(
                    state["pieces"], self._final_array, self._buckets, self._child_set, self._outer_keys,
                    self._pq_rule, sort_threshold=self.sort_threshold, scratch=self._scratch_pool())
        if ((self.phase is IndexPhase.REFINEMENT) != (self._pieces is not None)
                or (self.phase is IndexPhase.CREATION and self._buckets is None and self._final_array is None)):
            raise IndexStateError(f"construction payload without the structures of phase {self.phase.name}")

    def _load_fields(self, state: dict) -> None:
        """Restore the family's own construction fields (PQ's fill, PB's
        bounds)."""

    def _child_set(self, table: PieceTable, piece: int, sizes) -> ExactBucketSet:
        """The exact-offset set holding ``piece``'s children (PMSD only)."""
        raise IndexStateError(f"{self.name} pieces hold no child arrays")

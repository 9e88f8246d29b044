"""The canonical phases of a progressive index.

Section 3 of the paper defines the phases every progressive indexing
algorithm moves through:

``CREATION``
    The index is progressively populated from the base column; queries scan
    the not-yet-indexed tail of the column plus the partial index.
``REFINEMENT``
    All data lives in the index; queries only touch the index while it is
    progressively reorganised towards a fully sorted array.
``CONVERGED``
    The index array is sorted; no further construction work is performed.
    The paper's consolidation phase, which builds a B+-tree over the sorted
    array, has no counterpart: every converged read is a binary search over
    the sorted array itself, so an index converges on the query that
    finishes sorting.
``MERGE``
    The mutable-substrate extension of the paper's life cycle: writes have
    landed in the column's delta store after the index converged, and
    queries now spend their indexing budget progressively *merging* those
    delta rows into the finished structures.  ``MERGE`` is the one phase a
    lifecycle may leave backwards (back to ``CONVERGED`` once the pending
    delta is folded in) — and re-enter when the next write burst arrives.

``INACTIVE`` is the state before the first query touches the column (no
memory has been allocated yet), matching the paper's premise that an index is
only initiated when its column is first queried.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

from repro.errors import IndexStateError


class IndexPhase(enum.Enum):
    """Life-cycle phase of a progressive index."""

    INACTIVE = "inactive"
    CREATION = "creation"
    REFINEMENT = "refinement"
    CONVERGED = "converged"
    MERGE = "merge"

    @property
    def does_indexing_work(self) -> bool:
        """Whether queries in this phase still spend budget on indexing."""
        return self in (IndexPhase.CREATION, IndexPhase.REFINEMENT, IndexPhase.MERGE)

    @property
    def order(self) -> int:
        """Monotone integer ordering of the phases (INACTIVE=0 .. CONVERGED=4)."""
        return _PHASE_ORDER[self]

    def __lt__(self, other: "IndexPhase") -> bool:
        if not isinstance(other, IndexPhase):
            return NotImplemented
        return self.order < other.order

    def __le__(self, other: "IndexPhase") -> bool:
        if not isinstance(other, IndexPhase):
            return NotImplemented
        return self.order <= other.order


_PHASE_ORDER = {
    IndexPhase.INACTIVE: 0,
    IndexPhase.CREATION: 1,
    IndexPhase.REFINEMENT: 2,
    # 3 was the paper's consolidation phase; the exported ordinals keep
    # their values.
    IndexPhase.CONVERGED: 4,
    IndexPhase.MERGE: 5,
}


class IndexLifecycle:
    """Shared phase-transition driver of every index.

    The per-algorithm phase bookkeeping that used to be duplicated across
    the registry (each index carrying its own ``_phase`` attribute and
    hand-rolled transition checks) is centralised here: an index advances
    its lifecycle through :meth:`advance`, which enforces the paper's
    monotone phase order (an index never moves backwards), records the
    transition history, and accumulates per-phase usage statistics
    (queries answered and indexing budget spent per phase) surfaced by
    session stats and the experiment reports.

    Phases may be skipped forward — a baseline that bulk-builds jumps
    straight from ``INACTIVE`` to ``CONVERGED`` — but never revisited, with
    one deliberate exception introduced by the mutable column substrate:
    ``MERGE -> CONVERGED`` is a legal backward transition (folding the
    pending delta completes the merge and the index is fully built again),
    and ``CONVERGED -> MERGE`` may then happen again on the next write
    burst.  Construction phases remain strictly monotone.
    """

    def __init__(self, initial: IndexPhase = IndexPhase.INACTIVE) -> None:
        self._phase = initial
        #: ``(query_number, phase)`` pairs, one per transition.
        self.transitions: List[Tuple[int, IndexPhase]] = []
        self._queries: Dict[IndexPhase, int] = {phase: 0 for phase in IndexPhase}
        self._indexing_seconds: Dict[IndexPhase, float] = {
            phase: 0.0 for phase in IndexPhase
        }
        # Optional callable invoked before any lifecycle mutation.  The
        # serving layer's scheduler installs one that asserts the calling
        # thread holds the index's exclusive work lane, turning an
        # unserialized phase advance (a concurrency bug) into a hard error
        # instead of silent state corruption.  ``None`` (the default, and
        # the only value outside a serving context) costs one attribute
        # check per query.
        self._mutation_guard = None

    def set_mutation_guard(self, guard) -> None:
        """Install ``guard()`` to be called before every lifecycle mutation.

        Pass ``None`` to uninstall.  The guard must raise to veto the
        mutation; its return value is ignored.
        """
        self._mutation_guard = guard

    # ------------------------------------------------------------------
    @property
    def phase(self) -> IndexPhase:
        """The current life-cycle phase."""
        return self._phase

    @property
    def converged(self) -> bool:
        """Whether the lifecycle reached its terminal phase."""
        return self._phase is IndexPhase.CONVERGED

    def advance(self, phase: IndexPhase, query_number: int = 0) -> None:
        """Move to ``phase``, enforcing the monotone phase order.

        Parameters
        ----------
        phase:
            The phase to enter; must be strictly later than the current one.
        query_number:
            The 1-based query during which the transition happened (``0``
            for transitions outside query execution).
        """
        if not isinstance(phase, IndexPhase):
            raise IndexStateError(
                f"advance() expects an IndexPhase, got {type(phase).__name__}"
            )
        if self._mutation_guard is not None:
            self._mutation_guard()
        merge_completed = (
            self._phase is IndexPhase.MERGE and phase is IndexPhase.CONVERGED
        )
        if phase.order <= self._phase.order and not merge_completed:
            raise IndexStateError(
                f"illegal phase transition {self._phase.value!r} -> {phase.value!r}; "
                "progressive indexes only move forward through the life cycle "
                "(the one backward edge is merge -> converged)"
            )
        self._phase = phase
        self.transitions.append((int(query_number), phase))

    # ------------------------------------------------------------------
    def note_query(self, phase: IndexPhase, indexing_seconds: float = 0.0) -> None:
        """Account one executed query to ``phase``.

        ``indexing_seconds`` is the (predicted) indexing budget the query
        spent, i.e. the ``delta * t_work`` term of its cost breakdown.
        """
        if self._mutation_guard is not None:
            self._mutation_guard()
        self._queries[phase] += 1
        if indexing_seconds > 0.0:
            self._indexing_seconds[phase] += float(indexing_seconds)

    def queries_in(self, phase: IndexPhase) -> int:
        """Number of queries answered while in ``phase``."""
        return self._queries[phase]

    def indexing_seconds_in(self, phase: IndexPhase) -> float:
        """Indexing budget (seconds) spent while in ``phase``."""
        return self._indexing_seconds[phase]

    def snapshot(self) -> Dict[str, dict]:
        """Per-phase usage summary for session stats / reports.

        Only phases that were actually visited (answered at least one query
        or appear in the transition history) are included.
        """
        visited = {phase for phase, count in self._queries.items() if count}
        visited.update(phase for _, phase in self.transitions)
        visited.add(self._phase)
        report = {}
        for phase in sorted(visited, key=lambda p: p.order):
            report[phase.value] = {
                "queries": self._queries[phase],
                "indexing_seconds": self._indexing_seconds[phase],
            }
        return report

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the phase machine."""
        return {
            "phase": self._phase.value,
            "transitions": [[int(q), phase.value] for q, phase in self.transitions],
            "queries": {phase.value: int(n) for phase, n in self._queries.items() if n},
            "indexing_seconds": {
                phase.value: float(s)
                for phase, s in self._indexing_seconds.items()
                if s
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a checkpointed phase machine.

        Sets the phase directly — the monotonicity rule of :meth:`advance`
        guards *transitions*, not restores: a recovered index legitimately
        wakes up mid-``REFINEMENT`` or mid-``MERGE``.
        """
        self._phase = IndexPhase(state["phase"])
        self.transitions = [(int(q), IndexPhase(value)) for q, value in state["transitions"]]
        self._queries = {phase: 0 for phase in IndexPhase}
        for value, count in state["queries"].items():
            self._queries[IndexPhase(value)] = int(count)
        self._indexing_seconds = {phase: 0.0 for phase in IndexPhase}
        for value, seconds in state["indexing_seconds"].items():
            self._indexing_seconds[IndexPhase(value)] = float(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IndexLifecycle(phase={self._phase.value!r}, transitions={len(self.transitions)})"

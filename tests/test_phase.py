"""Tests for the index life-cycle phases and the shared lifecycle driver."""

import numpy as np
import pytest

from repro.baselines import FullScan
from repro.core.phase import IndexLifecycle, IndexPhase
from repro.errors import IndexStateError
from repro.persist.upgrade import upgrade
from repro.storage.column import Column


def test_phase_ordering_is_monotone():
    ordered = [
        IndexPhase.INACTIVE,
        IndexPhase.CREATION,
        IndexPhase.REFINEMENT,
        IndexPhase.CONVERGED,
        IndexPhase.MERGE,
    ]
    for earlier, later in zip(ordered, ordered[1:]):
        assert earlier < later
        assert earlier <= later
        assert not later < earlier


def test_indexing_work_flags():
    assert not IndexPhase.INACTIVE.does_indexing_work
    assert IndexPhase.CREATION.does_indexing_work
    assert IndexPhase.REFINEMENT.does_indexing_work
    assert not IndexPhase.CONVERGED.does_indexing_work
    assert IndexPhase.MERGE.does_indexing_work


def test_comparison_with_other_types_is_rejected():
    assert IndexPhase.CREATION.__lt__(3) is NotImplemented
    assert IndexPhase.CREATION.__le__("creation") is NotImplemented


def test_order_values_are_unique():
    orders = {phase.order for phase in IndexPhase}
    assert len(orders) == len(list(IndexPhase))


class TestIndexLifecycle:
    def test_starts_inactive(self):
        lifecycle = IndexLifecycle()
        assert lifecycle.phase is IndexPhase.INACTIVE
        assert not lifecycle.converged
        assert lifecycle.transitions == []

    def test_advances_through_canonical_sequence(self):
        lifecycle = IndexLifecycle()
        for query_number, phase in enumerate(
            [IndexPhase.CREATION, IndexPhase.REFINEMENT, IndexPhase.CONVERGED],
            start=1,
        ):
            lifecycle.advance(phase, query_number)
        assert lifecycle.converged
        assert [phase for _, phase in lifecycle.transitions] == [
            IndexPhase.CREATION, IndexPhase.REFINEMENT, IndexPhase.CONVERGED,
        ]
        assert [number for number, _ in lifecycle.transitions] == [1, 2, 3]

    def test_phases_may_be_skipped_forward(self):
        lifecycle = IndexLifecycle()
        lifecycle.advance(IndexPhase.CONVERGED)  # a bulk-built baseline
        assert lifecycle.converged

    def test_rejects_backward_transition(self):
        lifecycle = IndexLifecycle()
        lifecycle.advance(IndexPhase.REFINEMENT)
        with pytest.raises(IndexStateError):
            lifecycle.advance(IndexPhase.CREATION)

    def test_rejects_self_transition(self):
        lifecycle = IndexLifecycle()
        lifecycle.advance(IndexPhase.CREATION)
        with pytest.raises(IndexStateError):
            lifecycle.advance(IndexPhase.CREATION)

    def test_rejects_non_phase(self):
        with pytest.raises(IndexStateError):
            IndexLifecycle().advance("creation")

    def test_per_phase_accounting(self):
        lifecycle = IndexLifecycle()
        lifecycle.advance(IndexPhase.CREATION)
        lifecycle.note_query(IndexPhase.CREATION, indexing_seconds=0.5)
        lifecycle.note_query(IndexPhase.CREATION, indexing_seconds=0.25)
        lifecycle.advance(IndexPhase.REFINEMENT)
        lifecycle.note_query(IndexPhase.REFINEMENT)
        assert lifecycle.queries_in(IndexPhase.CREATION) == 2
        assert lifecycle.indexing_seconds_in(IndexPhase.CREATION) == pytest.approx(0.75)
        assert lifecycle.queries_in(IndexPhase.REFINEMENT) == 1
        assert lifecycle.indexing_seconds_in(IndexPhase.REFINEMENT) == 0.0

    def test_snapshot_lists_visited_phases_in_order(self):
        lifecycle = IndexLifecycle()
        lifecycle.advance(IndexPhase.CREATION)
        lifecycle.note_query(IndexPhase.CREATION, indexing_seconds=0.5)
        lifecycle.advance(IndexPhase.CONVERGED)
        snapshot = lifecycle.snapshot()
        assert list(snapshot) == ["creation", "converged"]
        assert snapshot["creation"] == {"queries": 1, "indexing_seconds": 0.5}

    def test_a_checkpointed_consolidation_phase_loads_as_converged(self):
        """Format-1 checkpoints name the paper's consolidation phase; its
        index was already sorted, so the upgrade reads it as an entry into
        CONVERGED.  The loader itself refuses the name."""
        stored = {
            "phase": "consolidation",
            "transitions": [[1, "creation"], [4, "refinement"], [9, "consolidation"], [13, "converged"]],
            "queries": {"creation": 3, "refinement": 5, "consolidation": 4, "converged": 2},
            "indexing_seconds": {"creation": 0.5, "consolidation": 0.25},
        }
        with pytest.raises(ValueError):
            IndexLifecycle().load_state(stored)
        index = FullScan(Column(np.arange(10)))
        state = {**index.state_dict(), "format": 1, "lifecycle": stored}
        lifecycle = IndexLifecycle()
        lifecycle.load_state(upgrade(state, index)["lifecycle"])
        assert lifecycle.phase is IndexPhase.CONVERGED
        assert lifecycle.transitions == [
            (1, IndexPhase.CREATION), (4, IndexPhase.REFINEMENT), (9, IndexPhase.CONVERGED)]
        assert lifecycle.queries_in(IndexPhase.CONVERGED) == 6
        assert lifecycle.indexing_seconds_in(IndexPhase.CONVERGED) == 0.25

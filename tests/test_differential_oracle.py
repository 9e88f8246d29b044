"""Differential property test harness: every algorithm vs. the FullScan oracle.

Every algorithm in the registry — the four progressive indexes, all five
cracking variants and both baselines — is run against a ``FullScan`` oracle
over seeded randomized workloads drawn from the synthetic distributions
(:mod:`repro.workloads.distributions`).  At *every* query the answers must be
identical; for the progressive indexes the workloads are long enough (and the
budget generous enough) to drive the index through full convergence, so the
equivalence is also asserted for the converged cascade path.

Float64 columns get the same treatment (including negative values and
fractional predicate bounds): counts must be exactly equal and sums equal up
to float-addition associativity.  This exercises the order-preserving key
codecs end to end — before them, LSD radix construction silently misordered
float fractional parts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.full_scan import FullScan
from repro.core.phase import IndexPhase
from repro.core.policy import CostModelGreedy, FixedDelta, TimeAdaptive
from repro.core.query import Predicate, QueryResult
from repro.engine.batch import BatchExecutor
from repro.engine.registry import ALGORITHMS, PROGRESSIVE_ALGORITHMS, create_index
from repro.storage.column import Column
from repro.workloads.distributions import skewed_data, uniform_data

#: Column size: small enough to keep the grid fast, large enough to exercise
#: multi-piece cracking and multi-level progressive refinement.
N_ELEMENTS = 6_000

#: Workload length; with ``delta = 0.5`` every progressive index converges
#: well before the workload ends.
N_QUERIES = 80

DISTRIBUTIONS = {
    "uniform": lambda rng: uniform_data(N_ELEMENTS, rng=rng),
    "skewed": lambda rng: skewed_data(N_ELEMENTS, rng=rng),
}

#: The three budget-policy flavours of the adaptive execution layer.  Each
#: is generous enough to drive every progressive index through full
#: convergence within the workload, so the differential property is also
#: asserted on the converged cascade path under every policy.
POLICIES = {
    "fixed_delta": lambda: FixedDelta(0.5),
    "time_adaptive": lambda: TimeAdaptive(scan_fraction=4.0),
    "cost_model_greedy": lambda: CostModelGreedy(scan_fraction=4.0),
}


def seeded_workload(data: np.ndarray, rng: np.random.Generator, n_queries: int = N_QUERIES):
    """Randomized mix of range and point queries over the data's domain.

    Includes exact-value point queries, absent-value point queries and
    ranges of varied widths, all drawn from the seeded generator.
    """
    low, high = int(data.min()), int(data.max())
    predicates = []
    for query_number in range(n_queries):
        kind = query_number % 4
        if kind == 0:  # point query on an existing value
            value = int(data[rng.integers(0, data.size)])
            predicates.append(Predicate(value, value))
        elif kind == 1:  # narrow range
            start = int(rng.integers(low, max(low + 1, high - 10)))
            predicates.append(Predicate(start, start + 10))
        elif kind == 2:  # wide range
            width = int((high - low) * 0.2) + 1
            start = int(rng.integers(low, max(low + 1, high - width)))
            predicates.append(Predicate(start, start + width))
        else:  # range possibly outside the domain
            start = int(rng.integers(low - 100, high + 100))
            predicates.append(Predicate(start, start + int(rng.integers(0, 50))))
    return predicates


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_matches_full_scan_oracle(name, distribution, policy_name):
    rng = np.random.default_rng(20_260_730)
    data = DISTRIBUTIONS[distribution](rng)
    column = Column(data, name="value")
    oracle = FullScan(Column(data, name="value"))
    # Every policy is generous enough to drive progressive indexes through
    # every phase (creation, refinement, converged) within the workload.
    index = create_index(name, column, budget=POLICIES[policy_name]())
    converged_queries = 0
    for query_number, predicate in enumerate(seeded_workload(data, rng)):
        expected = oracle.query(predicate)
        answer = index.query(predicate)
        assert answer.count == expected.count, (
            f"{name}/{distribution}/{policy_name}: count mismatch at query "
            f"{query_number} ({predicate}) in phase {index.phase}"
        )
        assert answer.value_sum == expected.value_sum, (
            f"{name}/{distribution}/{policy_name}: sum mismatch at query "
            f"{query_number} ({predicate}) in phase {index.phase}"
        )
        if index.converged:
            converged_queries += 1
    if name in PROGRESSIVE_ALGORITHMS:
        # The equivalence must also have been exercised after convergence.
        assert index.converged, (
            f"{name} failed to converge within the workload under {policy_name}"
        )
        assert converged_queries > 0


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_batch_execution_matches_full_scan_oracle(name, policy_name):
    """The differential property holds for the batch path under every policy."""
    rng = np.random.default_rng(7)
    data = uniform_data(N_ELEMENTS, rng=rng)
    oracle = FullScan(Column(data, name="value"))
    predicates = seeded_workload(data, rng, n_queries=40)
    expected = [oracle.query(predicate) for predicate in predicates]
    index = create_index(name, Column(data, name="value"), budget=POLICIES[policy_name]())
    batch = BatchExecutor().execute(index, predicates)
    for query_number, (want, got) in enumerate(zip(expected, batch.results)):
        assert got.count == want.count, f"{name}/{policy_name}: batch query {query_number}"
        assert got.value_sum == want.value_sum, (
            f"{name}/{policy_name}: batch query {query_number}"
        )


# ----------------------------------------------------------------------
# Float64 columns
# ----------------------------------------------------------------------

FLOAT_DISTRIBUTIONS = {
    "normal": lambda rng: rng.normal(0.0, 1.0, size=N_ELEMENTS),
    "uniform_negative": lambda rng: rng.uniform(-1_000.0, 1_000.0, size=N_ELEMENTS),
    "mixed_magnitudes": lambda rng: np.concatenate(
        [
            rng.normal(0.0, 1e-3, size=N_ELEMENTS // 2),
            rng.normal(0.0, 1e6, size=N_ELEMENTS - N_ELEMENTS // 2),
        ]
    ),
}


def seeded_float_workload(data: np.ndarray, rng: np.random.Generator, n_queries: int = N_QUERIES):
    """Randomized float workload: exact/absent points and fractional ranges."""
    low, high = float(data.min()), float(data.max())
    span = high - low
    predicates = []
    for query_number in range(n_queries):
        kind = query_number % 4
        if kind == 0:  # point query on an existing value
            value = float(data[rng.integers(0, data.size)])
            predicates.append(Predicate(value, value))
        elif kind == 1:  # narrow fractional range
            start = float(rng.uniform(low, high))
            predicates.append(Predicate(start, start + span * 1e-3))
        elif kind == 2:  # wide range
            start = float(rng.uniform(low, high - 0.2 * span))
            predicates.append(Predicate(start, start + 0.2 * span))
        else:  # range possibly outside the domain
            start = float(rng.uniform(low - 0.1 * span, high + 0.1 * span))
            predicates.append(Predicate(start, start + float(rng.uniform(0, 0.05 * span))))
    return predicates


@pytest.mark.parametrize("distribution", sorted(FLOAT_DISTRIBUTIONS))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_matches_full_scan_oracle_on_float64(name, distribution):
    rng = np.random.default_rng(20_260_731)
    data = FLOAT_DISTRIBUTIONS[distribution](rng)
    oracle = FullScan(Column(data, name="value"))
    index = create_index(name, Column(data, name="value"), budget=FixedDelta(0.5))
    converged_queries = 0
    for query_number, predicate in enumerate(seeded_float_workload(data, rng)):
        expected = oracle.query(predicate)
        answer = index.query(predicate)
        assert answer.count == expected.count, (
            f"{name}/{distribution}: count mismatch at query {query_number} "
            f"({predicate}) in phase {index.phase}"
        )
        assert answer.approximately_equals(expected), (
            f"{name}/{distribution}: sum mismatch at query {query_number} "
            f"({predicate}) in phase {index.phase}"
        )
        if index.converged:
            converged_queries += 1
    if name in PROGRESSIVE_ALGORITHMS:
        # The equivalence must also have been exercised after convergence —
        # float columns included (the codecs make PLSD converge sorted).
        assert index.converged, f"{name} failed to converge on float64 data"
        assert converged_queries > 0


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_batch_execution_matches_oracle_on_float64(name):
    rng = np.random.default_rng(11)
    data = rng.normal(0.0, 100.0, size=N_ELEMENTS)
    oracle = FullScan(Column(data, name="value"))
    predicates = seeded_float_workload(data, rng, n_queries=40)
    expected = [oracle.query(predicate) for predicate in predicates]
    index = create_index(name, Column(data, name="value"), budget=FixedDelta(0.5))
    batch = BatchExecutor().execute(index, predicates)
    for query_number, (want, got) in enumerate(zip(expected, batch.results)):
        assert got.count == want.count, f"{name}: float batch query {query_number}"
        assert got.approximately_equals(want), f"{name}: float batch query {query_number}"


# ----------------------------------------------------------------------
# Mutation oracle: random write/query interleavings on the mutable substrate
# ----------------------------------------------------------------------

#: Smaller column for the mutation grid (13 algorithms x 3 policies).
N_MUTATION_ELEMENTS = 4_000

#: Writes per mutation step are chunky enough that the pending delta crosses
#: the merge trigger of converged foldable indexes, so the MERGE life-cycle
#: stage (budget-priced folding) is genuinely exercised, not just the
#: overlay correction.
INSERT_BATCH = 12


def apply_random_write(rng: np.random.Generator, columns, low: int, high: int) -> str:
    """Apply one random insert/delete/update to every column in ``columns``."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        values = rng.integers(low, high + 1, size=INSERT_BATCH)
        for column in columns:
            column.insert(values)
        return "insert"
    start = int(rng.integers(low, high))
    width = int((high - low) * 0.01) + 1
    if kind == 1:
        for column in columns:
            column.delete_where(start, start + width)
        return "delete"
    target = int(rng.integers(low, high))
    for column in columns:
        column.update_where(start, start + width, target)
    return "update"


def reference_answer(reference: Column, predicate: Predicate):
    """FullScan over the mutable reference column (the oracle)."""
    return reference.scan_range(predicate.low, predicate.high)


def assert_matches_reference(name, policy_name, index, reference, predicate, step):
    got = index.query(predicate)
    want_sum, want_count = reference_answer(reference, predicate)
    assert got.count == want_count, (
        f"{name}/{policy_name}: count mismatch at mutation step {step} "
        f"({predicate}) in phase {index.phase}"
    )
    assert got.value_sum == want_sum, (
        f"{name}/{policy_name}: sum mismatch at mutation step {step} "
        f"({predicate}) in phase {index.phase}"
    )


def random_read(rng: np.random.Generator, low: int, high: int) -> Predicate:
    kind = int(rng.integers(0, 3))
    if kind == 0:  # point query
        value = int(rng.integers(low - 5, high + 5))
        return Predicate(value, value)
    if kind == 1:  # narrow range
        start = int(rng.integers(low, high))
        return Predicate(start, start + max(1, (high - low) // 100))
    start = int(rng.integers(low - 50, high))  # wide range, may leave domain
    return Predicate(start, start + (high - low) // 4)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_mutation_oracle_matches_mutable_full_scan(name, policy_name):
    """Any interleaving of writes and queries equals the mutable reference.

    Stage 1 drives the index through construction (progressive indexes
    converge), stage 2 interleaves random inserts / range deletes / range
    updates with range and point queries, and stage 3 keeps querying so
    budget-priced merging runs to completion — answers must equal a
    FullScan over an identically mutated reference column at *every* step,
    before and after convergence.
    """
    rng = np.random.default_rng(20_260_801)
    data = uniform_data(N_MUTATION_ELEMENTS, rng=rng)
    low, high = int(data.min()), int(data.max())
    column = Column(data, name="value")
    reference = Column(data.copy(), name="reference")
    index = create_index(name, column, budget=POLICIES[policy_name]())

    # Stage 1: read-only construction drive.
    for step in range(25):
        assert_matches_reference(
            name, policy_name, index, reference, random_read(rng, low, high), step
        )
    if name in PROGRESSIVE_ALGORITHMS:
        assert index.converged, (
            f"{name} failed to converge before the mutation stage under {policy_name}"
        )

    # Stage 2: random write/query interleaving.
    for step in range(25, 65):
        if rng.random() < 0.45:
            apply_random_write(rng, (column, reference), low, high)
        assert_matches_reference(
            name, policy_name, index, reference, random_read(rng, low, high), step
        )

    # Stage 3: drain — budget-priced merging completes under every policy.
    for step in range(65, 85):
        assert_matches_reference(
            name, policy_name, index, reference, random_read(rng, low, high), step
        )
    if name in PROGRESSIVE_ALGORITHMS or name == "FI":
        visited = {phase for _, phase in index.lifecycle.transitions}
        assert IndexPhase.MERGE in visited, (
            f"{name}/{policy_name}: the budget-priced MERGE stage never ran "
            f"(transitions: {index.lifecycle.transitions})"
        )


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_mutation_oracle_batch_path(name):
    """Batches interleaved with writes equal the mutable reference."""
    rng = np.random.default_rng(97)
    data = uniform_data(N_MUTATION_ELEMENTS, rng=rng)
    low, high = int(data.min()), int(data.max())
    column = Column(data, name="value")
    reference = Column(data.copy(), name="reference")
    index = create_index(name, column, budget=FixedDelta(0.5))
    executor = BatchExecutor()
    for round_number in range(6):
        if round_number > 0:
            for _ in range(3):
                apply_random_write(rng, (column, reference), low, high)
        predicates = [random_read(rng, low, high) for _ in range(20)]
        batch = executor.execute(index, predicates)
        for query_number, (predicate, got) in enumerate(zip(predicates, batch.results)):
            want_sum, want_count = reference_answer(reference, predicate)
            assert got.count == want_count, (
                f"{name}: batch round {round_number} query {query_number} "
                f"({predicate}) in phase {index.phase}"
            )
            assert got.value_sum == want_sum, (
                f"{name}: batch round {round_number} query {query_number}"
            )


def test_mutation_oracle_float64_columns():
    """The mutable substrate is exact on float columns too (PQ + cracking)."""
    rng = np.random.default_rng(5)
    data = rng.normal(0.0, 1_000.0, size=N_MUTATION_ELEMENTS)
    for name in ("PQ", "STD", "FS", "FI"):
        column = Column(data.copy(), name="value")
        reference = Column(data.copy(), name="reference")
        index = create_index(name, column, budget=FixedDelta(0.5))
        for step in range(40):
            if 10 < step and rng.random() < 0.4:
                start = float(rng.uniform(-2_000, 2_000))
                column.insert(np.array([start, start + 0.5]))
                reference.insert(np.array([start, start + 0.5]))
                column.delete_where(start - 50.0, start - 10.0)
                reference.delete_where(start - 50.0, start - 10.0)
            lo = float(rng.uniform(-3_000, 2_500))
            predicate = Predicate(lo, lo + float(rng.uniform(0, 500)))
            got = index.query(predicate)
            want_sum, want_count = reference.scan_range(predicate.low, predicate.high)
            assert got.count == want_count, f"{name}: float mutation step {step}"
            assert got.approximately_equals(QueryResult(want_sum, want_count)), (
                f"{name}: float mutation step {step}"
            )

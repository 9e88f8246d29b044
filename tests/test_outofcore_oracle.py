"""Differential oracle for the out-of-core substrate.

Every registry algorithm answers over a block-compressed column under a
memory budget far below the dataset size, and every answer — before
convergence, after convergence, and across mid-stream writes that cross
the delta-spill boundary — must equal both a :class:`FullScan` oracle over
the same compressed column and plain NumPy over the raw values.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core.policy import FixedDelta
from repro.core.query import Predicate
from repro.engine.registry import ALGORITHMS, create_index
from repro.engine.session import IndexingSession
from repro.persist.compress import write_compressed_column
from repro.persist.pager import map_column_file
from repro.storage.column import Column
from repro.storage import scratch
from repro.storage.membudget import MemoryBudget
from repro.storage.scratch import ScratchAllocator
from repro.storage.table import Table

ROWS = 6000
DOMAIN = 40_000
BLOCK_ROWS = 512


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One compressed column file shared by every parametrized case."""
    path = str(tmp_path_factory.mktemp("outofcore") / "v.col")
    data = np.random.default_rng(11).integers(0, DOMAIN, ROWS).astype(np.int64)
    write_compressed_column(path, data, block_rows=BLOCK_ROWS)
    return path, data


def _tiny_budget(tmp_path) -> MemoryBudget:
    # Clamped up to the 1 MiB floor — still far below what the engine
    # would like (index array + scratch + copies of a 6000-row column all
    # compete inside it), so the spill paths genuinely engage.
    return MemoryBudget(1, spill_dir=str(tmp_path))


def _predicates(seed: int, count: int = 20):
    rng = np.random.default_rng(seed)
    lows = rng.integers(0, DOMAIN - 2000, size=count)
    return [(int(low), int(low) + 2000) for low in lows.tolist()]


def _check(result, data, low, high, context):
    mask = (data >= low) & (data <= high)
    assert result.count == int(mask.sum()), context
    assert int(result.value_sum) == int(data[mask].sum(dtype=np.int64)), context


def _drive_against_oracle(algorithm, path, data, budget, oracle_budget):
    column = Column.from_file(path, name="v", memory_budget=budget)
    oracle_column = Column.from_file(path, name="v", memory_budget=oracle_budget)
    index = create_index(algorithm, column, budget=FixedDelta(0.25))
    oracle = create_index("FS", oracle_column)

    # Pre-convergence: the construction kernels stream under the budget.
    for number, (low, high) in enumerate(_predicates(1)):
        mine = index.query(Predicate(low, high))
        theirs = oracle.query(Predicate(low, high))
        assert mine.count == theirs.count
        assert int(mine.value_sum) == int(theirs.value_sum)
        _check(mine, data, low, high, f"{algorithm} pre-convergence #{number}")

    # Drive construction; the progressive families must fully converge
    # even though the dataset never fits the budget's scratch allowance.
    for low, high in _predicates(2, count=60):
        index.query(Predicate(low, high))
        if index.converged:
            break

    for number, (low, high) in enumerate(_predicates(3)):
        _check(index.query(Predicate(low, high)), data, low, high,
               f"{algorithm} post-drive #{number}")


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_algorithm_matches_oracle_under_budget(algorithm, dataset, tmp_path):
    path, data = dataset
    _drive_against_oracle(
        algorithm, path, data, _tiny_budget(tmp_path), _tiny_budget(tmp_path / "oracle"))


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_algorithm_does_not_rely_on_fresh_spill_files_reading_as_zeros(
    algorithm, dataset, tmp_path, monkeypatch
):
    """The same matrix with every scratch array spilled and every reused spill
    file filled with 0xFF first: a spilled array's contents are unspecified."""
    path, data = dataset
    take_free = ScratchAllocator._take_free

    def take_poisoned(self, nbytes):
        found = take_free(self, nbytes)
        if found is not None:
            size, handle = found
            os.pwrite(handle.fileno(), b"\xff" * size, 0)
        return found

    monkeypatch.setattr(ScratchAllocator, "_take_free", take_poisoned)
    monkeypatch.setattr(scratch, "SMALL_ALLOCATION_BYTES", 1)
    budget = _tiny_budget(tmp_path)
    allocator = budget._scratch = ScratchAllocator(0, str(tmp_path))  # nothing stays resident
    for rows in (2 * ROWS, 1 << 18):  # two released files: index-array and bucket-slab sized
        allocator.allocate(rows, np.int64)
    gc.collect()
    assert len(allocator._free) == 2
    _drive_against_oracle(algorithm, path, data, budget, _tiny_budget(tmp_path / "oracle"))
    assert allocator.stats()["spill_reused"] >= 1 or algorithm == "FS"  # a scan allocates nothing


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_algorithm_absorbs_spilled_writes(algorithm, dataset, tmp_path):
    """Mid-stream inserts crossing the delta-spill boundary stay exact."""
    path, data = dataset
    budget = _tiny_budget(tmp_path)
    table = Table({"v": Column.from_file(path, name="v", memory_budget=budget)})
    session = IndexingSession(table)
    session.create_index("v", method=algorithm, fixed_delta=0.25)

    for low, high in _predicates(4, count=6):
        _check(session.between("v", low, high), data, low, high,
               f"{algorithm} before writes")

    # Far more rows than the in-memory delta-log allowance of the clamped
    # 1 MiB budget: the logs must seal into on-disk runs mid-stream.
    rng = np.random.default_rng(5)
    inserted = rng.integers(0, DOMAIN, size=20_000).astype(np.int64)
    session.insert({"v": inserted})
    full = np.concatenate([data, inserted])
    delta = table.column("v").delta
    assert delta is not None and delta.memory_budget is budget

    for number, (low, high) in enumerate(_predicates(6, count=12)):
        _check(session.between("v", low, high), full, low, high,
               f"{algorithm} after spilled inserts #{number}")


@pytest.mark.parametrize("algorithm", ["PQ", "STC"])
def test_deletes_after_spill_stay_exact(algorithm, dataset, tmp_path):
    path, data = dataset
    table = Table(
        {"v": Column.from_file(path, name="v", memory_budget=_tiny_budget(tmp_path))}
    )
    session = IndexingSession(table)
    session.create_index("v", method=algorithm, fixed_delta=0.25)

    inserted = np.random.default_rng(7).integers(0, DOMAIN, 15_000).astype(np.int64)
    session.insert({"v": inserted})
    full = np.concatenate([data, inserted])
    removed = session.delete("v", 1000, 3000)
    full = full[(full < 1000) | (full > 3000)]
    assert removed == ROWS + 15_000 - full.size

    for low, high in _predicates(8, count=12):
        _check(session.between("v", low, high), full, low, high,
               f"{algorithm} after delete")


def test_session_budget_attaches_to_columns(dataset, tmp_path):
    """IndexingSession(memory_budget=...) covers budget-less columns."""
    path, data = dataset
    budget = _tiny_budget(tmp_path)
    session = IndexingSession(
        Table({"v": Column.from_file(path, name="v")}), memory_budget=budget
    )
    assert session.table.column("v").memory_budget is budget
    session.create_index("v", method="PQ", fixed_delta=0.5)
    for low, high in _predicates(9, count=8):
        _check(session.between("v", low, high), data, low, high, "session budget")
    status = session.memory_status()
    assert status is not None and status["total_bytes"] == budget.total_bytes

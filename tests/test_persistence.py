"""Durability subsystem tests: pager, WAL, checkpoints, Database recovery.

The centerpiece is the checkpoint round-trip property: for **all 13
algorithms x 3 budget policies**, serializing an index mid-convergence with
``state_dict()`` and loading it into a fresh index over the same column
yields answers identical to the never-restarted index — pre- and
post-convergence, on int64 and float64 columns, through both the per-query
and the vectorized batch path — while resuming in the same life-cycle phase
(never RAW).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.baselines.full_scan import FullScan
from repro.core.phase import IndexPhase
from repro.core.policy import CostModelGreedy, FixedDelta, TimeAdaptive
from repro.core.query import Predicate
from repro.engine.registry import ALGORITHMS
from repro.errors import InvalidBudgetError, PersistenceError
from repro.extensions.column_imprints import ProgressiveColumnImprints
from repro.extensions.progressive_hash import ProgressiveHashIndex
from repro.persist.checkpoint import CheckpointManager
from repro.persist.database import Database
from repro.persist.pager import (
    ColumnPager,
    decode_state,
    encode_state,
    map_column_file,
    write_column_file,
)
from repro.persist.wal import WriteAheadLog
from repro.storage.column import SNAPSHOT_CACHE_SIZE, Column

#: The 13 checkpointable algorithms: the full registry plus both extensions.
ALL_ALGORITHMS = {
    **ALGORITHMS,
    "PHASH": ProgressiveHashIndex,
    "PIMP": ProgressiveColumnImprints,
}

POLICIES = {
    "fixed": lambda: FixedDelta(0.25),
    "time-adaptive": lambda: TimeAdaptive(scan_fraction=0.2),
    "greedy": lambda: CostModelGreedy(scan_fraction=0.2),
}


# ----------------------------------------------------------------------
# State codec
# ----------------------------------------------------------------------
def test_state_codec_round_trip():
    state = {
        "name": "x",
        "nested": {"flag": True, "arr": np.arange(10, dtype=np.int64)},
        "list": [1, 2.5, None, np.linspace(0, 1, 5)],
    }
    decoded = decode_state(encode_state(state))
    assert decoded["name"] == "x"
    assert decoded["nested"]["flag"] is True
    assert np.array_equal(decoded["nested"]["arr"], state["nested"]["arr"])
    assert np.allclose(decoded["list"][3], state["list"][3])
    assert decoded["list"][2] is None
    # Decoded arrays must be writable (restored structures mutate in place).
    decoded["nested"]["arr"][0] = 99


def test_state_codec_rejects_garbage():
    with pytest.raises(PersistenceError):
        decode_state(b"not a state blob")


# ----------------------------------------------------------------------
# Pager / mmap column files
# ----------------------------------------------------------------------
def test_column_file_round_trip_and_mmap(tmp_path):
    path = str(tmp_path / "c.col")
    data = np.arange(1000, dtype=np.int64) * 3
    write_column_file(path, data)
    mapped = map_column_file(path)
    assert isinstance(mapped, np.memmap)
    assert np.array_equal(mapped, data)

    column = Column(mapped, name="c")
    assert column.is_mapped
    # Pre-write snapshots share the mapping: zero copies of the base data.
    snapshot = column.snapshot()
    assert snapshot.data.base is not None
    value_sum, count = snapshot.scan_range(0, 300)
    assert count == 101 and value_sum == data[data <= 300].sum()


def test_column_pager_handles_awkward_names(tmp_path):
    pager = ColumnPager(str(tmp_path))
    data = np.arange(10, dtype=np.float64)
    pager.store("weird/../name", data)
    assert np.array_equal(pager.load("weird/../name"), data)
    stored = list(tmp_path.iterdir())
    assert all(entry.parent == tmp_path for entry in stored)


def test_truncated_column_file_is_rejected(tmp_path):
    path = str(tmp_path / "c.col")
    write_column_file(path, np.arange(100, dtype=np.int64))
    with open(path, "r+b") as handle:
        handle.truncate(50)
    with pytest.raises(PersistenceError):
        map_column_file(path)


# ----------------------------------------------------------------------
# Snapshot LRU (read-cache retention regression)
# ----------------------------------------------------------------------
def test_snapshot_cache_is_bounded_and_shared():
    column = Column(np.arange(1000, dtype=np.int64))
    column.insert([5])
    first = column.snapshot()
    # Same version -> same materialized snapshot object (no duplicate copy).
    assert column.snapshot() is first
    # A long write stream must not retain every historical version's cache.
    for number in range(SNAPSHOT_CACHE_SIZE * 4):
        column.insert([number])
        column.snapshot()
    versions = column.cached_snapshot_versions()
    assert len(versions) <= SNAPSHOT_CACHE_SIZE
    assert first.version not in versions  # the old version was evicted ...
    # ... but an evicted version can still be re-materialized correctly.
    again = column.snapshot(first.version)
    assert np.array_equal(again.data, first.data)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
def test_wal_commit_boundary(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_insert({"a": np.array([1, 2, 3])})
    wal.commit()
    wal.append_insert({"a": np.array([4])})  # never committed
    wal.close()

    _, committed = WriteAheadLog.open(path)
    assert len(committed) == 1
    assert np.array_equal(committed[0].columns["a"], [1, 2, 3])


def test_wal_torn_tail_is_truncated(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_delete(np.array([7, 8]))
    wal.commit()
    wal.append_insert({"a": np.array([9])})
    wal.close()
    # Tear the last frame mid-payload, as a crash mid-append would.
    with open(path, "r+b") as handle:
        handle.seek(0, 2)
        handle.truncate(handle.tell() - 5)

    reopened, committed = WriteAheadLog.open(path)
    assert len(committed) == 1 and committed[0].kind == "delete"
    # The log stays appendable after truncation.
    reopened.append_insert({"a": np.array([10])})
    reopened.commit()
    reopened.close()
    _, committed = WriteAheadLog.open(path)
    assert [record.kind for record in committed] == ["delete", "insert"]


def test_wal_recovery_discards_uncommitted_frames_permanently(tmp_path):
    """A later commit marker must never resurrect a discarded operation.

    Recovery drops operations after the last commit marker from the delta
    stores; if their frames stayed in the log, the *next* commit marker
    would retroactively cover them and a second recovery would replay
    writes the first recovery correctly discarded.
    """
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_insert({"a": np.array([100])})
    wal.commit()
    wal.append_insert({"a": np.array([200])})  # crash before commit
    wal.close()

    reopened, committed = WriteAheadLog.open(path)
    assert [np.asarray(r.columns["a"])[0] for r in committed] == [100]
    reopened.append_insert({"a": np.array([300])})
    reopened.commit()
    reopened.close()

    _, committed = WriteAheadLog.open(path)
    values = [int(np.asarray(record.columns["a"])[0]) for record in committed]
    assert values == [100, 300]  # 200 must NOT come back from the dead


def test_wal_mid_file_corruption_is_reported_not_truncated(tmp_path):
    """Damage before valid committed frames must raise, not drop history."""
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_insert({"a": np.arange(50)})
    wal.commit()
    wal.append_insert({"a": np.arange(50) * 2})
    wal.commit()
    wal.close()
    size = (tmp_path / "wal.log").stat().st_size
    with open(path, "r+b") as handle:
        handle.seek(size // 3)  # inside the first committed insert frame
        byte = handle.read(1)
        handle.seek(size // 3)
        handle.write(bytes([byte[0] ^ 0xFF]))

    with pytest.raises(PersistenceError):
        WriteAheadLog.open(path)
    # The damaged log was left untouched for forensics.
    assert (tmp_path / "wal.log").stat().st_size == size


def test_wal_op_ids_stay_monotone_across_reset(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_insert({"a": np.array([1])})
    marker = wal.commit()
    wal.reset()
    assert wal.next_op_id == marker + 1
    op = wal.append_insert({"a": np.array([2])})
    assert op > marker
    wal.close()


# ----------------------------------------------------------------------
# Checkpoint manager
# ----------------------------------------------------------------------
def test_checkpoint_publish_and_reload(tmp_path):
    manager = CheckpointManager(str(tmp_path))
    assert manager.load() is None
    manager.write({"op_id": 7, "payload": np.arange(5)})
    state = manager.load()
    assert state["op_id"] == 7
    assert np.array_equal(state["payload"], np.arange(5))
    with pytest.raises(PersistenceError):
        manager.write({"payload": np.arange(2)})  # missing op_id watermark


# ----------------------------------------------------------------------
# Checkpoint round-trip property: 13 algorithms x 3 policies
# ----------------------------------------------------------------------
def _make_data(dtype, rng):
    data = rng.integers(0, 40_000, size=1200)
    if dtype == "float64":
        return data.astype(np.float64) + 0.5
    return data.astype(np.int64)


def _query_predicates(rng, count=14):
    lows = rng.integers(0, 36_000, size=count)
    return [Predicate(int(low), int(low) + 3000) for low in lows]


def _assert_round_trip(cls, policy_factory, data, cut, batch=False):
    """Run ``cut`` queries, checkpoint, restore, and compare both arms."""
    rng = np.random.default_rng(77)
    predicates = _query_predicates(rng)
    original = cls(Column(data.copy(), name="v"), budget=policy_factory())
    for predicate in predicates[:cut]:
        original.query(predicate)
    phase_at_checkpoint = original.phase

    state = decode_state(encode_state(original.state_dict()))
    restored = cls(Column(data.copy(), name="v"), budget=policy_factory())
    restored.load_state(state)
    assert restored.phase is phase_at_checkpoint
    if phase_at_checkpoint is not IndexPhase.INACTIVE:
        assert restored.phase is not IndexPhase.INACTIVE  # never back to RAW

    follow_up = predicates[cut:] or predicates[:6]
    for predicate in follow_up:
        a = original.query(predicate)
        b = restored.query(predicate)
        mask = (data >= predicate.low) & (data <= predicate.high)
        assert a.count == b.count == int(mask.sum())
        assert float(a.value_sum) == pytest.approx(float(data[mask].sum()))
        assert float(b.value_sum) == pytest.approx(float(data[mask].sum()))
    assert restored.phase is original.phase  # construction advanced in lockstep

    if batch:
        lows = np.array([predicate.low for predicate in follow_up])
        highs = np.array([predicate.high for predicate in follow_up])
        batch_a = original.search_many(lows, highs)
        batch_b = restored.search_many(lows, highs)
        assert (batch_a is None) == (batch_b is None)
        if batch_a is not None:
            assert np.array_equal(np.asarray(batch_a[1]), np.asarray(batch_b[1]))
            assert np.allclose(
                np.asarray(batch_a[0], dtype=np.float64),
                np.asarray(batch_b[0], dtype=np.float64),
            )


@pytest.mark.parametrize("algorithm", sorted(ALL_ALGORITHMS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_checkpoint_round_trip_mid_convergence(algorithm, policy):
    rng = np.random.default_rng(13)
    data = _make_data("int64", rng)
    cls = ALL_ALGORITHMS[algorithm]
    for cut in (0, 4):  # before first query, and mid-convergence
        _assert_round_trip(cls, POLICIES[policy], data, cut, batch=True)


@pytest.mark.parametrize("algorithm", sorted(ALL_ALGORITHMS))
def test_checkpoint_round_trip_post_convergence(algorithm):
    rng = np.random.default_rng(29)
    data = _make_data("int64", rng)
    cls = ALL_ALGORITHMS[algorithm]
    # FixedDelta(1.0) converges in a handful of queries for the progressive
    # families; baselines/cracking reach their steady state immediately.
    converged = cls(Column(data.copy(), name="v"), budget=FixedDelta(1.0))
    predicates = _query_predicates(np.random.default_rng(31))
    for predicate in predicates:
        converged.query(predicate)
    state = decode_state(encode_state(converged.state_dict()))
    restored = cls(Column(data.copy(), name="v"), budget=FixedDelta(1.0))
    restored.load_state(state)
    assert restored.phase is converged.phase
    for predicate in predicates[:6]:
        a = converged.query(predicate)
        b = restored.query(predicate)
        assert a.count == b.count
        assert float(a.value_sum) == pytest.approx(float(b.value_sum))


@pytest.mark.parametrize("algorithm", sorted(ALL_ALGORITHMS))
def test_checkpoint_round_trip_float64(algorithm):
    rng = np.random.default_rng(47)
    data = _make_data("float64", rng)
    cls = ALL_ALGORITHMS[algorithm]
    _assert_round_trip(cls, POLICIES["greedy"], data, cut=5, batch=True)


def test_checkpoint_round_trip_mid_merge():
    """A converged index with buffered writes checkpoints mid-MERGE."""
    rng = np.random.default_rng(53)
    data = rng.integers(0, 40_000, size=4000).astype(np.int64)
    column = Column(data.copy(), name="v")
    index = ALGORITHMS["PQ"](column, budget=FixedDelta(1.0))
    predicates = _query_predicates(np.random.default_rng(59))
    for predicate in predicates:
        index.query(predicate)
    assert index.phase is IndexPhase.CONVERGED
    # A tiny delta paces the fold over many queries, so the checkpoint
    # catches the index genuinely mid-MERGE with credit accumulated.
    index.swap_budget(FixedDelta(0.05))
    column.insert(rng.integers(0, 40_000, size=64).astype(np.int64))
    column.delete_rows(np.arange(10, dtype=np.int64))
    index.query(predicates[0])
    assert index.phase is IndexPhase.MERGE

    state = decode_state(encode_state(index.state_dict()))
    # Restore over an equivalent live column carrying the same write history.
    column_b = Column(data.copy(), name="v")
    restored = ALGORITHMS["PQ"](column_b, budget=FixedDelta(0.05))
    column_b.restore_delta(column.delta.state_dict())
    restored.load_state(state)
    assert restored.phase is IndexPhase.MERGE

    visible = np.asarray(column.data)
    for predicate in predicates[:8]:
        a = index.query(predicate)
        b = restored.query(predicate)
        mask = (visible >= predicate.low) & (visible <= predicate.high)
        assert a.count == b.count == int(mask.sum())
        assert float(a.value_sum) == float(b.value_sum) == float(visible[mask].sum())
    # Both arms eventually fold and return to CONVERGED identically.
    assert restored.phase is index.phase


# ----------------------------------------------------------------------
# Database open / close / recover
# ----------------------------------------------------------------------
def test_database_end_to_end_recovery(tmp_path):
    rng = np.random.default_rng(61)
    data = rng.integers(0, 100_000, size=8000)
    directory = str(tmp_path / "db")
    db = Database.create(directory, {"ra": data, "dec": data[::-1].copy()})
    db.create_index("ra", method="PLSD", fixed_delta=0.5)
    for low in (0, 20_000, 60_000):
        db.between("ra", low, low + 10_000)
    db.insert({"ra": [1, 2, 3], "dec": [4, 5, 6]})
    db.update("ra", 0, 100, 77)
    db.delete("ra", 99_000, 100_000)
    db.commit()
    phase_before = db.index_for("ra").phase
    reference = np.asarray(db.table.column("ra").data).copy()
    conj_before = db.where({"ra": (0, 50_000), "dec": (0, 50_000)})
    db.close()

    db = Database.open(directory)
    try:
        assert db.table.column("ra").is_mapped
        assert db.index_for("ra").phase is phase_before
        visible = np.asarray(db.table.column("ra").data)
        assert np.array_equal(np.sort(visible), np.sort(reference))
        result = db.between("ra", 0, 100_000)
        mask = (visible >= 0) & (visible <= 100_000)
        assert result.count == int(mask.sum())
        conj_after = db.where({"ra": (0, 50_000), "dec": (0, 50_000)})
        assert conj_after.count == conj_before.count
    finally:
        db.close(checkpoint=False)


def test_database_recreates_unchekpointed_index_fresh(tmp_path):
    directory = str(tmp_path / "db")
    data = np.arange(3000, dtype=np.int64)
    db = Database.create(directory, {"v": data})
    db.close()  # checkpoint with no indexes

    db = Database.open(directory)
    db.create_index("v", method="PB", budget_fraction=0.2)
    db.between("v", 0, 100)
    db.close(checkpoint=False)  # catalog knows the index; no state saved

    db = Database.open(directory)
    try:
        index = db.index_for("v")
        assert index.name == "PB"
        assert index.phase is IndexPhase.INACTIVE  # fresh, not recovered
        assert db.between("v", 10, 20).count == 11
    finally:
        db.close(checkpoint=False)


def test_database_open_rejects_a_damaged_catalog_policy(tmp_path):
    """catalog.json is outside input: a damaged policy entry is a typed
    error, and the failed open releases the directory lock."""
    directory = str(tmp_path / "db")
    db = Database.create(directory, {"v": np.arange(3000, dtype=np.int64)})
    db.create_index("v", method="PB", budget_fraction=0.2)
    db.close(checkpoint=False)
    catalog_path = os.path.join(directory, "catalog.json")
    with open(catalog_path, encoding="utf-8") as handle:
        catalog = json.load(handle)
    entry = catalog["indexes"]["v"]["policy"]
    assert entry["scan_fraction"] == 0.2
    entry["scan_fraction"] = "0.2"
    with open(catalog_path, "w", encoding="utf-8") as handle:
        json.dump(catalog, handle)
    with pytest.raises(InvalidBudgetError, match="scan_fraction"):
        Database.open(directory)

    entry["scan_fraction"] = 0.2
    with open(catalog_path, "w", encoding="utf-8") as handle:
        json.dump(catalog, handle)
    db = Database.open(directory)
    try:
        assert db.between("v", 10, 20).count == 11
    finally:
        db.close(checkpoint=False)


def test_database_rejects_failed_writes_from_the_log(tmp_path):
    directory = str(tmp_path / "db")
    db = Database.create(directory, {"v": np.arange(100, dtype=np.int64)})
    with pytest.raises(Exception):
        db.insert({"v": [1], "nope": [2]})  # unknown column
    db.insert([7])
    db.commit()
    db.close(checkpoint=False)

    db = Database.open(directory)
    try:
        # The rejected operation never reached the log: only the valid
        # insert survives recovery.
        assert len(db.table) == 101
    finally:
        db.close(checkpoint=False)


def test_database_refuses_concurrent_opens(tmp_path):
    """Recovery truncates the WAL, so a second live handle is refused."""
    directory = str(tmp_path / "db")
    db = Database.create(directory, {"v": np.arange(100, dtype=np.int64)})
    with pytest.raises(PersistenceError, match="locked"):
        Database.open(directory)
    db.close()
    # A clean close releases the lock; the next open succeeds.
    Database.open(directory).close(checkpoint=False)


def test_close_without_checkpoint_keeps_uncommitted_undurable(tmp_path):
    """close(checkpoint=False) must not promote uncommitted writes."""
    directory = str(tmp_path / "db")
    db = Database.create(directory, {"v": np.arange(100, dtype=np.int64)})
    db.insert([1000])
    db.commit()
    db.insert([2000])  # never committed
    db.close(checkpoint=False)

    db = Database.open(directory)
    try:
        assert db.equals("v", 1000).count == 1
        assert db.equals("v", 2000).count == 0
    finally:
        db.close(checkpoint=False)


def test_database_create_refuses_existing_directory(tmp_path):
    directory = str(tmp_path / "db")
    Database.create(directory, {"v": np.arange(10)}).close()
    with pytest.raises(PersistenceError):
        Database.create(directory, {"v": np.arange(10)})


def test_full_scan_round_trip_via_database(tmp_path):
    """FS has no structures, but its registration must survive restarts."""
    directory = str(tmp_path / "db")
    db = Database.create(directory, {"v": np.arange(500, dtype=np.int64)})
    db.create_index("v", method="FS")
    assert db.between("v", 0, 99).count == 100
    db.close()
    db = Database.open(directory)
    try:
        assert isinstance(db.index_for("v"), FullScan)
        assert db.between("v", 0, 99).count == 100
    finally:
        db.close(checkpoint=False)

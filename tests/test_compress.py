"""Unit coverage of the out-of-core substrate's building blocks.

Codec round-trips of the v2 compressed column format, the block cache's
pinning and eviction, the spillable scratch allocator, lazy chain views,
the streamed partition kernel, sealed delta runs, and the incremental
checkpoint's content-addressed part reuse.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import kernels
from repro.cracking.kernels import partition_predicated
from repro.errors import PersistenceError
from repro.persist.checkpoint import CheckpointManager
from repro.persist.compress import (
    BlockCache,
    PagedArray,
    write_compressed_column,
)
from repro.persist.pager import map_column_file
from repro.storage.delta import SealedRun, SortedRunStore
from repro.storage.lazy import ChainArray, array_chunks, is_lazy
from repro.storage.membudget import MemoryBudget
from repro.storage.scratch import ScratchAllocator


# ----------------------------------------------------------------------
# Compressed column format
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "data",
    [
        np.arange(10_000, dtype=np.int64) + 1_000_000_000,      # FOR-friendly
        np.tile(np.array([3, 7, 11], dtype=np.int64), 4000),    # DICT-friendly
        np.random.default_rng(0).normal(size=9999),             # RAW floats
        np.random.default_rng(1).integers(-(2**40), 2**40, 7777),
    ],
    ids=["for", "dict", "raw-float", "wide-int"],
)
def test_compressed_round_trip(tmp_path, data):
    path = str(tmp_path / "c.col")
    stats = write_compressed_column(path, data, block_rows=1024)
    assert stats["rows"] == data.size
    paged = PagedArray.open(path)
    assert is_lazy(paged)
    assert paged.dtype == data.dtype
    np.testing.assert_array_equal(np.asarray(paged), data)
    # Random access forms: scalar, slice, fancy, boolean.
    assert paged[5] == data[5]
    np.testing.assert_array_equal(paged[100:3000], data[100:3000])
    idx = np.random.default_rng(2).integers(0, data.size, 500)
    np.testing.assert_array_equal(paged.take(idx), data[idx])
    assert paged.min() == data.min() and paged.max() == data.max()


def test_chunked_write_matches_monolithic(tmp_path):
    data = np.random.default_rng(3).integers(0, 1000, 5000).astype(np.int64)
    chunked, whole = str(tmp_path / "a.col"), str(tmp_path / "b.col")
    write_compressed_column(chunked, iter(np.array_split(data, 13)), block_rows=256)
    write_compressed_column(whole, data, block_rows=256)
    np.testing.assert_array_equal(
        np.asarray(PagedArray.open(chunked)), np.asarray(PagedArray.open(whole))
    )


def test_block_minmax_bounds_every_block(tmp_path):
    data = np.random.default_rng(4).integers(0, 10_000, 4000).astype(np.int64)
    path = str(tmp_path / "c.col")
    write_compressed_column(path, data, block_rows=512)
    paged = PagedArray.open(path)
    mins, maxs = paged.block_minmax()
    for block, (low, high) in enumerate(zip(mins, maxs)):
        chunk = data[block * 512 : (block + 1) * 512]
        assert low == chunk.min() and high == chunk.max()


def test_map_column_file_sniffs_v2(tmp_path):
    data = np.arange(2048, dtype=np.int64)
    path = str(tmp_path / "c.col")
    write_compressed_column(path, data, block_rows=256)
    mapped = map_column_file(path)
    assert isinstance(mapped, PagedArray)
    np.testing.assert_array_equal(np.asarray(mapped), data)


def test_block_cache_eviction_and_pinning(tmp_path):
    data = np.arange(64 * 1024, dtype=np.int64)
    path = str(tmp_path / "c.col")
    write_compressed_column(path, data, block_rows=1024)  # 8 KB per block
    cache = BlockCache(capacity_bytes=3 * 8192)
    paged = PagedArray.open(path, cache=cache)
    np.asarray(paged)  # touch every block
    stats = cache.stats()
    assert stats["evictions"] > 0
    assert cache.resident_bytes <= 3 * 8192
    # A pinned block survives a full sweep of the other blocks.
    pinned = cache.pin(paged.reader, 0)
    np.asarray(paged)
    np.testing.assert_array_equal(pinned, data[:1024])
    assert cache.resident_bytes >= pinned.nbytes
    cache.unpin(paged.reader, 0)
    hits_before = cache.stats()["hits"]
    paged[100]
    assert cache.stats()["hits"] > hits_before or cache.stats()["misses"] > 0


# ----------------------------------------------------------------------
# Scratch allocator + lazy views
# ----------------------------------------------------------------------
def test_scratch_allocator_spills_past_budget(tmp_path):
    allocator = ScratchAllocator(1 << 20, str(tmp_path))
    small = allocator.allocate(100, np.int64)
    assert isinstance(small, np.ndarray) and not isinstance(small, np.memmap)
    big = allocator.allocate(1_000_000, np.int64)  # 8 MB >> 1 MB budget
    assert isinstance(big, np.memmap)
    big[:] = 7
    assert int(big.sum()) == 7_000_000
    stats = allocator.stats()
    assert stats["spill_count"] >= 1
    allocator.trim()  # must not disturb spilled contents
    assert int(big.sum()) == 7_000_000


def test_chain_array_concatenates_lazily(tmp_path):
    left = np.arange(1000, dtype=np.int64)
    right = np.arange(1000, 1500, dtype=np.int64)
    chain = ChainArray([left, right])
    assert len(chain) == 1500 and is_lazy(chain)
    np.testing.assert_array_equal(np.asarray(chain), np.arange(1500))
    np.testing.assert_array_equal(chain[990:1010], np.arange(990, 1010))
    assert chain.min() == 0 and chain.max() == 1499
    offsets = [offset for offset, _ in array_chunks(chain, 256)]
    assert offsets[0] == 0 and offsets[-1] < 1500


def test_partition_streamed_matches_predicated():
    rng = np.random.default_rng(5)
    for size in (0, 1, 100, 4097):
        values = rng.integers(0, 1000, size).astype(np.int64)
        expected = np.sort(values.copy())
        streamed = values.copy()
        boundary = kernels.partition_inplace(streamed, 500, chunk_rows=64)
        reference = values.copy()
        want_boundary = partition_predicated(reference, 500)
        assert boundary == want_boundary
        assert np.all(streamed[:boundary] < 500)
        assert np.all(streamed[boundary:] >= 500)
        np.testing.assert_array_equal(np.sort(streamed), expected)


def test_partition_streamed_uses_scratch_allocator(tmp_path):
    allocator = ScratchAllocator(1 << 20, str(tmp_path))
    values = np.random.default_rng(6).integers(0, 100, 500_000).astype(np.int64)
    boundary = kernels.partition_inplace(values, 50, allocator.allocate, chunk_rows=10_000)
    assert np.all(values[:boundary] < 50) and np.all(values[boundary:] >= 50)
    assert allocator.stats()["spill_count"] >= 1


# ----------------------------------------------------------------------
# Sealed delta runs
# ----------------------------------------------------------------------
def test_sealed_run_corrections_are_exact(tmp_path):
    values = np.sort(np.random.default_rng(7).integers(0, 1000, 5000)).astype(np.int64)
    run = SealedRun(values, directory=str(tmp_path))
    for low, high in ((0, 999), (100, 100), (500, 700), (1000, 2000)):
        mask = (values >= low) & (values <= high)
        got_sum, got_count = run.correction(low, high)
        assert int(got_count) == int(mask.sum())
        assert int(got_sum) == int(values[mask].sum(dtype=np.int64))
    np.testing.assert_array_equal(run.materialize(), values)


def test_sorted_run_store_accumulates_exactly(tmp_path):
    store = SortedRunStore(directory=str(tmp_path))
    rng = np.random.default_rng(8)
    everything = []
    for _ in range(4):
        chunk = np.sort(rng.integers(0, 10_000, 3000)).astype(np.int64)
        store.seal(chunk)
        everything.append(chunk)
    merged = np.sort(np.concatenate(everything))
    assert store.total_rows == merged.size
    np.testing.assert_array_equal(store.merged(), merged)
    lows = np.array([0, 500, 9000])
    highs = np.array([10_000, 1500, 9100])
    sums, counts = store.correct_many(lows, highs)
    for i in range(lows.size):
        mask = (merged >= lows[i]) & (merged <= highs[i])
        assert int(counts[i]) == int(mask.sum())
        assert int(sums[i]) == int(merged[mask].sum(dtype=np.int64))


# ----------------------------------------------------------------------
# Incremental checkpoints
# ----------------------------------------------------------------------
def test_incremental_checkpoint_reuses_unchanged_parts(tmp_path):
    manager = CheckpointManager(str(tmp_path))
    state = {
        "op_id": 3,
        "columns": {"a": {"rows": np.arange(1000)}, "b": None},
        "indexes": {"a": {"tree": np.arange(5000), "phase": "refinement"}},
    }
    manager.write(state)
    first = dict(manager.last_write_stats)
    assert first["parts_written"] == 2 and first["parts_reused"] == 0

    # Unchanged state: nothing is rewritten.
    manager.write(state)
    second = dict(manager.last_write_stats)
    assert second["parts_written"] == 0 and second["parts_reused"] == 2
    assert second["bytes_written"] == 0

    # One subtree changes: exactly one part is rewritten, and the stale
    # part is garbage-collected after publication.
    state["indexes"]["a"] = {"tree": np.arange(6000), "phase": "converged"}
    manager.write(state)
    third = dict(manager.last_write_stats)
    assert third["parts_written"] == 1 and third["parts_reused"] == 1
    parts = [p for p in os.listdir(manager.parts_directory) if p.endswith(".part")]
    assert len(parts) == 2

    loaded = manager.load()
    assert loaded["op_id"] == 3
    np.testing.assert_array_equal(loaded["columns"]["a"]["rows"], np.arange(1000))
    assert loaded["columns"]["b"] is None
    assert loaded["indexes"]["a"]["phase"] == "converged"
    np.testing.assert_array_equal(loaded["indexes"]["a"]["tree"], np.arange(6000))

    summary = manager.summary()
    assert summary["op_id"] == 3 and summary["parts"] == 2

    manager.remove()
    assert manager.load() is None
    assert not [p for p in os.listdir(manager.parts_directory)
                if p.endswith(".part")]


def test_checkpoint_part_corruption_is_detected(tmp_path):
    manager = CheckpointManager(str(tmp_path))
    manager.write({"op_id": 1, "indexes": {"v": {"tree": np.arange(100)}}})
    (part,) = [p for p in os.listdir(manager.parts_directory) if p.endswith(".part")]
    path = os.path.join(manager.parts_directory, part)
    with open(path, "r+b") as handle:
        handle.seek(50)
        byte = handle.read(1)
        handle.seek(50)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(PersistenceError):
        manager.load()


def test_monolithic_v1_checkpoint_still_loads(tmp_path):
    """A pre-incremental checkpoint (subtrees inline) decodes unchanged."""
    import struct
    import zlib

    from repro.persist.checkpoint import CHECKPOINT_MAGIC, _HEADER
    from repro.persist.pager import encode_state

    state = {"op_id": 9, "indexes": {"v": {"tree": np.arange(64)}}, "columns": {}}
    payload = encode_state(state)
    blob = _HEADER.pack(CHECKPOINT_MAGIC, len(payload), zlib.crc32(payload)) + payload
    manager = CheckpointManager(str(tmp_path))
    with open(manager.path, "wb") as handle:
        handle.write(blob)
    loaded = manager.load()
    assert loaded["op_id"] == 9
    np.testing.assert_array_equal(loaded["indexes"]["v"]["tree"], np.arange(64))


def test_memory_budget_derivations_scale():
    small, large = MemoryBudget(1), MemoryBudget(1 << 30)
    assert small.total_bytes == 1 << 20  # clamped floor
    assert large.cache_bytes == (1 << 30) // 4
    assert large.chunk_rows(np.int64) <= 1 << 22
    assert small.chunk_rows(np.int64) >= 1 << 14
    assert MemoryBudget.coerce(None) is None
    assert MemoryBudget.coerce(large) is large

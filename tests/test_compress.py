"""Unit coverage of the out-of-core substrate's building blocks.

Codec round-trips of the v2 compressed column format, the block cache's
pinning and eviction, the spillable scratch allocator, lazy chain views,
the streamed partition kernel, sealed delta runs, and the incremental
checkpoint's content-addressed part reuse.
"""

from __future__ import annotations

import gc
import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cracking.kernels import partition_predicated
from repro.errors import PersistenceError
from repro.persist.checkpoint import CheckpointManager
from repro.core.policy import FixedDelta
from repro.engine.registry import create_index
from repro.persist import compress
from repro.persist.compress import (
    CODEC_DICT,
    CODEC_FOR,
    CODEC_RAW,
    BlockCache,
    PagedArray,
    decode_block,
    encode_block,
    write_compressed_column,
)
from repro.persist.database import Database
from repro.persist.pager import map_column_file
from repro.storage.delta import SealedRun, SortedRunStore
from repro.core.query import Predicate
from repro.storage import scratch
from repro.storage.column import Column
from repro.storage.lazy import ChainArray, array_chunks, chunked_scan_range, is_lazy
from repro.storage.membudget import MemoryBudget
from repro.storage.scratch import MAX_FREE_SPILL_FILES, ScratchAllocator


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
# The encoder picks the codec by arithmetic; the bytes must not notice
# ----------------------------------------------------------------------
def reference_encode_block(values: np.ndarray):
    """The encoder as it was before the codec was chosen from the payload
    lengths: build every candidate payload, keep the shortest (RAW, then DICT
    if strictly shorter, then FOR if strictly shorter).  What the files are
    diffed against."""
    vmin = values.min()
    vmax = values.max()
    little = values.dtype.newbyteorder("<")
    raw_payload = values.astype(little, copy=False).tobytes()
    best = (CODEC_RAW, values.dtype.itemsize, raw_payload)

    unique = np.unique(values)
    if unique.size <= 1 << 16 and unique.size < values.size:
        code_width = 1 if unique.size <= 1 << 8 else 2
        code_dtype = np.dtype(f"<u{code_width}")
        codes = np.searchsorted(unique, values).astype(code_dtype)
        payload = (
            struct.pack("<I", unique.size)
            + unique.astype(little, copy=False).tobytes()
            + codes.tobytes()
        )
        if len(payload) < len(best[2]):
            best = (CODEC_DICT, code_width, payload)

    if values.dtype.kind == "i":
        span = int(vmax) - int(vmin)
        width = compress._for_width(span)
        if width < values.dtype.itemsize:
            deltas = (values.astype(np.int64) - np.int64(vmin)).astype(np.uint64)
            payload = deltas.astype(np.dtype(f"<u{width}")).tobytes()
            if len(payload) < len(best[2]):
                best = (CODEC_FOR, width, payload)

    codec, width, payload = best
    return codec, width, payload, vmin, vmax, vmin


def assert_encodes_identically(values: np.ndarray) -> int:
    want = reference_encode_block(values)
    got = encode_block(values)
    assert got[:2] == want[:2], (values.dtype, values.size, got[:2], want[:2])
    assert got[2] == want[2]
    for mine, theirs in zip(got[3:], want[3:]):  # min, max, ref — on their bits (NaN, -0.0)
        assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes()
    codec, width, payload, _, _, ref = got
    decoded = decode_block(payload, codec, width, values.size, values.dtype, ref)
    np.testing.assert_array_equal(decoded, values)  # -0.0 == 0.0, NaN == NaN here
    return codec


def spread(pool: np.ndarray, rows: int, rng) -> np.ndarray:
    """``rows`` draws from ``pool`` that hit every pool value when they can."""
    picks = rng.integers(0, pool.size, rows)
    picks[: min(rows, pool.size)] = rng.permutation(pool.size)[:rows]
    return pool[picks]


def test_encoder_is_byte_identical_over_the_size_domain_matrix():
    rng = np.random.default_rng(24)
    codecs = set()
    for rows in (1, 2, 3, 255, 256, 257, 1000, 2052, 4096, 65_535, 65_536):
        for domain in (1, 2, 40, 256, 257, 1000, 16_383, 16_384, 65_536, 65_537, 2**31, 2**33, 2**62):
            ints = rng.integers(0, domain, rows)
            codecs.add(assert_encodes_identically(ints - 12_345))
            codecs.add(assert_encodes_identically(ints * 0.5))
            if domain <= 65_537:  # few distinct values over a wide span
                codecs.add(assert_encodes_identically(ints * 1_000_003))
    for block in (np.full(1000, 7), np.full(1000, np.nan), np.full(1000, -0.0),
                  np.array([0.0, -0.0] * 500), np.array([-0.0, 0.0, np.nan, np.inf, -np.inf] * 400),
                  np.array([1.0, np.nan, -np.nan] * 300), np.array([2**63 - 1, -(2**63)] * 50)):
        codecs.add(assert_encodes_identically(block))
    assert codecs == {CODEC_RAW, CODEC_FOR, CODEC_DICT}


def test_encoder_is_byte_identical_at_every_tie_and_cardinality_edge():
    """DICT wins a tie with FOR and loses one with RAW; 256 values take
    one-byte codes, 257 two; 65 536 values are a dictionary, 65 537 are not."""
    rng = np.random.default_rng(25)
    winners = {}
    for name, unique, rows, span in (
        ("dict == for, 1-byte codes vs width 2", 100, 8 * 100 + 4, 60_000),
        ("dict == for, 2-byte codes vs width 4", 300, 4 * 300 + 2, 2**31),
        ("dict == for, 1-byte codes vs width 4", 199, (8 * 199 + 4) // 3, 2**31),
        ("256 values", 256, 70_000, 2**40),
        ("257 values", 257, 70_000, 2**40),
        ("65 536 values", 65_536, 90_000, 2**40),
        ("65 537 values", 65_537, 90_000, 2**40),
    ):
        pool = np.unique(np.concatenate([[0, span - 1], rng.integers(0, span, 2 * unique)]))
        pool = np.concatenate([pool[:1], rng.permutation(pool[1:-1])[: unique - 2], pool[-1:]])
        assert pool.size == unique
        for nudge in (-1, 0, 1):
            block = spread(pool, rows + nudge, rng)
            winners[name, nudge] = assert_encodes_identically(block)
            assert_encodes_identically(block.astype(np.float64))
    assert winners["dict == for, 1-byte codes vs width 2", 0] == CODEC_DICT
    assert winners["dict == for, 1-byte codes vs width 2", -1] == CODEC_FOR
    assert winners["dict == for, 2-byte codes vs width 4", 0] == CODEC_DICT
    assert winners["dict == for, 2-byte codes vs width 4", -1] == CODEC_FOR
    assert winners["65 536 values", 0] == CODEC_DICT
    assert winners["65 537 values", 0] == CODEC_RAW


SPECIAL_FLOATS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 70_000),
    unique=st.integers(1, 70_000),
    span_bits=st.sampled_from([1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 62]),
    floats=st.booleans(),
    specials=st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=6),
)
@example(seed=0, rows=70_000, unique=256, span_bits=62, floats=False, specials=[])
@example(seed=1, rows=70_000, unique=257, span_bits=16, floats=True, specials=[0.0, -0.0, np.nan])
@example(seed=2, rows=2052, unique=256, span_bits=16, floats=False, specials=[])
@example(seed=3, rows=1, unique=1, span_bits=1, floats=True, specials=[np.nan])
def test_encoder_is_byte_identical_under_hypothesis(seed, rows, unique, span_bits, floats, specials):
    rng = np.random.default_rng(seed)
    pool = np.unique(rng.integers(0, 2**span_bits, unique)) - (2**span_bits) // 3
    block = spread(pool, rows, rng)
    if floats:
        block = block * 0.25
        at = rng.integers(0, rows, len(specials))
        block[at] = specials
    assert_encodes_identically(block)


def sha256_of(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def test_written_files_are_byte_identical_to_the_reference_encoder(tmp_path, monkeypatch):
    rng = np.random.default_rng(26)
    columns = {
        "uniform": rng.integers(0, 2**31, 300_000),
        "forty": rng.integers(0, 40, 300_000) * 1_000_003,
        "float1000": rng.integers(0, 1000, 300_000) * 0.125,
    }
    for name, data in columns.items():
        mine, theirs = str(tmp_path / f"{name}.col"), str(tmp_path / f"{name}.ref")
        write_compressed_column(mine, data)
        with monkeypatch.context() as patch:
            patch.setattr(compress, "encode_block", reference_encode_block)
            write_compressed_column(theirs, data)
        assert sha256_of(mine) == sha256_of(theirs), name
        np.testing.assert_array_equal(np.asarray(PagedArray.open(mine)), data)


# ----------------------------------------------------------------------
# A damaged block is a PersistenceError, whatever the kernel backend
# ----------------------------------------------------------------------
def damaged_blocks():
    int64, float64 = np.dtype(np.int64), np.dtype(np.float64)
    codec, width, payload, _, _, ref = encode_block(np.arange(1000, dtype=np.int64) * 3 + 10**9)
    assert (codec, width) == (CODEC_FOR, 2)
    yield "truncated FOR", (payload[:-1], codec, width, 1000, int64, ref)
    yield "overlong FOR", (payload + b"\0", codec, width, 1000, int64, ref)
    yield "FOR of an impossible width", (payload, codec, 3, 1000, int64, ref)
    yield "FOR over floats", (payload, codec, width, 1000, float64, 0.5)
    codec, width, payload, _, _, ref = encode_block(np.tile([3.5, 7.25, np.nan], 400))
    assert (codec, width) == (CODEC_DICT, 1)
    yield "truncated DICT", (payload[:-1], codec, width, 1200, float64, ref)
    yield "DICT shorter than its header", (payload[:3], codec, width, 1200, float64, ref)
    yield "dictionary larger than the payload", (
        struct.pack("<I", 10**6) + payload[4:], codec, width, 1200, float64, ref)
    yield "dictionary of no values", (
        struct.pack("<I", 0) + payload[4 + 24:], codec, width, 1200, float64, ref)
    yield "code past the dictionary", (payload[:-1] + b"\x03", codec, width, 1200, float64, ref)
    yield "truncated RAW", (b"\0" * 79, CODEC_RAW, 8, 10, int64, 0)
    yield "unknown codec", (b"\0" * 80, 9, 8, 10, int64, 0)


@pytest.mark.parametrize("case", [name for name, _ in damaged_blocks()])
def test_damaged_block_raises_persistence_error(kernel_backend, case):
    arguments = dict(damaged_blocks())[case]
    with pytest.raises(PersistenceError):
        decode_block(*arguments)


def test_damaged_block_in_a_file_names_the_file_and_the_block(kernel_backend, tmp_path):
    data = np.tile(np.array([3, 7, 11], dtype=np.int64) * 10**12, 1000)
    path = str(tmp_path / "c.col")
    write_compressed_column(path, data, block_rows=1024)
    paged = PagedArray.open(path)
    reader = paged.reader
    assert int(reader.codecs[1]) == CODEC_DICT
    with open(path, "r+b") as handle:  # the payloads carry no checksum: flip one code of block 1
        handle.seek(int(reader.offsets[1]) + int(reader.lengths[1]) - 1)
        handle.write(b"\xff")
    np.testing.assert_array_equal(paged[:1024], data[:1024])
    with pytest.raises(PersistenceError, match=r"c\.col.* block 1: DICT block holds code 255"):
        paged[1024:2048]


# ----------------------------------------------------------------------
# Streaming a paged column stays on the block grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_rows", [512, 1024, 256, 700], ids=["block", "two-blocks", "quarter", "odd"])
def test_paged_chunks_never_straddle_a_block_edge(tmp_path, chunk_rows):
    block_rows = 512
    data = np.random.default_rng(27).integers(0, 10**6, int(3.5 * block_rows))
    path = str(tmp_path / "c.col")
    write_compressed_column(path, data, block_rows=block_rows)
    cache = BlockCache(16 * block_rows * 8)
    paged = PagedArray.open(path, cache=cache)
    for start, stop in ((0, None), (100, None), (100, 1500), (511, 513), (600, 601), (1024, 1792)):
        pieces, cursor = [], start
        for offset, chunk in paged.iter_chunks(chunk_rows, start=start, stop=stop):
            assert offset == cursor and 0 < chunk.size <= chunk_rows
            first, last = offset // block_rows, (offset + chunk.size - 1) // block_rows
            if first != last:  # crosses an edge: whole blocks only
                assert offset % block_rows == 0
                assert chunk.size % block_rows == 0 or offset + chunk.size == data.size
            else:  # within one block: a view of the cached block, not a copy
                assert np.shares_memory(chunk, cache.get(paged.reader, first))
            pieces.append(chunk)
            cursor += chunk.size
        want = data[start:stop]
        assert cursor == start + want.size
        np.testing.assert_array_equal(np.concatenate(pieces), want)


def test_streamed_consumers_of_a_paged_column_match_the_oracle(tmp_path):
    """The predicated scan and PQ's creation copy over 3.5 blocks, chunk size
    equal to the block size — every chunk a view — from unaligned cursors."""
    block_rows = 1 << 14
    data = np.random.default_rng(28).integers(0, 10**6, int(3.5 * block_rows))
    path = str(tmp_path / "c.col")
    write_compressed_column(path, data, block_rows=block_rows)
    budget = MemoryBudget(1 << 20, spill_dir=str(tmp_path))
    assert budget.chunk_rows(np.int64) == block_rows
    column = Column.from_file(path, name="v", memory_budget=budget)
    for start, stop in ((0, None), (5, None), (block_rows - 1, 3 * block_rows + 1)):
        for chunk_rows in (block_rows, block_rows // 4, 2 * block_rows):
            total, count = chunked_scan_range(
                column.data, 250_000, 750_000, start=start, stop=stop, chunk_rows=chunk_rows)
            window = data[start:stop]
            mask = (window >= 250_000) & (window <= 750_000)
            assert (int(total), count) == (int(window[mask].sum()), int(mask.sum()))
    index = create_index("PQ", column, budget=FixedDelta(0.07))  # 0.07 * 3.5 blocks: never aligned
    for low in range(0, 900_000, 37_000):
        result = index.query(Predicate(low, low + 90_000))
        mask = (data >= low) & (data <= low + 90_000)
        assert (int(result.value_sum), result.count) == (int(data[mask].sum()), int(mask.sum()))
    assert index.converged or index.phase.name != "CREATION"


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


def spill(allocator: ScratchAllocator, rows: int) -> np.memmap:
    array = allocator.allocate(rows, np.int64)
    assert isinstance(array, np.memmap)
    return array


def test_released_spill_files_are_reused_smallest_fit_first(tmp_path):
    allocator = ScratchAllocator(0, str(tmp_path))
    rows = scratch.SMALL_ALLOCATION_BYTES // 8
    small, large = spill(allocator, rows), spill(allocator, 4 * rows)
    small[:], large[:] = 1, 2
    view = small[10:20]
    del small
    assert allocator.stats()["spill_reused"] == 0 and not allocator._free  # a view keeps the file taken
    del view, large
    assert [size for size, _ in allocator._free] == [rows * 8, 4 * rows * 8]
    again = spill(allocator, rows)  # the smallest file that holds it; contents are whatever was there
    assert [size for size, _ in allocator._free] == [4 * rows * 8]
    assert again.shape == (rows,) and int(again[0]) == 1
    bigger = spill(allocator, 5 * rows)  # nothing free holds it: a new file
    stats = allocator.stats()
    assert stats["spill_reused"] == 1
    # A reuse is a spill like any other (the ledger's storage.scratch.* figures).
    assert stats["spill_count"] == 4 and stats["spilled_bytes"] == (1 + 4 + 1 + 5) * rows * 8
    fits = spill(allocator, 2 * rows)  # the 4-row-unit file, mapped short
    assert fits.shape == (2 * rows,) and allocator.stats()["spill_reused"] == 2
    assert not os.listdir(tmp_path)  # every spill file is unlinked from birth


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


@needs_proc
def test_free_spill_files_are_bounded_and_closed(tmp_path):
    gc.collect()
    before = open_descriptors()
    allocator = ScratchAllocator(0, str(tmp_path))
    rows = scratch.SMALL_ALLOCATION_BYTES // 8
    arrays = [spill(allocator, rows) for _ in range(MAX_FREE_SPILL_FILES + 1)]
    assert open_descriptors() == before + 2 * len(arrays)  # the allocator's and the mapping's own
    del arrays
    assert len(allocator._free) == MAX_FREE_SPILL_FILES  # the third released file was closed
    assert open_descriptors() == before + MAX_FREE_SPILL_FILES
    allocator.trim()
    assert not allocator._free and open_descriptors() == before
    held = spill(allocator, rows)
    del held
    assert open_descriptors() == before + 1
    del allocator  # collected after its arrays: the free list goes with it
    gc.collect()
    assert open_descriptors() == before


@needs_proc
def test_database_reuses_spill_files_across_indexes_and_closes_them(tmp_path):
    gc.collect()
    before = open_descriptors()
    data = np.random.default_rng(29).integers(0, 10**6, 300_000)
    db = Database.create(str(tmp_path / "db"), {"v": data}, compress=True, memory_budget=1 << 20)
    allocator = db.memory_budget.scratch

    def build_and_drop():
        db.create_index("v", method="PQ", fixed_delta=0.5)
        for low in (0, 400_000, 800_000):
            result = db.between("v", low, low + 50_000)
            mask = (data >= low) & (data <= low + 50_000)
            assert (int(result.value_sum), result.count) == (int(data[mask].sum()), int(mask.sum()))
        db.drop_index("v")
        gc.collect()

    build_and_drop()
    first = allocator.stats()
    assert first["spill_count"] >= 1 and first["spill_reused"] == 0
    assert 1 <= len(allocator._free) <= MAX_FREE_SPILL_FILES
    build_and_drop()
    second = allocator.stats()
    assert second["spill_reused"] >= 1  # the index array of the same size maps the released file
    assert second["spill_count"] == 2 * first["spill_count"]
    assert second["spilled_bytes"] == 2 * first["spilled_bytes"]
    db.close()
    del db, allocator
    gc.collect()
    assert open_descriptors() == before


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

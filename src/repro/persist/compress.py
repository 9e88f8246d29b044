"""Compressed on-disk column format (v2): FOR / dictionary blocks.

A v2 column file splits the base array into fixed-size blocks, encodes each
block independently and records a per-block directory entry carrying the
codec, the payload location and the block's **min/max** — which is exactly
the statistic the shard zone maps route on, so a compressed column feeds
:class:`~repro.shard.zonemaps.ShardRouter`-style pruning for free.

Layout::

    RPCOL2 header | block payloads ... | directory | u32 crc(directory)

    header    = <8s8sQIIQ>  magic, dtype, n_rows, block_rows, n_blocks,
                            directory offset
    dir entry = <BBHIQQ8s8s8s> codec, code width, reserved, count,
                            payload offset, payload length,
                            raw min, raw max, raw FOR reference

Codecs (chosen per block, smallest encoding wins):

* ``RAW`` — values as little-endian bytes (incompressible blocks);
* ``FOR`` — frame of reference: ``value - block_min`` cast to the
  narrowest unsigned width that holds the block's span (int64 only);
* ``DICT`` — dictionary: sorted unique values + per-row codes, for
  low-cardinality blocks of either dtype.

**The codec is chosen by arithmetic.**  The payload lengths of a block of
``n`` 8-byte values are known before any payload exists: RAW ``8n``; FOR
``w·n``, ``w`` read off ``max - min`` (1, 2 or 4, else no FOR); DICT over
``u < n`` distinct values ``4 + 8u + c·n`` (``c`` = 1 up to 256 values, 2 up
to 65 536).  The format's tie-breaks — a candidate replaces the best so far
only when *strictly* shorter, tried in the order RAW, DICT, FOR — read: **DICT
iff strictly shorter than RAW and no longer than FOR; else FOR if it exists;
else RAW.**  So the encoder computes the largest ``u`` that could still win
(none when ``w`` is 1) and only then counts: first the distinct values of a
sorted *prefix* one eighth longer than that ``u`` (every NaN one value, as
``np.unique`` counts) — a prefix cannot hold more distinct values than the
block, so a count above the limit rules DICT out for certain, while a count
below it decides nothing: the full ``np.unique`` runs and the exact ``u``
decides.  The prefix is only ever an early "no", so the choice, and every
byte written, is what building all three payloads and keeping the shortest
gives (``tests/test_compress.py`` keeps that encoder and diffs files against
it).  Only the winner's payload is built.

Reads decompress **one block at a time** through a :class:`BlockCache`
(LRU with pinning), and :class:`PagedArray` wraps a reader + cache into the
lazy array-like the column/kernel layers stream over, on the block grid: a
chunk within one block is a view of the cached block.  :func:`decode_block`
checks every length, the dictionary size and the largest code before a byte
is interpreted — a damaged block is a :class:`~repro.errors.PersistenceError`
naming file and block, and never reaches a kernel.  Decompression cost
is priced into the cost model via ``CostConstants.decompress`` (see
:meth:`~repro.core.index.BaseIndex._price_decompression`).
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
import time
from collections import OrderedDict
from typing import Iterable, Iterator, Tuple

import numpy as np

from repro import kernels
from repro.errors import PersistenceError
from repro.persist.pager import fsync_file
from repro.storage.lazy import LazyArray

#: Magic prefix of a v2 (compressed) column file.
COLUMN2_MAGIC = b"RPCOL2\x00\x00"

#: Default rows per compression block (64 K rows = 512 KiB of int64).
DEFAULT_BLOCK_ROWS = 1 << 16

#: Capacity of the fallback module-level cache (columns opened without a
#: memory budget still decompress one block at a time).
DEFAULT_CACHE_BYTES = 64 << 20

_HEADER = struct.Struct("<8s8sQIIQ")
_DIR_ENTRY = struct.Struct("<BBHIQQ8s8s8s")

CODEC_RAW = 0
CODEC_FOR = 1
CODEC_DICT = 2

_COLUMN_DTYPES = {"int64", "float64"}

_reader_tokens = itertools.count(1)


def _raw8(value, dtype: np.dtype) -> bytes:
    return np.asarray([value], dtype=dtype.newbyteorder("<")).tobytes()


def _from_raw8(blob: bytes, dtype: np.dtype):
    return np.frombuffer(blob, dtype=dtype.newbyteorder("<"))[0]


# ----------------------------------------------------------------------
# Block codecs
# ----------------------------------------------------------------------
def _for_width(span: int) -> int:
    """Narrowest unsigned byte width holding ``span`` (1, 2, 4 or 8)."""
    for width in (1, 2, 4):
        if span < (1 << (8 * width)):
            return width
    return 8


def _largest_winning_dictionary(n: int, itemsize: int, limit: int) -> int:
    """The most distinct values a DICT payload of at most ``limit`` bytes can
    hold over ``n`` rows (0: none can)."""
    wide = min((limit - 4 - 2 * n) // itemsize, 1 << 16, n - 1)
    if wide > 1 << 8:
        return wide
    return max(0, min((limit - 4 - n) // itemsize, 1 << 8, n - 1))


def _distinct_sorted(ordered: np.ndarray) -> int:
    """Distinct values of a sorted array, every NaN one value (``np.unique``'s rule)."""
    if ordered.dtype.kind == "f":
        ordered = ordered[: int(np.searchsorted(ordered, np.nan)) + 1]  # NaNs sort last: keep one
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _dictionary(values: np.ndarray, limit: int):
    """``(unique, codes)`` when the DICT payload is at most ``limit`` bytes long, else ``None``."""
    most = _largest_winning_dictionary(values.size, values.dtype.itemsize, limit)
    if most == 0:
        return None
    # A prefix cannot hold more distinct values than the block: a cheap lower
    # bound on the count that rules DICT out before anything is sorted whole.
    prefix = most + most // 8 + 1
    if prefix < values.size and _distinct_sorted(np.sort(values[:prefix])) > most:
        return None
    unique, codes = np.unique(values, return_inverse=True)
    if unique.size > most:
        return None
    if values.dtype.kind == "f":
        # Equal floats of different bits (0.0 and -0.0, NaN payloads): store
        # the representative this call picks, as the format always has.
        unique = np.unique(values)
    return unique, codes


def encode_block(values: np.ndarray) -> Tuple[int, int, bytes, object, object, object]:
    """Encode one block; returns ``(codec, width, payload, min, max, ref)``."""
    if values.size == 0:
        raise PersistenceError("cannot encode an empty column block")
    vmin = values.min()
    vmax = values.max()
    itemsize = values.dtype.itemsize
    little = values.dtype.newbyteorder("<")
    for_width = None
    limit = values.size * itemsize - 1  # DICT must be strictly shorter than RAW ...
    if values.dtype.kind == "i":
        width = _for_width(int(vmax) - int(vmin))
        if width < itemsize:
            for_width = width
            limit = width * values.size  # ... and no longer than FOR
    dictionary = _dictionary(values, limit)
    if dictionary is not None:
        unique, codes = dictionary
        code_width = 1 if unique.size <= 1 << 8 else 2
        payload = (
            struct.pack("<I", unique.size)
            + unique.astype(little, copy=False).tobytes()
            + codes.astype(np.dtype(f"<u{code_width}")).tobytes()
        )
        return CODEC_DICT, code_width, payload, vmin, vmax, vmin
    if for_width is not None:
        return CODEC_FOR, for_width, kernels.pack_for(values, int(vmin), for_width), vmin, vmax, vmin
    return CODEC_RAW, itemsize, values.astype(little, copy=False).tobytes(), vmin, vmax, vmin


def decode_block(
    payload: bytes, codec: int, width: int, count: int, dtype: np.dtype, ref
) -> np.ndarray:
    """Inverse of :func:`encode_block`; returns a read-only array.  A payload
    that disagrees with ``count`` / ``width`` is a :class:`PersistenceError`."""
    little = dtype.newbyteorder("<")
    if codec == CODEC_RAW:
        _expect_length(payload, count * dtype.itemsize, "RAW")
        values = np.frombuffer(payload, dtype=little, count=count).astype(dtype, copy=True)
    elif codec == CODEC_FOR:
        if width not in (1, 2, 4) or dtype.kind != "i":
            raise PersistenceError(f"FOR block of width {width} over dtype {dtype.name}")
        _expect_length(payload, count * width, "FOR")
        values = kernels.unpack_for(payload, width, count, int(ref)).astype(dtype, copy=False)
    elif codec == CODEC_DICT:
        if width not in (1, 2) or len(payload) < 4:
            raise PersistenceError(f"DICT block of code width {width}, {len(payload)} bytes")
        (n_unique,) = struct.unpack_from("<I", payload, 0)
        cursor = 4 + n_unique * dtype.itemsize
        _expect_length(payload, cursor + count * width, f"DICT of {n_unique} values")
        unique = np.frombuffer(payload, dtype=little, count=n_unique, offset=4)
        codes = np.frombuffer(payload, dtype=np.dtype(f"<u{width}"), count=count, offset=cursor)
        if count and int(codes.max()) >= n_unique:
            raise PersistenceError(
                f"DICT block holds code {int(codes.max())} past its {n_unique} values")
        values = unique.astype(dtype, copy=False)[codes]
    else:
        raise PersistenceError(f"column block declares unknown codec {codec}")
    values.setflags(write=False)
    return values


def _expect_length(payload, expected: int, what: str) -> None:
    if len(payload) != expected:
        raise PersistenceError(
            f"{what} block payload is {len(payload)} bytes long, its directory entry needs {expected}")


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _iter_blocks(source, block_rows: int) -> Iterator[np.ndarray]:
    """Regroup an array or an iterable of chunks into exact-size blocks."""
    if isinstance(source, np.ndarray):
        chunks: Iterable[np.ndarray] = (source,)
    elif isinstance(source, LazyArray):
        chunks = (chunk for _, chunk in source.iter_chunks(block_rows))
    else:
        chunks = source
    pending: list[np.ndarray] = []
    pending_rows = 0
    for chunk in chunks:
        chunk = np.ascontiguousarray(chunk)
        while chunk.size:
            take = min(chunk.size, block_rows - pending_rows)
            pending.append(chunk[:take])
            pending_rows += take
            chunk = chunk[take:]
            if pending_rows == block_rows:
                yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending = []
                pending_rows = 0
    if pending_rows:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def write_compressed_column(
    path: str,
    source,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> dict:
    """Write a v2 compressed column file; ``source`` may be chunked.

    ``source`` is an ndarray, a lazy array, or an iterable of ndarray
    chunks — the writer itself streams, so datasets larger than RAM can be
    written chunk-by-chunk.  Returns summary stats (rows, blocks, bytes).
    """
    block_rows = int(block_rows)
    if block_rows <= 0:
        raise PersistenceError(f"block_rows must be positive, got {block_rows}")
    entries = []
    n_rows = 0
    dtype: np.dtype | None = None
    payload_bytes = 0
    with open(path, "wb") as handle:
        handle.write(b"\x00" * _HEADER.size)
        for block in _iter_blocks(source, block_rows):
            if dtype is None:
                dtype = block.dtype
                if dtype.name not in _COLUMN_DTYPES:
                    raise PersistenceError(
                        f"cannot compress column dtype {dtype.name!r}"
                    )
            elif block.dtype != dtype:
                raise PersistenceError("column chunks disagree on dtype")
            codec, width, payload, vmin, vmax, ref = encode_block(block)
            offset = handle.tell()
            handle.write(payload)
            payload_bytes += len(payload)
            entries.append(
                _DIR_ENTRY.pack(
                    codec,
                    width,
                    0,
                    block.size,
                    offset,
                    len(payload),
                    _raw8(vmin, dtype),
                    _raw8(vmax, dtype),
                    _raw8(ref, dtype),
                )
            )
            n_rows += int(block.size)
        if dtype is None or n_rows == 0:
            raise PersistenceError("cannot write an empty compressed column")
        directory = b"".join(entries)
        dir_offset = handle.tell()
        handle.write(directory)
        import zlib

        handle.write(struct.pack("<I", zlib.crc32(directory)))
        handle.seek(0)
        handle.write(
            _HEADER.pack(
                COLUMN2_MAGIC,
                dtype.name.encode("ascii").ljust(8, b"\x00"),
                n_rows,
                block_rows,
                len(entries),
                dir_offset,
            )
        )
        fsync_file(handle)
    return {
        "rows": n_rows,
        "blocks": len(entries),
        "payload_bytes": payload_bytes,
        "logical_bytes": n_rows * dtype.itemsize,
    }


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class CompressedColumnReader:
    """Random-access block reader over a v2 compressed column file."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.cache_token = next(_reader_tokens)
        with open(self.path, "rb") as handle:
            header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise PersistenceError(f"column file {path!r} is truncated")
        magic, dtype_bytes, n_rows, block_rows, n_blocks, dir_offset = _HEADER.unpack(header)
        if magic != COLUMN2_MAGIC:
            raise PersistenceError(f"column file {path!r} has a bad magic prefix")
        name = dtype_bytes.rstrip(b"\x00").decode("ascii")
        if name not in _COLUMN_DTYPES:
            raise PersistenceError(f"column file {path!r} declares illegal dtype {name!r}")
        self.dtype = np.dtype(name)
        self.n_rows = int(n_rows)
        self.block_rows = int(block_rows)
        self.n_blocks = int(n_blocks)
        self._fd = os.open(self.path, os.O_RDONLY)
        try:
            self._load_directory(dir_offset)
        except Exception:
            os.close(self._fd)
            self._fd = -1
            raise

    def _load_directory(self, dir_offset: int) -> None:
        import zlib

        size = self.n_blocks * _DIR_ENTRY.size
        blob = os.pread(self._fd, size + 4, dir_offset)
        if len(blob) != size + 4:
            raise PersistenceError(f"column file {self.path!r} has a truncated directory")
        directory, crc_blob = blob[:size], blob[size:]
        (crc,) = struct.unpack("<I", crc_blob)
        if zlib.crc32(directory) != crc:
            raise PersistenceError(f"column file {self.path!r} fails its directory CRC")
        codecs = np.empty(self.n_blocks, dtype=np.uint8)
        widths = np.empty(self.n_blocks, dtype=np.uint8)
        counts = np.empty(self.n_blocks, dtype=np.int64)
        offsets = np.empty(self.n_blocks, dtype=np.int64)
        lengths = np.empty(self.n_blocks, dtype=np.int64)
        mins = np.empty(self.n_blocks, dtype=self.dtype)
        maxs = np.empty(self.n_blocks, dtype=self.dtype)
        refs = np.empty(self.n_blocks, dtype=self.dtype)
        for i in range(self.n_blocks):
            codec, width, _, count, offset, length, rmin, rmax, rref = _DIR_ENTRY.unpack_from(
                directory, i * _DIR_ENTRY.size
            )
            codecs[i] = codec
            widths[i] = width
            counts[i] = count
            offsets[i] = offset
            lengths[i] = length
            mins[i] = _from_raw8(rmin, self.dtype)
            maxs[i] = _from_raw8(rmax, self.dtype)
            refs[i] = _from_raw8(rref, self.dtype)
        if int(counts.sum()) != self.n_rows:
            raise PersistenceError(
                f"column file {self.path!r}: directory rows disagree with header"
            )
        self.codecs, self.widths, self.counts = codecs, widths, counts
        self.offsets, self.lengths = offsets, lengths
        self.block_mins, self.block_maxs, self.refs = mins, maxs, refs
        self.block_starts = np.concatenate([[0], np.cumsum(counts)])

    # ------------------------------------------------------------------
    def read_block(self, block_id: int) -> np.ndarray:
        """Decompress one block (bypasses any cache)."""
        i = int(block_id)
        if not 0 <= i < self.n_blocks:
            raise PersistenceError(f"block {block_id} out of range (0 .. {self.n_blocks - 1})")
        payload = os.pread(self._fd, int(self.lengths[i]), int(self.offsets[i]))
        if len(payload) != int(self.lengths[i]):
            raise PersistenceError(f"column file {self.path!r} block {i} is truncated")
        try:
            return decode_block(
                payload,
                int(self.codecs[i]),
                int(self.widths[i]),
                int(self.counts[i]),
                self.dtype,
                self.refs[i],
            )
        except PersistenceError as error:
            raise PersistenceError(f"column file {self.path!r} block {i}: {error}") from None

    def block_minmax(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block ``(mins, maxs)`` — zone-map food, no decompression."""
        return self.block_mins.copy(), self.block_maxs.copy()

    def min(self):
        return self.block_mins.min()

    def max(self):
        return self.block_maxs.max()

    def compressed_bytes(self) -> int:
        return int(self.lengths.sum())

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Block cache
# ----------------------------------------------------------------------
class BlockCache:
    """LRU cache of decompressed blocks with pinning.

    Capacity is in decompressed bytes.  ``pin``/``unpin`` protect a block
    from eviction while a kernel streams over it; eviction skips pinned
    entries.  All operations are thread-safe (the serving layer's reader
    threads share one cache).
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.capacity_bytes = int(capacity_bytes)
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._pins: dict = {}
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_decompressed = 0
        self.decompress_seconds = 0.0
        # Pull-mode registration: the cache already counts hits / misses /
        # evictions under its own lock, so the registry reads them lazily
        # at snapshot time and the get() hot path pays nothing extra.
        from repro import obs

        registry = obs.metrics()
        registry.register_pull("cache.block.hits", self,
                               lambda c: c.hits, help="BlockCache lookup hits")
        registry.register_pull("cache.block.misses", self,
                               lambda c: c.misses, help="BlockCache lookup misses")
        registry.register_pull("cache.block.evictions", self,
                               lambda c: c.evictions, help="BlockCache evictions")
        registry.register_pull("cache.block.bytes", self,
                               lambda c: c._bytes, kind="gauge",
                               help="Resident decompressed bytes in the BlockCache")

    def _key(self, reader: CompressedColumnReader, block_id: int) -> tuple:
        return (reader.cache_token, int(block_id))

    # ------------------------------------------------------------------
    def get(self, reader: CompressedColumnReader, block_id: int) -> np.ndarray:
        """The decompressed block, decoding (and caching) it on a miss."""
        key = self._key(reader, block_id)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        started = time.perf_counter()
        block = reader.read_block(block_id)
        elapsed = time.perf_counter() - started
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:
                return raced
            self.bytes_decompressed += block.nbytes
            self.decompress_seconds += elapsed
            self._entries[key] = block
            self._bytes += block.nbytes
            self._evict_over_capacity()
        return block

    def _evict_over_capacity(self) -> None:
        while self._bytes > self.capacity_bytes and self._entries:
            victim = None
            for key in self._entries:
                if self._pins.get(key, 0) == 0:
                    victim = key
                    break
            if victim is None:
                return  # everything resident is pinned
            block = self._entries.pop(victim)
            self._bytes -= block.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------
    def pin(self, reader: CompressedColumnReader, block_id: int) -> np.ndarray:
        """Fetch and pin a block; eviction skips it until :meth:`unpin`."""
        block = self.get(reader, block_id)
        key = self._key(reader, block_id)
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1
        return block

    def unpin(self, reader: CompressedColumnReader, block_id: int) -> None:
        key = self._key(reader, block_id)
        with self._lock:
            count = self._pins.get(key, 0)
            if count <= 1:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count - 1

    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return int(self._bytes)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity_bytes": int(self.capacity_bytes),
                "resident_bytes": int(self._bytes),
                "entries": len(self._entries),
                "hits": int(self.hits),
                "misses": int(self.misses),
                "evictions": int(self.evictions),
                "bytes_decompressed": int(self.bytes_decompressed),
                "decompress_seconds": float(self.decompress_seconds),
            }


_default_cache: BlockCache | None = None
_default_cache_lock = threading.Lock()


def default_block_cache() -> BlockCache:
    """Process-wide fallback cache for budget-less compressed columns."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = BlockCache(DEFAULT_CACHE_BYTES)
        return _default_cache


# ----------------------------------------------------------------------
# Paged array
# ----------------------------------------------------------------------
class PagedArray(LazyArray):
    """Lazy array over a compressed column file, one cached block at a time.

    This is what a :class:`~repro.storage.column.Column` uses as its base
    when opened from a v2 file: slices materialize only the blocks they
    touch, ``min``/``max`` come from the directory, and gathers group their
    indices per block so each block decompresses once.
    """

    def __init__(self, reader: CompressedColumnReader, cache: BlockCache | None = None) -> None:
        self.reader = reader
        self.cache = cache or default_block_cache()
        self.dtype = reader.dtype
        self.size = reader.n_rows
        self.block_rows = reader.block_rows

    @classmethod
    def open(cls, path: str, cache: BlockCache | None = None) -> "PagedArray":
        return cls(CompressedColumnReader(path), cache=cache)

    # ------------------------------------------------------------------
    def _read(self, start: int, stop: int) -> np.ndarray:
        first = int(start) // self.block_rows
        last = (int(stop) - 1) // self.block_rows
        if first == last:
            block = self.cache.get(self.reader, first)
            base = first * self.block_rows
            view = block[start - base : stop - base]
            return view
        out = np.empty(stop - start, dtype=self.dtype)
        cursor = start
        for block_id in range(first, last + 1):
            base = block_id * self.block_rows
            block = self.cache.get(self.reader, block_id)
            lo = max(cursor, base) - base
            hi = min(stop, base + block.size) - base
            out[cursor - start : cursor - start + (hi - lo)] = block[lo:hi]
            cursor += hi - lo
        out.setflags(write=False)
        return out

    def take(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.empty(0, dtype=self.dtype)
        if indices.min() < 0 or indices.max() >= self.size:
            raise IndexError("gather index out of range")
        out = np.empty(indices.size, dtype=self.dtype)
        blocks = indices // self.block_rows
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        boundaries = np.flatnonzero(np.diff(sorted_blocks)) + 1
        for group in np.split(np.arange(indices.size)[order], boundaries):
            block_id = int(blocks[group[0]])
            block = self.cache.get(self.reader, block_id)
            out[group] = block[indices[group] - block_id * self.block_rows]
        return out

    # ------------------------------------------------------------------
    def min(self):
        return self.reader.min()

    def max(self):
        return self.reader.max()

    def block_minmax(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block ``(mins, maxs)`` from the directory (zone-map food)."""
        return self.reader.block_minmax()

    def compressed_bytes(self) -> int:
        return self.reader.compressed_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PagedArray(rows={self.size}, dtype={self.dtype.name}, "
            f"blocks={self.reader.n_blocks}, block_rows={self.block_rows})"
        )

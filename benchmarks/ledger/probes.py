"""Layer probes of the traced run: calls into one layer, timed from outside.

Each probe replays generator-made inputs against one public function of one
module and reports a median; none of them reads a private attribute of the
program.  The workloads decide which probes apply to them.
"""

from __future__ import annotations

import io
import os

import numpy as np

import gen
from common import median, now, remove_dir, scratch_dir

from repro import CascadeTree, Database, Predicate, SharedEngine, WriteAheadLog
from repro.core.keys import IntKeyCodec
from repro.cracking.kernels import partition_predicated, partition_two_sided
from repro.persist.checkpoint import CheckpointManager
from repro.persist.compress import decode_block, encode_block
from repro.progressive.blocks import BucketSet
from repro.progressive.sorter import ProgressiveSorter
from repro.serve.protocol import encode_message, read_message
from repro.storage.column import Column

#: Repetitions behind every micro-probe median.
REPEATS = 5


def each_us(call, lows, highs, budget_seconds: float = 1.0) -> float:
    """Median latency (µs) of ``call(low, high)`` over a predicate stream.

    Stops early once ``budget_seconds`` are spent: a rung that falls back to
    scanning would otherwise take minutes over a thousand predicates.
    """
    latencies = []
    deadline = now() + budget_seconds
    for low, high in zip(lows, highs):
        started = now()
        call(low, high)
        ended = now()
        latencies.append(ended - started)
        if ended > deadline:
            break
    return median(latencies) * 1e6


def mrows_per_s(work, rows: int) -> float:
    """Median throughput of ``work()`` (which processes ``rows`` rows)."""
    rates = []
    for _ in range(REPEATS):
        started = now()
        work()
        rates.append(rows / (now() - started) / 1e6)
    return median(rates)


# ----------------------------------------------------------------------
# explore_cold: construction kernels
# ----------------------------------------------------------------------
def kernel_probes(values: np.ndarray) -> dict:
    """Throughput of the construction primitives on one column."""
    rows = int(values.size)
    pivot = gen.DOMAIN // 2
    bucket_ids = values >> 24  # top 6 of 30 bits: 64 buckets
    codec = IntKeyCodec()

    def scatter():
        BucketSet(64).scatter(values, bucket_ids)

    def sorter_pass():
        sorter = ProgressiveSorter(values.copy(), value_low=0, value_high=gen.DOMAIN)
        for _ in range(10):  # the budgeted, incremental path refinement takes
            sorter.refine(rows // 10)

    return {
        "cracking.kernels.partition_predicated_mrows_s":
            mrows_per_s(lambda: partition_predicated(values.copy(), pivot), rows),
        "cracking.kernels.partition_two_sided_mrows_s":
            mrows_per_s(lambda: partition_two_sided(values.copy(), pivot), rows),
        "progressive.blocks.scatter_mrows_s": mrows_per_s(scatter, rows),
        "progressive.sorter.partition_mrows_s": mrows_per_s(sorter_pass, rows),
        "core.keys.encode_mrows_s": mrows_per_s(lambda: codec.encode(values), rows),
    }


# ----------------------------------------------------------------------
# serve_converged: the ladder's in-process rungs
# ----------------------------------------------------------------------
def ladder_in_process(oracle: gen.Oracle, session, lows, highs, served=None) -> dict:
    """The same predicates at every in-process boundary, floor upwards.

    ``served`` is the session the MVCC reader view goes over when it cannot
    go over ``session`` itself.
    """
    sorted_values, prefix = oracle.sorted, oracle.prefix

    def floor(low, high):
        left = np.searchsorted(sorted_values, low, side="left")
        right = np.searchsorted(sorted_values, high, side="right")
        return prefix[right] - prefix[left], right - left

    cascade = CascadeTree(sorted_values)
    index = session.index_for("ra")
    reader = SharedEngine(served or session).reader()
    return {
        "floor.searchsorted_us": each_us(floor, lows, highs),
        "btree.cascade.range_query_us": each_us(cascade.range_query, lows, highs),
        "core.index.query_us":
            each_us(lambda low, high: index.query(Predicate(low, high)), lows, highs),
        "engine.session.between_us":
            each_us(lambda low, high: session.between("ra", low, high), lows, highs),
        "engine.shared.reader_between_us":
            each_us(lambda low, high: reader.between("ra", low, high), lows, highs),
    }


def codec_us(lows, highs, responses) -> float:
    """Encode + decode of one ``between`` request and its response (µs)."""
    latencies = []
    for low, high, response in zip(lows, highs, responses):
        request = {"op": "between", "column": "ra", "low": low, "high": high}
        started = now()
        read_message(io.BytesIO(encode_message(request)))
        read_message(io.BytesIO(encode_message(response)))
        latencies.append(now() - started)
    return median(latencies) * 1e6


# ----------------------------------------------------------------------
# durable_mixed: WAL, delta store, checkpoint and recovery
# ----------------------------------------------------------------------
def apply_write(db, operation):
    """Apply one write of the durable tape; returns the rows it wrote."""
    kind = operation[0]
    if kind == "insert":
        return len(db.insert(operation[1]))
    if kind == "delete":
        return db.delete("ra", operation[1], operation[2])
    return db.update("ra", operation[1], operation[2], operation[3])


def wal_probe(payloads: list) -> dict:
    """Append and commit latency of a scratch WAL fed the tape's inserts."""
    directory = scratch_dir("wal-probe")
    path = os.path.join(directory, "wal.log")
    wal = WriteAheadLog(path)
    appends, commits = [], []
    user_bytes = 0
    try:
        empty = wal.size_bytes()
        for values in payloads:
            started = now()
            wal.append_insert({"ra": values})
            appended = now()
            wal.commit()
            committed = now()
            appends.append(appended - started)
            commits.append(committed - appended)
            user_bytes += values.nbytes
        written = wal.size_bytes() - empty
    finally:
        wal.close()
        remove_dir(directory)
    return {
        "persist.wal.append_us": median(appends) * 1e6,
        "persist.wal.commit_us": median(commits) * 1e6,
        "persist.wal.bytes_per_user_byte": written / user_bytes,
    }


def delta_insert_us_per_row(values: np.ndarray, payloads: list) -> float:
    column = Column(values, name="ra")
    latencies = []
    for payload in payloads:
        started = now()
        column.insert(payload)
        latencies.append((now() - started) / payload.size)
    return median(latencies) * 1e6


def overlay_correction_us(session, lows, highs, pending: np.ndarray) -> float:
    """Converged read with a pending delta minus the same read without one.

    ``pending`` stays below the merge trigger, so no fold starts and the
    difference is the overlay correction alone.
    """
    clean = each_us(lambda low, high: session.between("ra", low, high), lows, highs)
    session.insert(pending)
    dirty = each_us(lambda low, high: session.between("ra", low, high), lows, highs)
    return dirty - clean


def _directory_bytes(directory: str) -> int:
    total = 0
    for folder, _, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
    return total


def _part_files(directory: str) -> dict:
    found = {}
    for folder, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".part") or name == "checkpoint.bin":
                path = os.path.join(folder, name)
                found[path] = os.path.getsize(path)
    return found


def durable_fixed_probe(values: np.ndarray, pool: gen.Pool, writes: list) -> dict:
    """A small, fully deterministic durability scenario.

    FixedDelta budget, fixed write list, checkpoint after the first half:
    every count it reports must repeat exactly under one seed.
    """
    directory = scratch_dir("durable-probe")
    db = Database.create(directory, {"ra": values})
    try:
        index = db.create_index("ra", method="PQ", fixed_delta=0.25)
        for low, high in zip(pool.lows, pool.highs):
            db.between("ra", low, high)
            if index.converged:
                break
        half = len(writes) // 2
        checkpoint_seconds = []
        stats = {}
        for number, operation in enumerate(writes):
            apply_write(db, operation)
            db.commit()
            if number + 1 == half // 2 or number + 1 == half:
                before = _part_files(directory)
                started = now()
                db.checkpoint()
                checkpoint_seconds.append(now() - started)
                after = _part_files(directory)
                fresh = {path: size for path, size in after.items()
                         if path.endswith("checkpoint.bin") or path not in before}
                parts = [path for path in after if path.endswith(".part")]
                reused = [path for path in parts if path in before]
                stats = {
                    "persist.checkpoint.bytes_written": float(sum(fresh.values())),
                    "persist.checkpoint.parts_reused_share": len(reused) / len(parts),
                }
        visible_bytes = len(db.table) * values.itemsize
        db.close(checkpoint=False)
        db = None
        watermark = CheckpointManager(directory).summary()["op_id"]
        wal, committed = WriteAheadLog.open(os.path.join(directory, "wal.log"))
        wal.close()
        stats["persist.database.replayed_ops"] = float(
            sum(1 for record in committed if record.op_id > watermark)
        )
        stats["persist.disk_bytes_per_user_byte"] = _directory_bytes(directory) / visible_bytes
        stats["persist.checkpoint.write_s"] = median(checkpoint_seconds)
    finally:
        if db is not None:
            db.close(checkpoint=False)
        remove_dir(directory)
    return stats


# ----------------------------------------------------------------------
# outofcore_cold: block codec
# ----------------------------------------------------------------------
def decode_block_mrows_s(values: np.ndarray) -> float:
    block = np.ascontiguousarray(values[: 1 << 16])
    codec, width, payload, _, _, reference = encode_block(block)
    return mrows_per_s(
        lambda: decode_block(payload, codec, width, block.size, block.dtype, reference),
        block.size,
    )

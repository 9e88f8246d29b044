"""The generator: every input of a run, derived from ``--seed`` alone.

Data, predicates, write operations and arrival times are materialised here,
up front; the program under test receives only these values.  The oracles
answer from a sorted copy with ``searchsorted`` + prefix sums and never see
the program.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Values are uniform int64 in ``[0, DOMAIN)``.
DOMAIN = 1 << 30


def generators(seed: int, workload: str, count: int) -> list:
    """``count`` independent random streams for one (seed, workload)."""
    root = np.random.SeedSequence([int(seed), zlib.crc32(workload.encode())])
    return [np.random.default_rng(child) for child in root.spawn(count)]


def column(rng, rows: int) -> np.ndarray:
    return rng.integers(0, DOMAIN, size=int(rows), dtype=np.int64)


def ranges(rng, count: int, low_share: float, high_share: float | None = None,
           start: int = 0, stop: int = DOMAIN):
    """``count`` inclusive ranges inside ``[start, stop)``.

    Each range covers between ``low_share`` and ``high_share`` of the whole
    domain (uniform data: that is also its selectivity).
    """
    high_share = low_share if high_share is None else high_share
    widths = (rng.uniform(low_share, high_share, count) * DOMAIN).astype(np.int64)
    widths = np.minimum(widths, stop - start - 1)
    lows = start + (rng.random(count) * (stop - start - widths)).astype(np.int64)
    return lows, lows + widths


class Oracle:
    """Exact ``SUM``/``COUNT`` over a frozen value set."""

    def __init__(self, values: np.ndarray) -> None:
        self.sorted = np.sort(values)
        self.prefix = np.concatenate([[0], np.cumsum(self.sorted)])

    def answer(self, lows, highs):
        """``(sums, counts)`` of the values in each ``[low, high]``."""
        left = np.searchsorted(self.sorted, lows, side="left")
        right = np.searchsorted(self.sorted, highs, side="right")
        return self.prefix[right] - self.prefix[left], right - left


class Pool:
    """A predicate stream with the oracle's answers beside it.

    Bounds are plain Python ints (what a caller, and JSON, would pass).
    """

    def __init__(self, oracle: Oracle, lows: np.ndarray, highs: np.ndarray) -> None:
        self.lows = [int(v) for v in lows]
        self.highs = [int(v) for v in highs]
        self.sums, self.counts = oracle.answer(lows, highs)

    def __len__(self) -> int:
        return len(self.lows)

    def mismatches(self, positions, got) -> list:
        """Positions whose ``(sum, count)`` answer differs from the oracle."""
        wrong = []
        for position, (value_sum, count) in zip(positions, got):
            if int(count) != int(self.counts[position]) or int(value_sum) != int(self.sums[position]):
                wrong.append((position, (int(value_sum), int(count)),
                              (int(self.sums[position]), int(self.counts[position]))))
        return wrong


# ----------------------------------------------------------------------
# serve_converged: the request mix
# ----------------------------------------------------------------------
def serve_tape(rng, oracle: Oracle, data: np.ndarray, count: int, batch_size: int):
    """``count`` requests: 60% equals, 30% between, 8% batch, 2% refresh.

    Returns a list of ``(verb, argument, expected)``; ``expected`` is the
    oracle's ``(sums, counts)`` (arrays for a batch, ``None`` for refresh).
    """
    verbs = rng.choice(4, size=count, p=[0.60, 0.30, 0.08, 0.02])
    points = rng.choice(data, size=count)
    lows, highs = ranges(rng, count, 0.001, 0.01)
    batch_lows, batch_highs = ranges(
        rng, int(np.count_nonzero(verbs == 2)) * batch_size, 0.001, 0.01)
    point_sums, point_counts = oracle.answer(points, points)
    range_sums, range_counts = oracle.answer(lows, highs)
    tape = []
    cursor = 0
    for number, verb in enumerate(verbs):
        if verb == 0:
            tape.append(("equals", int(points[number]),
                         (int(point_sums[number]), int(point_counts[number]))))
        elif verb == 1:
            tape.append(("between", (int(lows[number]), int(highs[number])),
                         (int(range_sums[number]), int(range_counts[number]))))
        elif verb == 2:
            chunk = slice(cursor, cursor + batch_size)
            cursor += batch_size
            bounds = [[int(lo), int(hi)] for lo, hi in zip(batch_lows[chunk], batch_highs[chunk])]
            sums, counts = oracle.answer(batch_lows[chunk], batch_highs[chunk])
            tape.append(("batch", bounds, (sums.tolist(), counts.tolist())))
        else:
            tape.append(("refresh", None, None))
    return tape


def poisson_arrivals(rng, rate: float, count: int) -> np.ndarray:
    """Intended send offsets (seconds) of ``count`` arrivals at ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


# ----------------------------------------------------------------------
# durable_mixed: the read/write tape and its model
# ----------------------------------------------------------------------
def durable_tape(rng, count: int, write_share: float, insert_rows: int):
    """``count`` operations; writes cycle insert / narrow delete / update.

    Reads are ``("read", low, high)`` at 1% selectivity; every write is one
    transaction the runner follows with ``commit()``.
    """
    is_write = rng.random(count) < write_share
    lows, highs = ranges(rng, count, 0.01)
    narrow_lows, narrow_highs = ranges(rng, count, 0.00001)
    targets = rng.integers(0, DOMAIN, size=count)
    tape = []
    writes = 0
    for number in range(count):
        if not is_write[number]:
            tape.append(("read", int(lows[number]), int(highs[number])))
            continue
        kind = writes % 3
        writes += 1
        if kind == 0:
            values = rng.integers(0, DOMAIN, size=insert_rows, dtype=np.int64)
            tape.append(("insert", values))
        elif kind == 1:
            tape.append(("delete", int(narrow_lows[number]), int(narrow_highs[number])))
        else:
            tape.append(("update", int(narrow_lows[number]), int(narrow_highs[number]),
                         int(targets[number])))
    return tape


class MutableOracle:
    """The list-of-values model of a column under insert/delete/update.

    The base stays sorted and frozen; live inserted values and deleted base
    values are two small sorted side arrays, so every answer is three
    ``searchsorted`` differences.
    """

    def __init__(self, base: Oracle) -> None:
        self.base = base
        self.inserted = np.empty(0, dtype=np.int64)
        self.deleted = np.empty(0, dtype=np.int64)

    @staticmethod
    def _aggregate(values: np.ndarray, low, high):
        left = np.searchsorted(values, low, side="left")
        right = np.searchsorted(values, high, side="right")
        return int(values[left:right].sum()), int(right - left)

    def read(self, low, high):
        base_sum, base_count = self.base.answer(low, high)
        ins_sum, ins_count = self._aggregate(self.inserted, low, high)
        del_sum, del_count = self._aggregate(self.deleted, low, high)
        return int(base_sum) + ins_sum - del_sum, int(base_count) + ins_count - del_count

    def insert(self, values) -> None:
        self.inserted = np.sort(np.concatenate([self.inserted, np.asarray(values, dtype=np.int64)]))

    def delete(self, low, high) -> int:
        """Remove every live value in ``[low, high]``; returns how many."""
        _, live = self.read(low, high)
        keep = (self.inserted < low) | (self.inserted > high)
        self.inserted = self.inserted[keep]
        left = np.searchsorted(self.base.sorted, low, side="left")
        right = np.searchsorted(self.base.sorted, high, side="right")
        outside = self.deleted[(self.deleted < low) | (self.deleted > high)]
        self.deleted = np.sort(np.concatenate([outside, self.base.sorted[left:right]]))
        return live

    def update(self, low, high, value) -> int:
        moved = self.delete(low, high)
        if moved:
            self.insert(np.full(moved, value, dtype=np.int64))
        return moved

    def apply(self, operation):
        """Apply one tape entry; returns the read answer or rows written."""
        kind = operation[0]
        if kind == "read":
            return self.read(operation[1], operation[2])
        if kind == "insert":
            self.insert(operation[1])
            return len(operation[1])
        if kind == "delete":
            return self.delete(operation[1], operation[2])
        return self.update(operation[1], operation[2], operation[3])


# ----------------------------------------------------------------------
# sharded_clustered: hot-shard zoom plus wide spans
# ----------------------------------------------------------------------
def clustered_ranges(rng, oracle: Oracle, count: int, shards: int, hot: tuple,
                     wide_every: int = 0):
    """Ranges zooming into the hot shards; every ``wide_every``-th spans four.

    Shard value ranges are the generator's own quantile cuts of the data —
    what a range partitioner would choose — not read from the program.  The
    wide ranges start in each shard in turn (a seeded order), so every seed
    touches the cold shards equally often and only the offsets differ.
    """
    cuts = oracle.sorted[(np.arange(shards + 1) * (oracle.sorted.size - 1)) // shards]
    which = rng.integers(0, len(hot), size=count)
    lows = np.empty(count, dtype=np.int64)
    highs = np.empty(count, dtype=np.int64)
    for position, shard in enumerate(hot):
        chosen = np.flatnonzero(which == position)
        lows[chosen], highs[chosen] = ranges(
            rng, chosen.size, 0.005, None, int(cuts[shard]), int(cuts[shard + 1])
        )
    if wide_every:
        wide = np.arange(wide_every - 1, count, wide_every)
        span = 3 * DOMAIN // shards
        starts = rng.permutation(shards - 3)[np.arange(wide.size) % (shards - 3)]
        offsets = rng.random(wide.size)
        lows[wide] = cuts[starts] + (offsets * (cuts[starts + 1] - cuts[starts])).astype(np.int64)
        highs[wide] = np.minimum(lows[wide] + span, DOMAIN - 1)
    return lows, highs

"""``build_layout`` against a plain reimplementation, on both kernel backends.

The layout's cuts are found inside brackets of a sorted strided sample,
then every row is routed once and each column scattered once.  The
reference below spells out the same rule the obvious way:
``np.quantile(method="higher")`` over all rows for the cuts,
``np.searchsorted`` for the shard ids, the old row-list rebalancing of
starved shards, and a stable ``argsort`` to group each column.  The two must agree exactly — cut points by value (``-0.0`` and
``0.0`` are one cut), offsets, per-row shard ids and every shard's values to
the element — because the shards, their zone maps and every index and
checkpoint built on them depend on that grouping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.progressive.bucketsort import DEFAULT_BOUNDS_SAMPLE
from repro.shard.partition import _hash_shards, build_layout, group_column, split_rows

SHARD_COUNTS = [1, 2, 3, 7, 8, 17]
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def reference_layout(values: np.ndarray, n_shards: int, kind: str):
    """``(boundaries, offsets, shard_ids)`` the plain way."""
    if kind == "range" and n_shards > 1:
        quantiles = np.quantile(values, np.arange(1, n_shards) / n_shards, method="higher")
        boundaries = np.asarray(quantiles, dtype=values.dtype)
        shard_ids = np.searchsorted(boundaries, values, side="left").astype(np.int64)
    elif kind == "hash" and n_shards > 1:
        boundaries = np.empty(0, dtype=values.dtype)
        shard_ids = _hash_shards(values, n_shards)
    else:
        boundaries = np.empty(0, dtype=values.dtype)
        shard_ids = np.zeros(values.size, dtype=np.int64)
    # Starved shards (duplicate-heavy columns): each empty shard, in order,
    # takes the last row of the then largest shard.
    rows = [np.flatnonzero(shard_ids == s) for s in range(n_shards)]
    while any(r.size == 0 for r in rows):
        donor = max(range(n_shards), key=lambda s: (rows[s].size, -s))
        taker = next(s for s in range(n_shards) if rows[s].size == 0)
        rows[taker], rows[donor] = rows[donor][-1:], rows[donor][:-1]
        shard_ids[rows[taker]] = taker
    offsets = np.zeros(n_shards + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=offsets[1:])
    return boundaries, offsets, shard_ids


def columns():
    rng = np.random.default_rng(25)
    uniform = rng.integers(0, 1_000_000, 5_000)
    edges = np.array([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX], dtype=np.int64)
    near_2_53 = np.array([2**53 - 1, 2**53, 2**53 + 1], dtype=np.int64)
    return {
        "uniform int64": uniform,
        "int64 at +-2**63": np.concatenate(
            [rng.choice(edges, 3_000), rng.integers(INT64_MIN, INT64_MAX, 3_000, endpoint=True)]),
        "int64 at 2**53 +- 1": rng.choice(near_2_53, 4_001),
        "float64 -0.0/0.0 ties": rng.choice([-0.0, 0.0, -1.5, 1.5], 3_001),
        "float64 normal": rng.standard_normal(4_099),
        "all equal": np.full(1_000, 42, dtype=np.int64),
        "duplicate heavy": np.concatenate([np.full(990, 5), rng.integers(0, 1_000, 10)]),
        "sorted": np.arange(2_000, dtype=np.int64),
        "reverse sorted float": np.arange(2_000, 0, -1) * 0.5,
    }


COLUMNS = columns()


def assert_same_layout(values, n_shards, kind):
    layout, shard_ids = build_layout(values, n_shards, kind=kind)
    boundaries, offsets, ids = reference_layout(values, n_shards, kind)
    assert layout.boundaries.dtype == boundaries.dtype
    assert layout.boundaries.tolist() == boundaries.tolist()  # by value: -0.0 == 0.0
    assert layout.offsets.dtype == np.int64 and layout.offsets.tolist() == offsets.tolist()
    assert shard_ids.dtype == np.int64 and np.array_equal(shard_ids, ids)
    grouped = values[np.argsort(ids, kind="stable")]
    shards = group_column(values, shard_ids, n_shards)
    assert len(shards) == n_shards
    for shard, start, stop in zip(shards, offsets, offsets[1:]):
        assert shard.dtype == values.dtype and shard.size > 0
        assert shard.view(np.uint64).tolist() == grouped[start:stop].view(np.uint64).tolist()


@pytest.mark.parametrize("kind", ["range", "hash"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("name", sorted(COLUMNS))
def test_layout_matches_the_reference(kernel_backend, name, n_shards, kind):
    assert_same_layout(COLUMNS[name], n_shards, kind)


@pytest.mark.parametrize("kind", ["range", "hash"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_one_row_per_shard(kernel_backend, n_shards, kind):
    values = np.random.default_rng(n_shards).integers(-50, 50, n_shards)
    assert_same_layout(values, n_shards, kind)
    assert_same_layout(values * 0.5, n_shards, kind)


def test_range_routes_inserts_like_the_build(kernel_backend):
    """One routing definition: ``route_values`` reproduces the build's ids, in
    the column's dtype, where a float64 comparison would merge 2**53 and 2**53 + 1."""
    values = np.array([2**53 + 1, 2**53, 2**53 + 2, 2**53 + 1, 2**53] * 40, dtype=np.int64)
    layout, shard_ids = build_layout(values, 3)
    assert np.array_equal(layout.route_values(values), shard_ids)
    assert layout.boundaries.tolist() == [2**53, 2**53 + 1]
    assert layout.route_values(np.array([2**53 + 1], dtype=np.int64)).tolist() == [1]


def test_grouping_is_stable_and_rejects_foreign_ids(kernel_backend):
    ids = np.array([2, 0, 2, 1, 0, 2], dtype=np.int64)
    values = np.array([10, 11, 12, 13, 14, 15], dtype=np.int64)
    grouped = [shard.tolist() for shard in group_column(values, ids, 4)]
    assert grouped == [[11, 14], [13], [10, 12, 15], []]
    split = [(shard, positions.tolist()) for shard, positions in split_rows(ids, 4)]
    assert split == [(0, [1, 4]), (1, [3]), (2, [0, 2, 5])]  # shard 3 owns nothing
    with pytest.raises(IndexError):
        group_column(np.arange(2), np.array([0, 4]), 4)
    with pytest.raises(IndexError):
        list(split_rows(np.array([0, 4]), 4))


@pytest.mark.parametrize("kind", ["range", "hash"])
def test_cuts_are_exact_past_the_sample(kernel_backend, kind):
    """Past 65 536 rows the cuts are still the quantiles of every row: found
    inside the sample's brackets, or, where the sample is in step with the
    data (every third row small) or the brackets touch (few distinct
    values), by the sort of every row."""
    rng = np.random.default_rng(3)
    n = 3 * DEFAULT_BOUNDS_SAMPLE + 17
    values = rng.integers(-(10**12), 10**12, n)
    in_step = np.where(np.arange(n) % 3 == 0, rng.integers(0, 10**6, n), rng.integers(10**9, 10**10, n))
    for data in (values, np.sort(values) * 0.25, in_step, rng.integers(0, 5, n), rng.choice([-0.0, 0.0, 1.0], n)):
        for n_shards in (2, 8, 17):
            assert_same_layout(data, n_shards, kind)

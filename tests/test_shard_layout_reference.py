"""``build_layout`` against the algorithm it replaced, on both kernel backends.

The layout is built from one sort (the cuts), one routing pass and one
counting scatter.  The reference below is the previous construction, kept
verbatim: ``np.quantile(method="higher")`` for the cuts, ``np.searchsorted``
for the shard ids, a stable ``argsort`` to group the rows.  The two must
agree exactly — cut points by value (``-0.0`` and ``0.0`` are one cut),
offsets, per-row shard ids and every shard's ``source_rows`` to the element —
because the shards, their zone maps and every index and checkpoint built on
them depend on that grouping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard.partition import (
    _hash_shards,
    build_layout,
    group_rows,
    rebalance_empty_shards,
    split_rows,
)

SHARD_COUNTS = [1, 2, 3, 7, 8, 17]
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def reference_layout(values: np.ndarray, n_shards: int, kind: str):
    """``(boundaries, offsets, shard_ids, source_rows)`` the previous way."""
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
    order = np.argsort(shard_ids, kind="stable")
    counts = np.bincount(shard_ids, minlength=n_shards)
    offsets = np.zeros(n_shards + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    source_rows = [order[offsets[s] : offsets[s + 1]].astype(np.int64) for s in range(n_shards)]
    return boundaries, offsets, shard_ids, source_rows


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
    layout, source_rows, shard_ids = build_layout(values, n_shards, kind=kind)
    boundaries, offsets, ids, rows = reference_layout(values, n_shards, kind)
    assert layout.boundaries.dtype == boundaries.dtype
    assert layout.boundaries.tolist() == boundaries.tolist()  # by value: -0.0 == 0.0
    assert layout.offsets.dtype == np.int64 and layout.offsets.tolist() == offsets.tolist()
    assert shard_ids.dtype == np.int64 and np.array_equal(shard_ids, ids)
    assert len(source_rows) == n_shards
    for mine, theirs in zip(source_rows, rows):
        assert mine.dtype == np.int64 and np.array_equal(mine, theirs)
    # The duplicate-heavy columns starve shards; the rebalanced layouts agree too.
    reference = type(layout)(layout.kind, n_shards, layout.driving_column, boundaries, offsets.copy())
    balanced = rebalance_empty_shards(layout, list(source_rows))
    expected = rebalance_empty_shards(reference, list(rows))
    assert layout.offsets.tolist() == reference.offsets.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(balanced, expected))


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
    layout, _, shard_ids = build_layout(values, 3)
    assert np.array_equal(layout.route_values(values), shard_ids)
    assert layout.boundaries.tolist() == [2**53, 2**53 + 1]
    assert layout.route_values(np.array([2**53 + 1], dtype=np.int64)).tolist() == [1]


def test_grouping_is_stable_and_rejects_foreign_ids(kernel_backend):
    ids = np.array([2, 0, 2, 1, 0, 2], dtype=np.int64)
    rows, offsets = group_rows(ids, 4)
    assert rows.tolist() == [1, 4, 3, 0, 2, 5] and offsets.tolist() == [0, 2, 3, 6, 6]
    split = [(shard, positions.tolist()) for shard, positions in split_rows(ids, 4)]
    assert split == [(0, [1, 4]), (1, [3]), (2, [0, 2, 5])]  # shard 3 owns nothing
    with pytest.raises(IndexError):
        group_rows(np.array([0, 4]), 4)

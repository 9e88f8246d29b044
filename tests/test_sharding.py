"""Unit tests for the sharding layer: layouts, columns, router, budget pool."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.phase import IndexPhase
from repro.core.policy import FixedDelta, PooledBudgetController
from repro.core.query import Predicate
from repro.engine.session import IndexingSession
from repro.errors import ExperimentError, InvalidColumnError
from repro.shard import zonemaps
from repro.shard.column import ShardedColumn, shard_column, shard_table
from repro.shard.executor import shard_allowance
from repro.shard.index import build_sharded_index, merge_phase
from repro.shard.partition import build_layout, rebalance_empty_shards
from repro.shard.router import ShardRouter
from repro.storage.column import Column
from repro.storage.table import Table


# ----------------------------------------------------------------------
# Layouts
# ----------------------------------------------------------------------
class TestLayout:
    def test_range_layout_splits_evenly(self, uniform_data):
        layout, source_rows, shard_ids = build_layout(uniform_data, 4, kind="range")
        sizes = layout.shard_sizes()
        assert sizes.sum() == uniform_data.size
        assert sizes.min() >= 0.8 * uniform_data.size / 4
        # every row assigned exactly once
        assert np.sort(np.concatenate(source_rows)).tolist() == list(
            range(uniform_data.size)
        )

    def test_range_layout_even_under_skew(self, skewed_data):
        layout, _, _ = build_layout(skewed_data, 8, kind="range")
        sizes = layout.shard_sizes()
        # quantile cuts keep shards near-even despite 90% value concentration
        assert sizes.min() >= 0.5 * skewed_data.size / 8

    def test_hash_layout_balanced(self, uniform_data):
        layout, _, _ = build_layout(uniform_data, 4, kind="hash")
        sizes = layout.shard_sizes()
        assert sizes.min() >= 0.5 * uniform_data.size / 4

    def test_route_values_matches_build_assignment(self, uniform_data):
        for kind in ("range", "hash"):
            layout, _, shard_ids = build_layout(uniform_data, 4, kind=kind)
            again = layout.route_values(uniform_data)
            assert np.array_equal(again, shard_ids), kind

    def test_shard_of_base_rid_inverts_offsets(self, uniform_data):
        layout, _, _ = build_layout(uniform_data, 4)
        rids = np.arange(layout.total_base_rows)
        owners = layout.shard_of_base_rid(rids)
        for shard in range(4):
            block = rids[owners == shard]
            assert block.min() == layout.offsets[shard]
            assert block.max() == layout.offsets[shard + 1] - 1

    def test_rebalance_fills_empty_shards(self):
        data = np.array([5] * 99 + [7], dtype=np.int64)
        layout, source_rows, _ = build_layout(data, 4)
        source_rows = rebalance_empty_shards(layout, source_rows)
        assert all(rows.size > 0 for rows in source_rows)
        assert layout.shard_sizes().sum() == 100

    def test_invalid_layouts_rejected(self):
        with pytest.raises(InvalidColumnError):
            build_layout(np.arange(10), 0)
        with pytest.raises(InvalidColumnError):
            build_layout(np.arange(3), 5)
        with pytest.raises(InvalidColumnError):
            build_layout(np.arange(10), 2, kind="modulo")


# ----------------------------------------------------------------------
# Zone-map primitives
# ----------------------------------------------------------------------
class TestZonemaps:
    def test_bin_range_bitmap_closed_form(self):
        for low, high in [(0, 0), (0, 63), (5, 12), (63, 63), (12, 5)]:
            expected = 0
            for bit in range(low, high + 1):
                expected |= 1 << bit
            assert int(zonemaps.bin_range_bitmap(low, high)) == expected

    def test_occupancy_bitmaps_match_per_block_loop(self, rng):
        values = rng.integers(0, 1000, 1000)
        edges = zonemaps.bin_edges(0, 1000, 64)
        block = 96  # non-divisor: exercises the partial tail block
        vectorized = zonemaps.occupancy_bitmaps(edges, values, block)
        for number in range(vectorized.size):
            chunk = values[number * block : (number + 1) * block]
            assert vectorized[number] == zonemaps.occupancy_bitmap(edges, chunk)

    def test_interval_overlap_matrix(self):
        mins = np.array([0.0, 100.0])
        maxs = np.array([99.0, 199.0])
        matrix = zonemaps.interval_overlap_matrix(mins, maxs, [0, 150], [50, 160])
        assert matrix.tolist() == [[True, False], [False, True]]


# ----------------------------------------------------------------------
# ShardedColumn
# ----------------------------------------------------------------------
class TestShardedColumn:
    def test_rids_where_globally_sorted_no_resort(self, uniform_data):
        column = shard_column(Column(uniform_data, name="v"), 4)
        plain = Column(uniform_data.copy(), name="v")
        # The sharded view permutes rows, so compare against the *sharded*
        # visible order's reference: rids map to the sharded value space.
        rids = column.rids_where(10_000, 20_000)
        assert np.all(np.diff(rids) > 0), "rids must be strictly ascending"
        values = column.values_at(rids)
        assert np.all((values >= 10_000) & (values <= 20_000))
        mask = (uniform_data >= 10_000) & (uniform_data <= 20_000)
        assert rids.size == int(mask.sum())
        assert int(values.sum()) == int(uniform_data[mask].sum())

    def test_rids_where_after_inserts_and_deletes(self, uniform_data, rng):
        column = shard_column(Column(uniform_data, name="v"), 4)
        inserted = rng.integers(0, 50_000, 500)
        new_rids = column.insert(inserted)
        assert new_rids.min() == column.total_base_rows
        total = column.total_base_rows + inserted.size
        # rid -> value map captured before deleting (rids are stable)
        values_by_rid = column.values_at(np.arange(total))
        deleted_rids = column.delete_where(5_000, 6_000)
        alive = np.ones(total, dtype=bool)
        alive[deleted_rids] = False
        rids = column.rids_where(0, 50_000)
        assert np.all(np.diff(rids) > 0)
        # every value is in [0, 50_000], so the answer is exactly the
        # alive rid set
        assert np.array_equal(rids, np.flatnonzero(alive))
        assert int(column.values_at(rids).sum()) == int(
            values_by_rid[alive].sum()
        )

    def test_sibling_columns_row_aligned(self, rng):
        a = rng.integers(0, 10_000, 5_000)
        b = rng.normal(size=5_000)
        table = Table({"a": a, "b": b})
        shard_table(table, "a", 4)
        col_a, col_b = table.column("a"), table.column("b")
        # the (shard, local-rid) concatenated views are row-aligned
        mask = np.asarray(col_a.data) < 5_000
        assert np.isclose(
            np.asarray(col_b.data)[mask].sum(), b[a < 5_000].sum()
        )
        # table-level insert routes every column with one assignment
        # (sentinels outside the base domain so the lookup is unambiguous)
        table.insert_rows(
            {"a": np.array([20_000, 30_000]), "b": np.array([0.5, -0.5])}
        )
        mask = np.asarray(col_a.data) == 20_000
        assert np.asarray(col_b.data)[mask].tolist() == [0.5]

    def test_non_driving_column_insert_requires_shard_ids(self, rng):
        table = Table({"a": rng.integers(0, 100, 500), "b": rng.normal(size=500)})
        shard_table(table, "a", 2)
        with pytest.raises(InvalidColumnError):
            table.column("b").insert([1.0])

    def test_shard_bounds_widen_with_inserts(self, uniform_data):
        column = shard_column(Column(uniform_data, name="v"), 4)
        mins_before, maxs_before = column.shard_bounds()
        column.insert(np.array([200_000]))
        _, maxs_after = column.shard_bounds()
        assert maxs_after.max() == 200_000.0
        assert maxs_after.max() > maxs_before.max()

    def test_shard_column_rejects_written_column(self, uniform_data):
        plain = Column(uniform_data, name="v")
        plain.insert(np.array([1]))
        with pytest.raises(InvalidColumnError):
            shard_column(plain, 2)


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class TestRouter:
    def test_pruned_shards_provably_empty(self, uniform_data, rng):
        """Property test: force-scan pruned shards — they must hold nothing."""
        column = shard_column(Column(uniform_data, name="v"), 7)
        router = ShardRouter(column)
        column.insert(rng.integers(0, 50_000, 200))
        for _ in range(50):
            low = int(rng.integers(0, 45_000))
            high = low + int(rng.integers(0, 5_000))
            survivors = set(router.route(low, high).tolist())
            for shard_number, shard in enumerate(column.shards):
                if shard_number not in survivors:
                    _, count = shard.scan_range(low, high)
                    assert count == 0, (
                        f"router pruned shard {shard_number} for "
                        f"[{low}, {high}] but it holds {count} rows"
                    )

    def test_range_layout_prunes_clustered_predicates(self, uniform_data):
        column = shard_column(Column(uniform_data, name="v"), 8)
        router = ShardRouter(column)
        # a narrow band inside one shard's value range
        survivors = router.route(1_000, 1_500)
        assert survivors.size <= 2
        assert router.pruned_fraction() >= 0.5

    def test_bitmap_router_prunes_hash_layout_clusters(self, rng):
        # values come in two well-separated clusters; hash sharding spreads
        # them across shards, but each shard's bitmap knows its bins
        values = np.concatenate(
            [rng.integers(0, 1_000, 5_000), rng.integers(60_000, 61_000, 5_000)]
        )
        column = shard_column(Column(values, name="v"), 4, kind="hash")
        plain = ShardRouter(column)
        binned = ShardRouter(column, bin_bits=True)
        # the gap region matches nothing: interval bounds cannot prune
        # (every shard spans the gap) but the bin bitmaps can
        assert plain.route(20_000, 40_000).size == 4
        assert binned.route(20_000, 40_000).size == 0

    def test_route_many_matches_route(self, uniform_data, rng):
        column = shard_column(Column(uniform_data, name="v"), 5)
        router = ShardRouter(column)
        lows = rng.integers(0, 45_000, 20)
        highs = lows + rng.integers(0, 5_000, 20)
        matrix = router.route_many(lows, highs)
        for number, (low, high) in enumerate(zip(lows, highs)):
            assert matrix[number].nonzero()[0].tolist() == router.route(
                low, high
            ).tolist()

    def test_counters_and_describe(self, uniform_data):
        column = shard_column(Column(uniform_data, name="v"), 4)
        router = ShardRouter(column)
        router.route(0, 50_000)
        report = router.describe()
        assert report["queries_routed"] == 1
        assert report["shards_dispatched"] == 4


# ----------------------------------------------------------------------
# Pooled budget controller
# ----------------------------------------------------------------------
class TestPooledBudget:
    def test_serial_split(self):
        pool = PooledBudgetController(0.01, n_shards=4, parallelism=1)
        assert pool.shard_budget(4) == pytest.approx(0.0025)
        assert pool.shard_budget(2) == pytest.approx(0.005)
        assert pool.shard_budget(1) == pytest.approx(0.01)

    def test_parallel_lanes_restore_tau(self):
        pool = PooledBudgetController(0.01, n_shards=4, parallelism=4)
        # all lanes concurrent: every shard gets the full tau
        assert pool.shard_budget(4) == pytest.approx(0.01)
        pool = PooledBudgetController(0.01, n_shards=4, parallelism=2)
        assert pool.shard_budget(4) == pytest.approx(0.005)

    def test_pruning_donates_budget(self):
        pool = PooledBudgetController(0.012, n_shards=6, parallelism=1)
        assert pool.shard_budget(2) > pool.shard_budget(6)

    def test_uncapped_when_no_tau(self):
        pool = PooledBudgetController(None, n_shards=4)
        assert pool.shard_budget(4) is None
        assert shard_allowance(pool.shard_budget(4), 0.001) == float("inf")

    def test_allowance_subtracts_base_cost(self):
        pool = PooledBudgetController(0.01, n_shards=2, parallelism=1)
        assert shard_allowance(pool.shard_budget(2), 0.001) == pytest.approx(0.004)
        assert shard_allowance(pool.shard_budget(2), 1.0) == 0.0
        assert shard_allowance(pool.shard_budget(2), None) == pytest.approx(0.005)

    def test_charge_accounting(self):
        pool = PooledBudgetController(0.01, n_shards=4)
        pool.charge(3, 0.002)
        snapshot = pool.snapshot()
        assert snapshot["queries"] == 1
        assert snapshot["shards_charged"] == 3
        assert snapshot["granted_seconds"] == pytest.approx(0.002)

    def test_batch_charge_equals_per_query_charges(self):
        one_by_one = PooledBudgetController(0.01, n_shards=4)
        for touched in (3, 0, 1, 4):
            one_by_one.charge(touched, 0.0)
        at_once = PooledBudgetController(0.01, n_shards=4)
        at_once.charge(8, 0.0, queries=4)
        assert at_once.snapshot() == one_by_one.snapshot()


# ----------------------------------------------------------------------
# Merged phase facade
# ----------------------------------------------------------------------
class TestMergedPhase:
    def test_merge_phase_rules(self):
        C, R, M, V = (
            IndexPhase.CREATION,
            IndexPhase.REFINEMENT,
            IndexPhase.MERGE,
            IndexPhase.CONVERGED,
        )
        assert merge_phase([V, V, V]) is V
        assert merge_phase([M, V, M]) is M
        assert merge_phase([C, R, V]) is C
        assert merge_phase([R, M, V]) is R
        assert merge_phase([IndexPhase.INACTIVE, C]) is IndexPhase.INACTIVE


def test_failing_shard_task_joins_its_siblings_before_raising(monkeypatch):
    """No pool task outlives a failed query, so a retry never puts two
    threads on one shard index."""
    import time

    index = build_sharded_index(
        np.arange(40_000), "PQ", shards=4, parallel=True, workers=2,
        budget=FixedDelta(0.05),
    )
    executor = index._executor
    answer, finished = executor._answer, []

    def failing_answer(shard_number, predicate, shard_budget):
        if shard_number == 0:
            raise RuntimeError("shard 0 failed")
        time.sleep(0.05)
        finished.append(shard_number)
        return answer(shard_number, predicate, shard_budget)

    monkeypatch.setattr(executor, "_answer", failing_answer)
    with pytest.raises(RuntimeError, match="shard 0 failed"):
        index.query(Predicate(0, 40_000))
    assert sorted(finished) == [1, 2, 3]  # before close() joins the pool
    index.close()


# ----------------------------------------------------------------------
# The read path: cached bounds, steady reads, batch accounting
# ----------------------------------------------------------------------
def _converge(index, data, rng, limit=400):
    """Random narrow reads until every shard converged."""
    top = int(data.max())
    for _ in range(limit):
        if index.converged:
            return
        low = int(rng.integers(0, top))
        index.query(Predicate(low, low + 500))
    raise AssertionError("index did not converge")


def _model_answer(model, low, high):
    hits = [value for value in model if low <= value <= high]
    return sum(hits), len(hits)


def _answer(index, low, high):
    result = index.query(Predicate(low, high))
    return int(result.value_sum), int(result.count)


class TestReadPath:
    def test_bounds_are_cached_until_an_insert_widens_them(self, uniform_data):
        column = shard_column(Column(uniform_data, name="v"), 4)
        bounds = column.shard_bounds()
        assert column.shard_bounds()[1] is bounds[1]
        assert bounds[0].dtype == np.int64  # the column's dtype, not float64
        inside = int(bounds[0][1]) + 1
        column.insert(np.array([inside]))  # widens nothing
        assert column.shard_bounds()[1] is bounds[1]
        column.insert(np.array([70_000]))
        assert column.shard_bounds()[1] is not bounds[1]
        assert int(column.shard_bounds()[1][-1]) == 70_000

    def test_insert_widening_a_pruned_shard_is_routed_to_at_once(self, uniform_data, rng):
        column = shard_column(Column(uniform_data, name="v"), 4)
        index = build_sharded_index(column, "PQ", budget=FixedDelta(0.5))
        model = uniform_data.tolist()
        _converge(index, uniform_data, rng)
        # beyond every shard: pruned everywhere, nothing dispatched
        assert index.router.route(90_000, 90_010).size == 0
        assert _answer(index, 90_000, 90_010) == (0, 0)
        column.insert(np.array([90_005]))
        model.append(90_005)
        assert index.router.route(90_000, 90_010).tolist() == [3]
        assert _answer(index, 90_000, 90_010) == (90_005, 1)
        # and below the lowest shard, which a [-20, -1] read pruned too
        assert _answer(index, -20, -1) == (0, 0)
        column.insert(np.array([-7]))
        model.append(-7)
        assert _answer(index, -20, -1) == (-7, 1)
        assert _answer(index, -20, 95_000) == _model_answer(model, -20, 95_000)

    def test_write_to_converged_shard_caps_then_returns_to_steady_read(
        self, uniform_data, rng
    ):
        column = shard_column(Column(uniform_data, name="v"), 4)
        index = build_sharded_index(column, "PQ", budget=FixedDelta(0.5))
        model = uniform_data.tolist()
        _converge(index, uniform_data, rng)
        mins, maxs = column.shard_bounds()
        low, high = int(mins[1]), int(maxs[1])
        granted = index.budget.snapshot()["granted_seconds"]
        for _ in range(5):  # steady reads grant nothing
            assert _answer(index, low, high) == _model_answer(model, low, high)
        assert index.budget.snapshot()["granted_seconds"] == granted
        fresh = rng.integers(low, high, 400)
        column.insert(fresh)
        model.extend(fresh.tolist())
        assert index.has_pending_merge() and index.converged
        merging = 0
        while index.has_pending_merge():
            assert _answer(index, low, high) == _model_answer(model, low, high)
            merging += 1
            assert merging < 100, "the fold never finished"
        # the merge-pending shard went through the budgeted path ...
        assert index.budget.snapshot()["granted_seconds"] > granted
        assert "merge" in index.lifecycle.snapshot()
        # ... and after the fold the steady read is back: exact, no grant
        granted = index.budget.snapshot()["granted_seconds"]
        shard_queries = index.shard_status()["shards"][1]["queries_executed"]
        for _ in range(5):
            assert _answer(index, low, high) == _model_answer(model, low, high)
        assert index.budget.snapshot()["granted_seconds"] == granted
        assert index.shard_status()["shards"][1]["queries_executed"] == shard_queries + 5
        assert index.converged and not index.has_pending_merge()

    def test_batch_charges_the_pool_once_with_per_query_totals(self, uniform_data, rng):
        column = shard_column(Column(uniform_data, name="v"), 5)
        index = build_sharded_index(column, "PQ", budget=FixedDelta(0.25))
        lows = rng.integers(0, 45_000, 30)
        highs = lows + rng.integers(0, 8_000, 30)
        lows[7], highs[7] = 80_000, 80_500  # pruned everywhere: touches nothing
        touched = sum(
            ShardRouter(column).route(low, high).size for low, high in zip(lows, highs)
        )
        results = index.execute_batch(lows, highs)
        assert index.budget.snapshot() == {
            **index.budget.snapshot(),
            "queries": 30, "shards_charged": touched, "granted_seconds": 0.0,
        }
        assert index.queries_executed == 30
        assert index.router.describe()["shards_dispatched"] == touched
        assert index.router.describe()["shards_pruned"] == 30 * 5 - touched
        for low, high, result in zip(lows, highs, results):
            mask = (uniform_data >= low) & (uniform_data <= high)
            assert (int(result.value_sum), int(result.count)) == (
                int(uniform_data[mask].sum()), int(mask.sum())
            )


# ----------------------------------------------------------------------
# Session wiring
# ----------------------------------------------------------------------
class TestSessionSharding:
    def test_conflicting_unsharded_index_rejected(self, rng):
        table = Table({"a": rng.integers(0, 100, 1_000)})
        session = IndexingSession(table)
        session.create_index("a", method="PQ")
        with pytest.raises(ExperimentError):
            session.create_sharded_index("a", method="PQ")
        session2 = IndexingSession(Table({"a": rng.integers(0, 100, 1_000)}))
        session2.create_index("a", method="FS")
        with pytest.raises(ExperimentError):
            session2.create_sharded_index("a", method="PQ", shards=2)

    def test_shard_count_mismatch_rejected(self, rng):
        table = Table(
            {"a": rng.integers(0, 100, 1_000), "b": rng.integers(0, 100, 1_000)}
        )
        session = IndexingSession(table)
        session.create_sharded_index("a", method="PQ", shards=4)
        with pytest.raises(ExperimentError):
            session.create_sharded_index("b", method="PQ", shards=2)

    def test_decision_tree_picks_method(self, rng):
        session = IndexingSession(Table({"a": rng.integers(0, 1000, 2_000)}))
        index = session.create_sharded_index("a", shards=2)
        assert index.name in ("PQ", "PMSD", "PLSD", "PB")

    def test_status_includes_sharding_block(self, rng):
        import json

        session = IndexingSession(Table({"a": rng.integers(0, 1000, 2_000)}))
        session.create_sharded_index(
            "a", method="PQ", shards=3, interactivity_budget=0.005
        )
        session.between("a", 100, 200)
        session.insert(np.array([5, 6, 7]), "a")
        status = session.status()["a"]
        json.dumps(status)  # must stay JSON-serializable
        sharding = status["sharding"]
        assert sharding["layout"]["n_shards"] == 3
        assert sharding["pool"]["tau"] == pytest.approx(0.005)
        assert set(sharding["shards"]) == {"0", "1", "2"}
        assert status["writes"]["column_inserts"] == 3

    def test_where_composes_across_sharded_columns(self, rng):
        a = rng.integers(0, 10_000, 8_000)
        b = rng.integers(0, 10_000, 8_000)
        table = Table({"a": a, "b": b})
        session = IndexingSession(table)
        session.create_sharded_index("a", method="PQ", shards=4)
        for _ in range(3):
            result = session.where({"a": (1_000, 4_000), "b": (2_000, 9_000)})
            mask = (a >= 1_000) & (a <= 4_000) & (b >= 2_000) & (b <= 9_000)
            assert result.count == int(mask.sum())
            assert int(result.sum_of("a")) == int(a[mask].sum())
            assert int(result.sum_of("b")) == int(b[mask].sum())

    def test_drop_index_closes_executor(self, rng):
        session = IndexingSession(Table({"a": rng.integers(0, 1000, 2_000)}))
        index = session.create_sharded_index("a", method="PQ", shards=2)
        session.between("a", 0, 100)
        session.drop_index("a")
        assert index._closed

    def test_swap_budget_rejected(self, rng):
        index = build_sharded_index(np.arange(1_000), "PQ", shards=2)
        with pytest.raises(ExperimentError):
            index.swap_budget(None)

    def test_reader_view_over_sharded_column_is_a_typed_error(self, rng):
        """A reader view pins per-column snapshots; a ShardedColumn has none.
        That is refused when the view is created, naming the column — not an
        AttributeError out of the first read."""
        from repro.engine.shared import SharedEngine

        session = IndexingSession(Table({"a": rng.integers(0, 1000, 2_000)}))
        session.create_sharded_index("a", method="PQ", shards=2)
        with pytest.raises(InvalidColumnError, match="'a'.*ShardedColumn"):
            SharedEngine(session).reader()

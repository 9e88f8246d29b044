"""The unified observability layer: registry exactness, trace propagation,
live export, and the wiring contracts the rest of the engine relies on.

The metrics registry promises *exact* counters under free-running threads
(per-thread cells, no locks on the hot path), JSON-safe snapshots with no
numpy scalars, and monotone counter reads even while writers are mid-
increment.  The tracer promises that spans started on the shard executor's threads
nest under the routing span that fanned them out, in the same trace, and
that a budgeted query's per-phase spans reconcile with its wall time.
The serving layer promises a ``metrics`` verb whose successive snapshots
never run backwards under a concurrent reader/writer mix.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.policy import CostModelGreedy, FixedDelta
from repro.engine.session import IndexingSession
from repro.obs.registry import MetricsRegistry
from repro.serve.client import ServiceClient
from repro.serve.server import QueryServer
from repro.storage.column import Column
from repro.storage.membudget import MemoryBudget
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _reset_obs():
    """Every test starts from a fresh registry and a quiet tracer."""
    obs.configure(metrics=True, tracing=False)
    yield
    obs.configure(metrics=True, tracing=False)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_exact_under_eight_threads(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("t.events", help="thread hammer")
        per_thread, n_threads = 25_000, 8
        start = threading.Barrier(n_threads)

        def hammer():
            start.wait()
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == per_thread * n_threads

    def test_histogram_exact_under_threads(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("t.seconds")
        per_thread, n_threads = 10_000, 8

        def hammer():
            for _ in range(per_thread):
                hist.observe(1e-4)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sample = hist.to_sample()
        assert sample["count"] == per_thread * n_threads
        assert sample["sum"] == pytest.approx(per_thread * n_threads * 1e-4)

    def test_histogram_bucket_edges(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("t.edges", edges=(1.0, 2.0, 4.0))
        for value in (0.5, 2.0, 3.0, 8.0):
            hist.observe(value)
        sample = hist.to_sample()
        # bisect_right: 0.5 -> bucket 0 (<=1); an exact edge hit (2.0)
        # falls in the bucket it OPENS, alongside 3.0; 8.0 overflows.
        assert sample["edges"] == [1.0, 2.0, 4.0]
        assert sample["buckets"] == [1, 0, 2, 1]
        assert sample["count"] == 4
        assert sample["min"] == 0.5 and sample["max"] == 8.0

    def test_snapshot_is_json_safe_with_numpy_inputs(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("np.count").inc(np.int64(3))
        registry.gauge("np.level").set(np.float32(1.5))
        registry.histogram("np.seconds").observe(np.float64(2.5e-5))
        owner = Column(np.arange(10), name="x")
        registry.register_pull(
            "np.pulled", owner, lambda o: np.int64(7), kind="counter"
        )
        snapshot = registry.snapshot()
        text = json.dumps(snapshot)  # must not need a numpy-aware encoder
        for entry in json.loads(text)["series"]:
            for key in ("value", "count", "sum", "min", "max"):
                if key in entry and entry[key] is not None:
                    assert isinstance(entry[key], (int, float)), entry
        by_name = {e["name"]: e for e in snapshot["series"]}
        assert by_name["np.count"]["value"] == 3
        assert by_name["np.pulled"]["value"] == 7

    def test_pull_series_vanishes_with_owner(self):
        registry = MetricsRegistry(enabled=True)

        class Owner:
            pass

        owner = Owner()
        registry.register_pull("gone.soon", owner, lambda o: 1, kind="counter")
        assert any(e["name"] == "gone.soon" for e in registry.snapshot()["series"])
        del owner
        assert not any(
            e["name"] == "gone.soon" for e in registry.snapshot()["series"]
        )

    def test_counter_snapshots_monotone_under_writers(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("mono.events")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                counter.inc()

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            last = 0
            for _ in range(200):
                value = counter.value
                assert value >= last
                last = value
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_disabled_registry_hands_out_falsy_noops(self):
        registry = MetricsRegistry(enabled=False)
        hist = registry.histogram("off.seconds")
        assert not hist
        hist.observe(1.0)  # no-op, no error
        assert registry.snapshot()["enabled"] is False


# ----------------------------------------------------------------------
# Trace propagation
# ----------------------------------------------------------------------
def _phase_children(spans: list[dict], parent: dict) -> list[dict]:
    return [
        s
        for s in spans
        if s["parent_id"] == parent["span_id"]
        and (s["name"].startswith("phase.") or s["name"].startswith("overlay."))
    ]


class TestTracing:
    def test_where_spans_reconcile_under_cost_model(self):
        rng = np.random.default_rng(3)
        # Sized so that the budgeted work dwarfs the glue on the compiled
        # kernels too (200k rows are a 1 ms query there).  The planner's first
        # look at a column computes its min and max, which is neither: done
        # before the clock starts.
        data = rng.integers(0, 1_000_000, size=2_000_000).astype(np.int64)
        column = Column(data, name="ra")
        column.value_range()
        session = IndexingSession(column)
        session.create_index(
            "ra", method="PQ", budget=CostModelGreedy(interactivity_budget=0.01)
        )
        obs.configure(tracing=True)
        tracer = obs.tracer()
        tracer.clear()
        started = time.perf_counter()
        result = session.where({"ra": (100, 600_000)})
        wall = time.perf_counter() - started
        spans = tracer.drain()

        where_span = next(s for s in spans if s["name"] == "session.where")
        query_span = next(s for s in spans if s["name"] == "index.query")
        assert query_span["parent_id"] == where_span["span_id"]
        assert query_span["trace_id"] == where_span["trace_id"]

        # The per-phase spans must account for the query's wall time: the
        # budgeted work happens inside them, glue is microseconds.
        children = _phase_children(spans, query_span)
        assert children, "no phase spans under index.query"
        covered = sum(s["duration"] for s in children)
        assert covered == pytest.approx(query_span["duration"], rel=0.10)
        assert query_span["duration"] == pytest.approx(wall, rel=0.10)

        # The budget decision rode along, with its predicted CostBreakdown
        # (attached to the phase span that executed under that decision).
        decisions = [
            d
            for s in (query_span, *children)
            for d in s["attrs"].get("decisions", ())
        ]
        assert decisions, "no delta decision attached to the trace"
        breakdown = decisions[0]["breakdown"]
        assert set(breakdown) >= {"scan", "lookup", "indexing", "total"}
        assert decisions[0]["predicted_seconds"] > 0.0
        # Sanity: the traced query really answered something.
        mask = (data >= 100) & (data <= 600_000)
        assert result.count == int(mask.sum())

    def test_phase_spans_split_kernel_time_from_bookkeeping(self, kernel_backend):
        data = np.random.default_rng(9).integers(0, 1_000_000, size=200_000)
        session = IndexingSession(Column(data, name="ra"))
        session.create_index("ra", method="PMSD", fixed_delta=0.25)
        obs.configure(tracing=True)
        tracer = obs.tracer()
        tracer.clear()
        for low in (0, 300_000, 600_000):
            session.between("ra", low, low + 50_000)
        spans = tracer.drain()
        obs.configure(tracing=False)
        phases = [s for s in spans if s["name"] in ("phase.creation", "phase.refinement")]
        assert len(phases) == 3
        for span in phases:
            # Scans, scatters and partitions ran, and they are part of the span.
            assert 0.0 < span["attrs"]["kernel_us"] <= span["duration"] * 1e6
        assert session.status()["ra"]["kernels"]["backend"] == kernel_backend
        sample = obs.metrics().find("kernels.backend", backend=kernel_backend)
        assert sample is not None and sample["value"] == 1

    def test_shard_query_spans_nest_under_the_route_span(self):
        rng = np.random.default_rng(5)
        table = Table({"a": rng.integers(0, 100_000, 40_000)})
        session = IndexingSession(table)
        session.create_sharded_index(
            "a", method="PQ", shards=4, parallel=True, workers=2,
            budget=FixedDelta(0.25),
        )
        threads_before = set(threading.enumerate())
        obs.configure(tracing=True)
        tracer = obs.tracer()
        tracer.clear()
        result = session.between("a", 10_000, 90_000)
        spans = tracer.drain()
        obs.configure(tracing=False)

        # Four unconverged survivors: the shards were built on the pool.
        assert any(
            thread.name.startswith("shard")
            for thread in set(threading.enumerate()) - threads_before
        )
        session.drop_index("a")
        route = next(s for s in spans if s["name"] == "shard.route")
        shard_spans = [s for s in spans if s["name"] == "shard.query"]
        assert sorted(s["attrs"]["shard"] for s in shard_spans) == [0, 1, 2, 3]
        for shard_span in shard_spans:
            assert shard_span["parent_id"] == route["span_id"]
            assert shard_span["trace_id"] == route["trace_id"]
            # Kernel time lands on this shard's own subtree, not a sibling's.
            below = [s for s in spans if s["parent_id"] == shard_span["span_id"]]
            phases = [
                s for s in spans
                if s["parent_id"] in {child["span_id"] for child in below}
                and s["name"].startswith("phase.")
            ]
            kernel_us = sum(s["attrs"].get("kernel_us", 0.0) for s in phases)
            assert 0.0 < kernel_us <= shard_span["duration"] * 1e6
        assert {s["trace_id"] for s in spans} == {route["trace_id"]}
        data = np.asarray(table.column("a").data)
        mask = (data >= 10_000) & (data <= 90_000)
        assert result.count == int(mask.sum())


# ----------------------------------------------------------------------
# Live export and status wiring
# ----------------------------------------------------------------------
ROWS = 4_000
DOMAIN = 1_000_000


def _serve_session() -> IndexingSession:
    base = np.random.default_rng(11).integers(0, DOMAIN, size=ROWS, dtype=np.int64)
    session = IndexingSession(Column(base.copy(), name="ra"))
    session.create_index("ra", method="PQ", budget=FixedDelta(0.25))
    return session


class TestServeExport:
    def test_metrics_verb_matches_query_oracle(self, tmp_path):
        session = _serve_session()
        server = QueryServer(session=session, address=str(tmp_path / "svc.sock"))
        server.start()
        try:
            with ServiceClient(server.endpoint, role="reader") as reader:
                for n in range(20):
                    reader.between("ra", n * 1_000, n * 1_000 + 200_000)
                snapshot = reader.metrics()
                assert snapshot["enabled"] is True
                series = snapshot["series"]
                executed = session.index_for("ra").queries_executed
                pulled = [
                    e
                    for e in series
                    if e["name"] == "index.queries"
                    and e["labels"].get("column") == "ra"
                ]
                assert pulled and pulled[0]["value"] == executed
                assert any(e["name"] == "index.query.seconds" for e in series)
                assert any(e["name"] == "index.tau.ratio" for e in series)
                assert any(e["name"] == "scheduler.admitted" for e in series)
                json.dumps(snapshot)

                text = reader.metrics(format="prometheus")
                assert "# TYPE repro_index_queries_total counter" in text
                assert f'column="ra"' in text
                assert "repro_index_query_seconds_bucket" in text
        finally:
            server.stop()

    def test_trace_verb_returns_spans(self, tmp_path):
        session = _serve_session()
        server = QueryServer(session=session, address=str(tmp_path / "svc.sock"))
        server.start()
        obs.configure(tracing=True)
        try:
            with ServiceClient(server.endpoint, role="reader") as reader:
                reader.between("ra", 0, DOMAIN)
                reply = reader.trace(drain=True)
                assert reply["enabled"] is True
                assert any(s["name"] == "index.query" for s in reply["spans"])
        finally:
            obs.configure(tracing=False)
            server.stop()

    def test_status_carries_scheduler_fairness_and_buckets(self, tmp_path):
        session = _serve_session()
        server = QueryServer(session=session, address=str(tmp_path / "svc.sock"))
        server.start()
        try:
            with ServiceClient(server.endpoint, role="reader") as reader:
                reader.between("ra", 0, 250_000)
                status = reader.status()
                scheduler = status["scheduler"]
                assert "burst_queries" in scheduler
                assert "min_throttle" in scheduler and "total_weight" in scheduler
                interactive = scheduler["classes"]["interactive"]
                assert {"tau", "balance", "balance_cap"} <= set(interactive)
                fairness = scheduler["fairness"]
                entry = fairness.get("interactive:ra")
                assert entry is not None
                assert {"charged", "share", "fair_share", "throttle"} <= set(entry)
                assert 0.0 <= entry["share"] <= 1.0
        finally:
            server.stop()

    def test_metrics_snapshots_monotone_under_reader_writer_mix(self, tmp_path):
        session = _serve_session()
        server = QueryServer(session=session, address=str(tmp_path / "svc.sock"))
        server.start()
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader_loop():
            try:
                with ServiceClient(server.endpoint, role="reader") as client:
                    n = 0
                    while not stop.is_set():
                        client.between("ra", (n % 9) * 100_000, DOMAIN)
                        n += 1
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        def writer_loop():
            try:
                with ServiceClient(server.endpoint, role="writer") as client:
                    while not stop.is_set():
                        client.insert([1, 2, 3])
                        client.commit()
                        time.sleep(0.002)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=reader_loop),
            threading.Thread(target=reader_loop),
            threading.Thread(target=writer_loop),
        ]
        for t in threads:
            t.start()
        try:
            with ServiceClient(server.endpoint, role="reader") as admin:
                last: dict[tuple, float] = {}
                for _ in range(25):
                    snapshot = admin.metrics()
                    json.dumps(snapshot)
                    for entry in snapshot["series"]:
                        key = (
                            entry["name"],
                            tuple(sorted(entry["labels"].items())),
                        )
                        if entry["kind"] == "counter":
                            value = entry["value"]
                        elif entry["kind"] == "histogram":
                            value = entry["count"]
                        else:
                            continue  # gauges legitimately move both ways
                        assert value >= last.get(key, 0.0), key
                        last[key] = value
        finally:
            stop.set()
            for t in threads:
                t.join()
            server.stop()
        assert not errors, errors


# ----------------------------------------------------------------------
# Session/status wiring (satellite: cache + spill counters surfaced)
# ----------------------------------------------------------------------
class TestStatusWiring:
    def test_session_status_surfaces_memory_counters(self, tmp_path):
        from repro.persist.compress import write_compressed_column

        path = str(tmp_path / "v.col")
        data = np.random.default_rng(11).integers(0, 40_000, 6_000).astype(np.int64)
        write_compressed_column(path, data, block_rows=512)
        budget = MemoryBudget(1, spill_dir=str(tmp_path))
        session = IndexingSession(
            Table({"v": Column.from_file(path, name="v", memory_budget=budget)})
        )
        session.create_index("v", method="PQ", fixed_delta=0.5)
        for low in range(0, 30_000, 5_000):
            session.between("v", low, low + 2_000)
        report = session.status()
        memory = report["memory"]
        assert memory["total_bytes"] == budget.total_bytes
        cache = memory["block_cache"]
        assert cache["hits"] + cache["misses"] > 0
        json.dumps(report)

        # The same counters surface as registry pull series.
        series = obs.metrics().snapshot()["series"]
        assert any(e["name"] == "cache.block.hits" for e in series)
        assert any(e["name"] == "scratch.spill.count" for e in series)

    def test_database_stats_bundles_metrics(self, tmp_path):
        from repro.persist.database import Database

        data = np.random.default_rng(7).integers(0, 10_000, 2_000)
        db = Database.create(str(tmp_path / "db"), {"ra": data})
        try:
            db.create_index("ra", method="PQ", fixed_delta=0.5)
            for low in range(0, 8_000, 1_000):
                db.between("ra", low, low + 500)
            stats = db.stats()
            assert stats["rows"] == 2_000
            names = {e["name"] for e in stats["metrics"]["series"]}
            assert "index.queries" in names
            assert "wal.size.bytes" in names
            json.dumps(stats)
        finally:
            db.close(checkpoint=False)

"""Concurrent query service: throughput scaling and per-class latency.

Measures the serving layer end to end — real sockets, real threads, the
MVCC reader views, the single WAL-style writer and the progressive-work
scheduler — on a read-heavy mixed read/write stream at N ∈ {1, 4, 16}
clients.

**Client model (the honest part).**  Every reader is a *closed-loop client
with think time*: it issues one request, waits for the answer, then
"thinks" for a fixed ``--think`` seconds before the next request — the
standard interactive-analyst model.  The same model runs at every N, so
aggregate throughput growing with N measures the service's ability to
overlap clients (scheduler admission, lock-free converged reads, snapshot
isolation), not a change in workload shape.  An open-loop blast of
back-to-back requests would saturate a single CPU with protocol work at
N = 1 and show no scaling by construction; with think time the offered
load per client is fixed and the aggregate-vs-N curve is meaningful.

Each level runs against a fresh server: a converged-by-warmup progressive
index (PQ), 75% ``interactive``-class and 25% ``batch``-class readers
issuing range / point / batch reads with periodic re-pins, plus one writer
client committing small bursts throughout (the mixed read/write stream).

**Gates** (full run):

* 16-client aggregate read throughput ≥ ``--min-scaling`` (default 4×) the
  single-client throughput;
* per-class client-observed p99 latency ≤ 2 × the class's interactivity
  target τ (interactive 5 ms, batch 50 ms).

``--smoke`` shrinks the levels to N ∈ {1, 4}, shortens the measurement and
relaxes the scaling gate to 1.5× for CI.  A full run writes its results to
``BENCH_concurrent.json``; a smoke run writes a file only when ``--output``
names one.

Usage::

    PYTHONPATH=src python benchmarks/bench_concurrent_service.py
    PYTHONPATH=src python benchmarks/bench_concurrent_service.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from bench_common import run_metadata
from repro.core.policy import FixedDelta
from repro.engine.session import IndexingSession
from repro.serve.client import ServiceClient
from repro.serve.server import QueryServer
from repro.storage.column import Column

ROWS = 50_000
DOMAIN = 1_000_000

#: Wall-clock interactivity targets per connection class (seconds).  These
#: mirror the model-second τ of the default classes; the p99 gate is 2×.
CLASS_TAU = {"interactive": 0.005, "batch": 0.05}


def fresh_server(tmpdir: Path, level: int) -> QueryServer:
    data = np.random.default_rng(7).integers(0, DOMAIN, size=ROWS, dtype=np.int64)
    session = IndexingSession(Column(data, name="ra"))
    session.create_index("ra", method="PQ", budget=FixedDelta(0.25))
    server = QueryServer(
        session=session, address=str(tmpdir / f"bench-{level}.sock")
    )
    server.start()
    return server


def warmup(address, queries: int = 60) -> None:
    """Converge the index before measuring (steady-state service)."""
    with ServiceClient(address, role="reader", connection_class="admin") as client:
        rng = np.random.default_rng(1)
        for _ in range(queries):
            low = int(rng.integers(0, DOMAIN - 100_000))
            client.between("ra", low, low + 100_000)


def reader_client(address, cls, think, barrier, deadline_box, out, seed):
    rng = np.random.default_rng(seed)
    latencies = []
    try:
        client = ServiceClient(address, role="reader", connection_class=cls)
        barrier.wait()
        deadline = deadline_box["t"]
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            kind = int(rng.integers(0, 20))
            low = int(rng.integers(0, DOMAIN - 50_000))
            start = time.perf_counter()
            if kind == 0:
                client.refresh()
            elif kind <= 2:
                bounds = [
                    [int(rng.integers(0, DOMAIN - 10_000))] * 2 for _ in range(4)
                ]
                client.batch("ra", [[b[0], b[0] + 10_000] for b in bounds])
            elif kind <= 5:
                client.equals("ra", int(rng.integers(0, DOMAIN)))
            else:
                client.between("ra", low, low + 50_000)
            latencies.append(time.perf_counter() - start)
            time.sleep(think)
        client.close()
    except Exception as exc:  # pragma: no cover - surfaced in the summary
        out.append((cls, latencies, exc))
        return
    out.append((cls, latencies, None))


def writer_client(address, barrier, deadline_box, stop):
    rng = np.random.default_rng(99)
    client = ServiceClient(address, role="writer")
    barrier.wait()
    deadline = deadline_box["t"]
    commits = 0
    while time.perf_counter() < deadline and not stop.is_set():
        client.insert(rng.integers(0, DOMAIN, size=20).astype(np.int64).tolist())
        if rng.integers(0, 4) == 0:
            low = int(rng.integers(0, DOMAIN - 5_000))
            client.delete("ra", low, low + 5_000)
        client.commit()
        commits += 1
        time.sleep(0.05)
    client.close()
    return commits


def run_level(tmpdir: Path, n_clients: int, duration: float, think: float) -> dict:
    server = fresh_server(tmpdir, n_clients)
    try:
        warmup(server.endpoint)
        barrier = threading.Barrier(n_clients + 2)  # readers + writer + main
        out: list = []
        stop = threading.Event()
        # Clients connect first, then block on the barrier; the main thread
        # fixes the deadline immediately before joining the barrier, so
        # connection setup never eats into the measured window (every
        # client reads the deadline only after the barrier releases).
        deadline_box = {"t": 0.0}

        def reader_entry(i):
            cls = "batch" if i % 4 == 3 else "interactive"
            reader_client(
                server.endpoint, cls, think, barrier, deadline_box, out, 1_000 + i
            )

        def writer_entry():
            writer_client(server.endpoint, barrier, deadline_box, stop)

        threads = [
            threading.Thread(target=reader_entry, args=(i,)) for i in range(n_clients)
        ]
        threads.append(threading.Thread(target=writer_entry))
        for thread in threads:
            thread.start()
        deadline_box["t"] = time.perf_counter() + duration
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=duration + 120)
        elapsed = time.perf_counter() - start
        stop.set()

        failures = [exc for _, _, exc in out if exc is not None]
        if failures:
            raise RuntimeError(f"client failed: {failures[0]!r}")
        per_class = {}
        total_ops = 0
        for cls, latencies, _ in out:
            per_class.setdefault(cls, []).extend(latencies)
            total_ops += len(latencies)
        level = {
            "clients": n_clients,
            "duration_seconds": round(elapsed, 3),
            "think_seconds": think,
            "reader_ops": total_ops,
            "aggregate_qps": round(total_ops / elapsed, 1),
            "classes": {},
        }
        for cls, latencies in sorted(per_class.items()):
            arr = np.asarray(latencies)
            level["classes"][cls] = {
                "ops": int(arr.size),
                "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 3),
                "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 3),
                "tau_ms": CLASS_TAU[cls] * 1e3,
            }
        level["scheduler"] = server.engine.scheduler.stats()["classes"]
        return level
    finally:
        server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, relaxed CI run")
    parser.add_argument("--duration", type=float, default=None, help="seconds per level")
    parser.add_argument("--think", type=float, default=0.002, help="client think time")
    parser.add_argument(
        "--min-scaling",
        type=float,
        default=None,
        help="required aggregate-qps ratio of the largest level vs one client",
    )
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON output path (default: BENCH_concurrent.json "
                             "on a full run; a smoke run writes none)")
    args = parser.parse_args(argv)

    levels = [1, 4] if args.smoke else [1, 4, 16]
    duration = args.duration or (1.5 if args.smoke else 5.0)
    min_scaling = args.min_scaling or (1.5 if args.smoke else 4.0)

    import tempfile

    results = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        for n_clients in levels:
            level = run_level(Path(tmp), n_clients, duration, args.think)
            results.append(level)
            print(
                f"N={n_clients:>2}: {level['aggregate_qps']:>8.1f} q/s aggregate, "
                + ", ".join(
                    f"{cls} p99={stats['p99_ms']:.2f}ms"
                    for cls, stats in level["classes"].items()
                )
            )

    base_qps = results[0]["aggregate_qps"]
    top = results[-1]
    scaling = top["aggregate_qps"] / base_qps
    print(f"scaling N={top['clients']} vs N=1: {scaling:.2f}x (gate: >= {min_scaling}x)")

    failures = []
    if scaling < min_scaling:
        failures.append(
            f"aggregate throughput scaled only {scaling:.2f}x at "
            f"N={top['clients']} (required {min_scaling}x)"
        )
    if not args.smoke:
        for level in results:
            for cls, stats in level["classes"].items():
                bound = 2.0 * CLASS_TAU[cls] * 1e3
                if stats["p99_ms"] > bound:
                    failures.append(
                        f"N={level['clients']} class {cls!r}: p99 "
                        f"{stats['p99_ms']:.2f}ms > 2*tau ({bound:.1f}ms)"
                    )

    report = {
        "benchmark": "concurrent_service",
        "run": run_metadata(ROWS, workers=top["clients"]),
        "rows": ROWS,
        "client_model": (
            "closed-loop with fixed think time per reader (same model at every "
            "N); 75% interactive / 25% batch class mix; one writer committing "
            "bursts throughout"
        ),
        "smoke": bool(args.smoke),
        "min_scaling": min_scaling,
        "levels": results,
        "scaling": round(scaling, 2),
        "pass": not failures,
        "failures": failures,
    }
    output = args.output
    if output is None and not args.smoke:
        output = Path("BENCH_concurrent.json")
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Multi-core scaling: sharded progressive indexing over partitioned columns.

The sharded execution layer partitions a column into K range (or hash)
shards, builds one progressive index per shard, and routes predicates
through delta-aware min/max zone maps so untouched shards are pruned
outright.  This benchmark measures the three properties that layer claims:

* **scaling** — construction-to-convergence and post-convergence batch
  scans with the shards' construction work on threads vs. the serial
  loop.  The two speed-ups are recorded, not gated: Python bookkeeping
  holds the GIL between kernel calls, so on few cores they sit near 1x.
* **pruning** — a clustered narrow-band workload on a range layout must
  prune at least half the shards per query (deterministic, always gated)
  and beat the same predicates on a hash layout, where every shard spans
  the full domain and nothing can be pruned.
* **pooled latency** — under the pooled interactivity budget τ, one τ is
  split across the *touched* shards of each query (pruned shards donate
  their slice), so per-query latency must stay within a small factor of τ
  rather than K x τ.

Zero correctness deviation is a precondition for every timing number:
each arm's answers are checked against a brute-force NumPy oracle before
its clock readings count.  Results go to ``BENCH_scale.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from bench_common import run_metadata
from repro.core.calibration import calibrate, simulated_constants
from repro.core.policy import FixedDelta
from repro.core.query import Predicate
from repro.shard import build_sharded_index, shard_column
from repro.storage.column import Column
from repro.workloads.distributions import uniform_data

#: Safety cap on the convergence workload.
MAX_CONVERGENCE_QUERIES = 600


def _oracle(data: np.ndarray, low: float, high: float) -> tuple[float, int]:
    mask = (data >= low) & (data <= high)
    count = int(mask.sum())
    if data.dtype.kind in "iu":
        return int(data[mask].sum(dtype=np.int64)) if count else 0, count
    return float(data[mask].sum()) if count else 0.0, count


def _check(result, data: np.ndarray, low: float, high: float, context: str) -> None:
    want_sum, want_count = _oracle(data, low, high)
    if result.count != want_count:
        raise AssertionError(
            f"{context}: count deviates at [{low}, {high}]: "
            f"got {result.count}, want {want_count}"
        )
    if data.dtype.kind in "iu":
        exact = int(result.value_sum) == int(want_sum)
    else:
        exact = abs(result.value_sum - want_sum) <= 1e-9 * max(1.0, abs(want_sum))
    if not exact:
        raise AssertionError(
            f"{context}: sum deviates at [{low}, {high}]: "
            f"got {result.value_sum}, want {want_sum}"
        )


def _convergence_workload(rng, domain_low, domain_high, n_queries):
    width = 0.05 * (domain_high - domain_low)
    lows = rng.uniform(domain_low, domain_high - width, n_queries)
    return [(float(low), float(low + width)) for low in lows]


def run_convergence_arm(data, workload, *, shards, parallel, workers,
                        constants, verify_first=8) -> dict:
    """Time construction to convergence; returns wall clock + shard stats."""
    column = shard_column(Column(data, name="value"), shards)
    started = time.perf_counter()
    index = build_sharded_index(
        column, "PQ", parallel=parallel, workers=workers,
        budget=FixedDelta(0.25), constants=constants,
    )
    startup = time.perf_counter() - started
    try:
        queries = 0
        started = time.perf_counter()
        for low, high in workload:
            result = index.query(Predicate(low, high))
            if queries < verify_first:
                _check(result, data, low, high,
                       f"{'parallel' if parallel else 'serial'} construction")
            queries += 1
            if index.converged:
                break
        elapsed = time.perf_counter() - started
        if not index.converged:
            raise AssertionError(
                f"index failed to converge within {queries} queries"
            )
        return {
            "startup_seconds": startup,
            "elapsed_seconds": elapsed,
            "queries_to_convergence": queries,
            "index": index,
        }
    except BaseException:
        index.close()
        raise


def run_batch_arm(index, data, rng, domain, n_batch, verify_first=32) -> dict:
    """Time a post-convergence predicate batch through ``execute_batch``."""
    domain_low, domain_high = domain
    width = 0.05 * (domain_high - domain_low)
    lows = rng.uniform(domain_low, domain_high - width, n_batch)
    highs = lows + width
    started = time.perf_counter()
    results = index.execute_batch(lows, highs)
    elapsed = time.perf_counter() - started
    for i in range(min(verify_first, n_batch)):
        _check(results[i], data, lows[i], highs[i], "batch scan")
    return {
        "n_queries": int(n_batch),
        "elapsed_seconds": elapsed,
        "queries_per_second": n_batch / elapsed if elapsed > 0 else float("inf"),
    }


def run_pruning_arm(data, rng, *, shards, n_queries, constants) -> dict:
    """Clustered narrow-band predicates: range layout (prunable) vs. hash.

    Both arms replay the *same* predicates against the same data under the
    same per-shard budget policy, during the construction-heavy early
    queries where unpruned shards must still scan.  The hash layout's
    shards all span the full value domain, so its zone maps can prune
    nothing — it is the built-in "routing off" baseline.
    """
    domain_low, domain_high = float(data.min()), float(data.max())
    span = domain_high - domain_low
    center = domain_low + 0.3 * span
    width = 0.02 * span
    lows = rng.uniform(center - width, center + width, n_queries)
    predicates = [(float(low), float(low + width)) for low in lows]

    timings = {}
    pruned_fraction = {}
    for kind in ("range", "hash"):
        column = shard_column(Column(data, name="value"), shards, kind=kind)
        index = build_sharded_index(
            column, "PQ", budget=FixedDelta(0.25), constants=constants,
        )
        try:
            started = time.perf_counter()
            for low, high in predicates:
                _check(index.query(Predicate(low, high)), data, low, high,
                       f"pruning arm ({kind} layout)")
            timings[kind] = time.perf_counter() - started
            pruned_fraction[kind] = index.router.pruned_fraction()
        finally:
            index.close()
    return {
        "n_queries": int(n_queries),
        "clustered_band": [float(center - width), float(center + 2 * width)],
        "range_seconds": timings["range"],
        "hash_seconds": timings["hash"],
        "pruned_fraction_range": pruned_fraction["range"],
        "pruned_fraction_hash": pruned_fraction["hash"],
        "pruning_speedup": (
            timings["hash"] / timings["range"] if timings["range"] > 0
            else float("inf")
        ),
    }


def run_latency_arm(data, rng, *, shards, n_queries, constants) -> dict:
    """Per-query latency under the pooled interactivity budget τ."""
    domain_low, domain_high = float(data.min()), float(data.max())
    # tau = (1 + 0.2) * t_scan, with t_scan measured on this machine.
    started = time.perf_counter()
    reps = 3
    for _ in range(reps):
        mask = (data >= domain_low) & (data <= domain_high)
        mask.sum()
    t_scan = (time.perf_counter() - started) / reps
    tau = 1.2 * t_scan

    column = shard_column(Column(data, name="value"), shards)
    index = build_sharded_index(
        column, "PQ", interactivity_budget=tau, constants=constants,
    )
    try:
        width = 0.05 * (domain_high - domain_low)
        latencies = np.empty(n_queries)
        for i in range(n_queries):
            low = float(rng.uniform(domain_low, domain_high - width))
            t0 = time.perf_counter()
            result = index.query(Predicate(low, low + width))
            latencies[i] = time.perf_counter() - t0
            if i < 8:
                _check(result, data, low, low + width, "latency arm")
        return {
            "n_queries": int(n_queries),
            "tau_seconds": tau,
            "scan_seconds": t_scan,
            "latency_p50": float(np.percentile(latencies, 50)),
            "latency_p99": float(np.percentile(latencies, 99)),
            "latency_max": float(latencies.max()),
            "pool": index.budget.snapshot(),
        }
    finally:
        index.close()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=10_000_000,
                        help="column size (default: 10_000_000)")
    parser.add_argument("--shards", type=int, default=8,
                        help="partition count K (default: 8)")
    parser.add_argument("--workers", type=int, default=None,
                        help="threads of the parallel arm "
                             "(default: cpu count, clamped to K)")
    parser.add_argument("--n-batch", type=int, default=2_000,
                        help="predicates in the post-convergence batch "
                             "(default: 2000)")
    parser.add_argument("--n-latency", type=int, default=300,
                        help="queries of the pooled-tau latency arm "
                             "(default: 300)")
    parser.add_argument("--min-pruned", type=float, default=0.5,
                        help="required pruned-shard fraction on the "
                             "clustered workload (default: 0.5)")
    parser.add_argument("--min-pruning-speedup", type=float, default=1.2,
                        help="required range/hash layout speedup on the "
                             "clustered workload, full runs only "
                             "(default: 1.2)")
    parser.add_argument("--latency-factor", type=float, default=2.0,
                        help="allowed p99-latency / tau ratio, full runs "
                             "only (default: 2.0)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: 2M rows, 4 shards, reduced "
                             "workloads, no wall-clock gates, no JSON output")
    parser.add_argument("--simulated-constants", action="store_true",
                        help="skip cost-model calibration")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON output path (default: BENCH_scale.json "
                             "next to the repository root; omitted in "
                             "--smoke runs unless given explicitly)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows = min(args.rows, 2_000_000)
        args.shards = min(args.shards, 4)
        args.n_batch = min(args.n_batch, 500)
        args.n_latency = min(args.n_latency, 100)
        if args.workers is None:
            args.workers = 2
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu_count = os.cpu_count() or 1
    workers = args.workers
    if workers is None:
        workers = cpu_count
    workers = max(1, min(workers, args.shards))

    rng = np.random.default_rng(args.seed)
    data = uniform_data(args.rows, rng=rng)
    domain = float(data.min()), float(data.max())
    constants = simulated_constants() if args.simulated_constants else calibrate()

    print(f"scale: {args.rows} rows, {args.shards} shards, {workers} threads, "
          f"{cpu_count} cores")

    workload = _convergence_workload(
        np.random.default_rng(args.seed + 1), *domain, MAX_CONVERGENCE_QUERIES
    )

    arms = {}
    failures = []
    construction_speedup = batch_speedup = None
    pruning = latency = None
    try:
        for label, parallel in (("serial", False), ("parallel", True)):
            arm = run_convergence_arm(
                data, workload, shards=args.shards, parallel=parallel,
                workers=workers if parallel else None, constants=constants,
            )
            index = arm.pop("index")
            try:
                arm["batch"] = run_batch_arm(
                    index, data, np.random.default_rng(args.seed + 2),
                    domain, args.n_batch,
                )
            finally:
                index.close()
            arms[label] = arm
            print(f"  {label:>8}: converged in {arm['queries_to_convergence']} "
                  f"queries / {arm['elapsed_seconds']:.3f}s "
                  f"(startup {arm['startup_seconds']:.3f}s), batch "
                  f"{arm['batch']['queries_per_second']:.0f} q/s")

        construction_speedup = (
            arms["serial"]["elapsed_seconds"] / arms["parallel"]["elapsed_seconds"]
            if arms["parallel"]["elapsed_seconds"] > 0 else float("inf")
        )
        batch_speedup = (
            arms["parallel"]["batch"]["queries_per_second"]
            / arms["serial"]["batch"]["queries_per_second"]
        )
        print(f"  speedup: construction {construction_speedup:.2f}x, "
              f"batch scan {batch_speedup:.2f}x")

        pruning = run_pruning_arm(
            data, np.random.default_rng(args.seed + 3),
            shards=args.shards, n_queries=24, constants=constants,
        )
        print(f"  pruning: {pruning['pruned_fraction_range']:.0%} of shards "
              f"pruned on range layout ({pruning['pruned_fraction_hash']:.0%} "
              f"on hash), {pruning['pruning_speedup']:.2f}x faster than the "
              f"unprunable hash layout")
        if pruning["pruned_fraction_range"] < args.min_pruned:
            failures.append(
                f"clustered workload pruned only "
                f"{pruning['pruned_fraction_range']:.0%} of shards "
                f"(required: {args.min_pruned:.0%})"
            )
        if not args.smoke and pruning["pruning_speedup"] < args.min_pruning_speedup:
            failures.append(
                f"range layout only {pruning['pruning_speedup']:.2f}x the "
                f"hash layout on clustered predicates "
                f"(required: {args.min_pruning_speedup}x)"
            )

        latency = run_latency_arm(
            data, np.random.default_rng(args.seed + 4),
            shards=args.shards, n_queries=args.n_latency, constants=constants,
        )
        tau = latency["tau_seconds"]
        print(f"  pooled tau = {tau * 1e3:.3f} ms: p50 "
              f"{latency['latency_p50'] * 1e3:.3f} ms, p99 "
              f"{latency['latency_p99'] * 1e3:.3f} ms")
        if not args.smoke and latency["latency_p99"] > args.latency_factor * tau:
            failures.append(
                f"p99 latency {latency['latency_p99'] * 1e3:.3f} ms exceeds "
                f"{args.latency_factor} x the pooled interactivity budget "
                f"tau = {tau * 1e3:.3f} ms"
            )
    except AssertionError as error:
        failures.append(str(error))
        print(f"  FAILED: {error}")

    payload = {
        "benchmark": "scale",
        "run": run_metadata(args.rows, workers=workers, shards=args.shards),
        "calibrated": not args.simulated_constants,
        "arms": arms,
        "pass": not failures,
        "failures": failures,
    }
    payload["construction_speedup"] = construction_speedup
    payload["batch_speedup"] = batch_speedup
    payload["pruning"] = pruning
    payload["latency"] = latency

    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {output}")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nPASS: answers exact across all arms; shard pruning "
          f">= {args.min_pruned:.0%} on clustered predicates")
    return 0


if __name__ == "__main__":
    sys.exit(main())

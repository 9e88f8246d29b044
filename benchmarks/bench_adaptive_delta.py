"""Adaptive-delta benchmark: cost-model-greedy policy vs. a fixed delta.

Section 3 of the paper argues that the per-algorithm cost models enable
*adaptive* progressive indexing: instead of indexing a fixed fraction delta
of the column per query, solve the cost model for the delta that lands every
query on an interactivity threshold τ.  This benchmark measures exactly that
trade-off on a uniform workload:

* **fixed** — the fixed delta of the paper's Figure 8 validation
  (``delta = 0.25`` by default, the repository's ``FIXED_DELTA``): every
  query performs a quarter of the remaining phase work regardless of what
  the query itself costs, so the per-query time swings with the phase and
  the predicate.
* **greedy** — :class:`~repro.core.policy.CostModelGreedy` with
  ``τ = (1 + f) * t_scan``: every query performs however much indexing
  keeps its *predicted total* at τ, with the wall clock feeding the
  symmetric measured/predicted correction — back off when predictions
  miss low, reclaim unused slack when they miss high — so the measured
  per-query time tracks τ from both sides until convergence (the paper's
  Figure 9 shape).

Reported per algorithm: the **pre-convergence per-query time variance**
(the paper's Figure 9 claim is that every query lands on τ *until the index
converges*; a fixed window would perversely punish the policy that
converges earlier, because the cheap post-convergence queries form a step),
the paper's first-100-queries robustness for reference, the convergence
query, and the cumulative time to convergence.  The benchmark asserts the
tentpole property — greedy pre-convergence variance below fixed with total
convergence time within ``--max-slowdown`` (default 1.2x) — and writes
everything to ``BENCH_adaptive.json``.

The cost model is calibrated on the machine first (``calibrate()``) so the
model-space τ tracks wall-clock reality.

Usage::

    PYTHONPATH=src python benchmarks/bench_adaptive_delta.py
    PYTHONPATH=src python benchmarks/bench_adaptive_delta.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from bench_common import run_metadata
from repro.core.calibration import calibrate, simulated_constants
from repro.core.policy import CostModelGreedy, FixedDelta
from repro.engine.metrics import robustness
from repro.engine.registry import PROGRESSIVE_ALGORITHMS, create_index
from repro.storage.column import Column
from repro.workloads.distributions import uniform_data
from repro.workloads.patterns import generate_pattern

DEFAULT_ALGORITHMS = list(PROGRESSIVE_ALGORITHMS)

#: Safety cap on the per-run query loop.
MAX_QUERIES = 2_000


def run_policy(name: str, data: np.ndarray, policy, workload, constants, window: int) -> dict:
    """Drive one index through ``workload`` and summarise the timings."""
    index = create_index(name, Column(data, name="value"), budget=policy, constants=constants)
    times = []
    convergence_query = None
    for query_number, predicate in enumerate(workload, start=1):
        started = time.perf_counter()
        index.query(predicate)
        times.append(time.perf_counter() - started)
        if convergence_query is None and index.converged:
            convergence_query = query_number
        if query_number >= MAX_QUERIES:
            break
    times = np.asarray(times)
    convergence_seconds = (
        float(times[:convergence_query].sum()) if convergence_query else None
    )
    pre_convergence = times[:convergence_query] if convergence_query else times
    return {
        "variance": float(np.var(pre_convergence)),
        "robustness_window_variance": robustness(times, window=window),
        "convergence_query": convergence_query,
        "convergence_seconds": convergence_seconds,
        "cumulative_seconds": float(times.sum()),
        "first_query_seconds": float(times[0]),
        "queries": int(times.size),
    }


def compare_algorithm(
    name: str,
    data: np.ndarray,
    workload,
    constants,
    scan_fraction: float,
    fixed_delta: float,
    window: int,
    repeats: int = 3,
) -> dict:
    """Fixed-delta vs greedy comparison for one algorithm.

    Each arm runs ``repeats`` times; every reported metric is the best
    (minimum) observed across the repeats, the usual noise suppression for
    wall-clock measurements — a single scheduler hiccup or page-fault storm
    otherwise dominates the variance estimate of a short run.
    """
    def best_of(runs: list) -> dict:
        best = dict(min(runs, key=lambda r: r["variance"]))
        converged = [r["convergence_seconds"] for r in runs if r["convergence_seconds"]]
        if converged:
            best["convergence_seconds"] = min(converged)
        return best

    fixed_runs = []
    for _ in range(repeats):
        run = run_policy(name, data, FixedDelta(fixed_delta), workload, constants, window)
        run["delta"] = fixed_delta
        fixed_runs.append(run)
    fixed = best_of(fixed_runs)

    greedy_runs = []
    for _ in range(repeats):
        # The wall clock feeds the symmetric measured/predicted correction,
        # so the greedy policy cancels residual calibration error per phase
        # in both directions (back off on overshoot, reclaim on undershoot).
        # The gentle EMA targets the static calibration residual rather
        # than chasing per-query jitter (delta oscillation is itself
        # variance).
        greedy_policy = CostModelGreedy(
            scan_fraction=scan_fraction,
            correction_range=(0.25, 4.0),
            smoothing=0.2,
            clock=time.perf_counter,
        )
        run = run_policy(name, data, greedy_policy, workload, constants, window)
        run["tau_seconds"] = greedy_policy.interactivity_budget
        greedy_runs.append(run)
    greedy = best_of(greedy_runs)

    variance_ratio = (
        greedy["variance"] / fixed["variance"] if fixed["variance"] > 0 else None
    )
    convergence_ratio = None
    if fixed["convergence_seconds"] and greedy["convergence_seconds"]:
        convergence_ratio = greedy["convergence_seconds"] / fixed["convergence_seconds"]
    return {
        "fixed": fixed,
        "greedy": greedy,
        "variance_ratio": variance_ratio,
        "convergence_ratio": convergence_ratio,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-elements", type=int, default=1_000_000,
                        help="column size (default: 1_000_000)")
    parser.add_argument("--n-queries", type=int, default=500,
                        help="workload length (default: 500)")
    parser.add_argument("--algorithms", nargs="+", default=DEFAULT_ALGORITHMS,
                        help=f"algorithms to benchmark (default: {DEFAULT_ALGORITHMS})")
    parser.add_argument("--scan-fraction", type=float, default=0.2,
                        help="greedy interactivity budget as a fraction of the "
                             "scan cost; tau = (1 + fraction) * t_scan "
                             "(default: 0.2)")
    parser.add_argument("--fixed-delta", type=float, default=0.25,
                        help="delta of the fixed arm (default: 0.25, the "
                             "Figure 8 validation delta)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--window", type=int, default=100,
                        help="robustness window (default: 100 queries)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per (algorithm, policy) arm; the "
                             "lowest-variance run is kept (default: 5)")
    parser.add_argument("--max-slowdown", type=float, default=1.2,
                        help="maximum allowed greedy/fixed time-to-convergence "
                             "ratio (default: 1.2)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke mode: same workload (the full run only "
                             "takes seconds), but gates on crash + variance "
                             "only and does not write BENCH_adaptive.json")
    parser.add_argument("--simulated-constants", action="store_true",
                        help="skip calibration and use the deterministic "
                             "simulated constants (the wall-clock gates are "
                             "only meaningful with calibration)")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON output path (default: BENCH_adaptive.json "
                             "next to the repository root; omitted in --smoke "
                             "runs unless given explicitly)")
    args = parser.parse_args(argv)
    # Smoke runs keep the full column size: smaller columns sit in cache,
    # where the working-set-scale calibration stops being representative
    # and the variance gate turns flappy.
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    rng = np.random.default_rng(args.seed)
    data = uniform_data(args.n_elements, rng=rng)
    workload = generate_pattern(
        "Random", int(data.min()), int(data.max()), args.n_queries, rng=rng
    )
    # Calibrated constants make the model-space tau track wall-clock time
    # (calibration measures the engine's own primitives and costs well under
    # a second, so smoke runs calibrate too).
    constants = simulated_constants() if args.simulated_constants else calibrate()

    print(f"adaptive delta: {args.n_elements} uniform elements, "
          f"{args.n_queries} random range queries, "
          f"scan_fraction={args.scan_fraction}")
    header = (f"{'algo':>6} {'policy':>7} {'pre-conv var':>14} {'conv q':>7} "
              f"{'conv (s)':>9} {'total (s)':>10}")
    print(header)
    print("-" * len(header))

    results = {}
    failures = []
    for name in args.algorithms:
        comparison = compare_algorithm(
            name, data, workload, constants, args.scan_fraction,
            args.fixed_delta, args.window, repeats=args.repeats,
        )
        results[name] = comparison
        for mode in ("fixed", "greedy"):
            run = comparison[mode]
            print(f"{name:>6} {mode:>7} {run['variance']:>14.3e} "
                  f"{str(run['convergence_query']):>7} "
                  f"{run['convergence_seconds'] or float('nan'):>9.4f} "
                  f"{run['cumulative_seconds']:>10.4f}")
        ratio = comparison["variance_ratio"]
        conv_ratio = comparison["convergence_ratio"]
        print(f"{name:>6} {'ratio':>7} variance {ratio if ratio is not None else 'n/a':>10} "
              f" convergence {conv_ratio if conv_ratio is not None else 'n/a'}")
        if ratio is not None and ratio > 1.0:
            failures.append(f"{name}: greedy variance {ratio:.2f}x the fixed variance")
        # The CI smoke gate is crash + variance; the convergence-time ratio
        # sits close enough to the limit that scheduler noise on shared CI
        # runners would make it flappy, so only full runs enforce it.
        if not args.smoke and conv_ratio is not None and conv_ratio > args.max_slowdown:
            failures.append(
                f"{name}: greedy convergence {conv_ratio:.2f}x slower than fixed "
                f"(limit {args.max_slowdown}x)"
            )
        if comparison["greedy"]["convergence_query"] is None:
            failures.append(f"{name}: greedy run did not converge")

    payload = {
        "benchmark": "adaptive_delta",
        "run": run_metadata(args.n_elements),
        "n_elements": args.n_elements,
        "n_queries": args.n_queries,
        "scan_fraction": args.scan_fraction,
        "fixed_delta": args.fixed_delta,
        "robustness_window": args.window,
        "max_slowdown": args.max_slowdown,
        "calibrated": not args.simulated_constants,
        "results": results,
        "pass": not failures,
        "failures": failures,
    }
    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {output}")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    # The PASS line states the checks this run made, no more: the smoke run
    # does not check the convergence-time ratio.
    checked = "every greedy run converged" + ("" if args.smoke else f" within {args.max_slowdown}x of fixed")
    print(f"\nPASS: greedy variance at most fixed variance, {checked}, for all algorithms")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare every indexing algorithm of the paper on one synthetic workload.

Runs the baselines (FS, FI), the cracking family (STD, STC, PSTC, CGI, AA)
and the four progressive indexes (PQ, PMSD, PLSD, PB) on a sequential range
workload over skewed data — the combination where the differences between the
families are the most visible — and prints a Table-2-style summary.

Run with::

    python examples/algorithm_comparison.py [pattern]

where ``pattern`` is one of the Figure 6 workload names (default: SeqOver).
"""

from __future__ import annotations

import sys

import numpy as np

from repro import Column, TimeAdaptive
from repro.core.calibration import calibrate
from repro.engine import ALGORITHMS, PROGRESSIVE_ALGORITHMS, WorkloadExecutor
from repro.experiments.reporting import format_count, format_seconds, render_table
from repro.workloads import generate_pattern, skewed_data


def main() -> None:
    pattern = sys.argv[1] if len(sys.argv) > 1 else "SeqOver"
    rng = np.random.default_rng(11)
    n_elements = 500_000
    n_queries = 200

    print(f"Data: {n_elements:,} skewed integers; workload: {pattern}, {n_queries} queries")
    data = skewed_data(n_elements, rng=rng)
    workload = generate_pattern(
        pattern, int(data.min()), int(data.max()), n_queries, selectivity=0.1, rng=rng
    )
    constants = calibrate()
    executor = WorkloadExecutor()

    rows = []
    for name in ("FS", "FI", "STD", "STC", "PSTC", "CGI", "AA", "PQ", "PMSD", "PLSD", "PB"):
        column = Column(data, name="value")
        if name in PROGRESSIVE_ALGORITHMS:
            index = ALGORITHMS[name](
                column, budget=TimeAdaptive(scan_fraction=0.2), constants=constants
            )
        else:
            index = ALGORITHMS[name](column, constants=constants)
        execution = executor.run(index, workload)
        metrics = execution.metrics()
        rows.append(
            [
                name,
                format_seconds(metrics.first_query_seconds),
                format_count(metrics.convergence_query),
                format_seconds(metrics.robustness_variance),
                format_seconds(metrics.cumulative_seconds),
                format_count(metrics.payoff_query),
            ]
        )
        print(f"  finished {name}")

    print()
    print(
        render_table(
            ["Index", "First Q (s)", "Convergence", "Robustness", "Cumulative (s)", "Pay-off"],
            rows,
            title=f"Algorithm comparison on the {pattern} workload",
        )
    )


if __name__ == "__main__":
    main()

"""Explore the indexing-budget trade-off (the Figure 7 experiment in miniature).

Sweeps the fixed delta parameter for Progressive Quicksort and Progressive
Radixsort (MSD), then contrasts the best fixed setting with the adaptive
budget that the paper recommends for interactive sessions.

Run with::

    python examples/budget_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro import Column, FixedDelta, ProgressiveQuicksort, ProgressiveRadixsortMSD, TimeAdaptive
from repro.core.calibration import calibrate
from repro.engine import WorkloadExecutor
from repro.experiments.reporting import format_count, format_seconds, render_table
from repro.workloads import skyserver_data, skyserver_workload


def main() -> None:
    rng = np.random.default_rng(3)
    n_elements = 500_000
    n_queries = 250
    deltas = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)

    data = skyserver_data(n_elements, rng=rng)
    workload = skyserver_workload(n_queries, rng=rng)
    constants = calibrate()
    executor = WorkloadExecutor()

    rows = []
    for algorithm_name, algorithm in (
        ("PQ", ProgressiveQuicksort),
        ("PMSD", ProgressiveRadixsortMSD),
    ):
        for delta in deltas:
            index = algorithm(Column(data, name="ra"), budget=FixedDelta(delta), constants=constants)
            metrics = executor.run(index, workload).metrics()
            rows.append(
                [
                    algorithm_name,
                    f"fixed delta={delta:g}",
                    format_seconds(metrics.first_query_seconds),
                    format_count(metrics.convergence_query),
                    format_seconds(metrics.cumulative_seconds),
                ]
            )
        index = algorithm(
            Column(data, name="ra"),
            budget=TimeAdaptive(scan_fraction=0.2),
            constants=constants,
        )
        metrics = executor.run(index, workload).metrics()
        rows.append(
            [
                algorithm_name,
                "adaptive (20% of scan)",
                format_seconds(metrics.first_query_seconds),
                format_count(metrics.convergence_query),
                format_seconds(metrics.cumulative_seconds),
            ]
        )

    print(
        render_table(
            ["Index", "Budget", "First Q (s)", "Convergence", "Cumulative (s)"],
            rows,
            title="Impact of the indexing budget (SkyServer-like workload)",
        )
    )
    print(
        "\nLarger deltas make the first queries slower but converge sooner; the "
        "adaptive budget keeps every query at ~1.2x the scan cost until the index "
        "is built."
    )


if __name__ == "__main__":
    main()

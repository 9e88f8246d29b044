"""Interactive data exploration on a SkyServer-like data set.

This is the scenario that motivates the paper: a data scientist loads a large
opaque data set and immediately starts exploring it with range queries whose
focus drifts over time.  The example compares three strategies side by side:

* never indexing (full scans),
* building a full index upfront on the first query,
* Progressive Quicksort with an adaptive budget of 20% of the scan cost.

It prints the first-query penalty, the per-query behaviour around the phase
transitions, and the cumulative time of the whole exploration session.

Run with::

    python examples/interactive_exploration.py
"""

from __future__ import annotations

import numpy as np

from repro import Column, FullIndex, FullScan, ProgressiveQuicksort, TimeAdaptive
from repro.core.calibration import calibrate
from repro.engine import WorkloadExecutor
from repro.workloads import skyserver_data, skyserver_workload


def main() -> None:
    rng = np.random.default_rng(7)
    n_elements = 1_000_000
    n_queries = 300

    print("Synthesising a SkyServer-like right-ascension column and query log...")
    data = skyserver_data(n_elements, rng=rng)
    workload = skyserver_workload(n_queries, rng=rng)
    constants = calibrate()
    executor = WorkloadExecutor()

    strategies = {
        "full scan (no index)": lambda column: FullScan(column, constants=constants),
        "full index upfront": lambda column: FullIndex(column, constants=constants),
        "progressive quicksort": lambda column: ProgressiveQuicksort(
            column, budget=TimeAdaptive(scan_fraction=0.2), constants=constants
        ),
    }

    results = {}
    for label, factory in strategies.items():
        index = factory(Column(data, name="ra"))
        execution = executor.run(index, workload)
        results[label] = execution
        metrics = execution.metrics()
        print(f"\n=== {label} ===")
        print(f"  first query      : {metrics.first_query_seconds * 1000:8.2f} ms "
              f"({metrics.first_query_seconds / execution.scan_seconds:5.1f}x the scan cost)")
        print(f"  cumulative time  : {metrics.cumulative_seconds:8.3f} s")
        print(f"  robustness (var) : {metrics.robustness_variance:.3e}")
        convergence = metrics.convergence_query or "never"
        print(f"  converged at     : query {convergence}")

    progressive = results["progressive quicksort"]
    print("\nPhase transitions of the progressive index:")
    for query_number, phase in progressive.phase_transitions():
        print(f"  query {query_number:>4}: {phase.value}")

    scans = results["full scan (no index)"].metrics().cumulative_seconds
    progressive_total = progressive.metrics().cumulative_seconds
    print(
        f"\nThe exploration session ran {scans / progressive_total:.1f}x faster with "
        "progressive indexing than with full scans, without the upfront stall of a "
        "full index."
    )


if __name__ == "__main__":
    main()

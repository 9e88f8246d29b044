"""Figure 7: impact of the delta parameter.

The experiment runs the SkyServer-like workload with a *fixed* delta for each
progressive indexing algorithm and a grid of delta values, and reports the
four panels of Figure 7:

* (a) time of the first query,
* (b) number of queries until pay-off,
* (c) number of queries until convergence,
* (d) cumulative time of the workload.

The paper's qualitative findings that the harness verifies:

* the first query gets more expensive as delta grows, with Bucketsort
  impacted the most and Quicksort the least;
* pay-off and convergence counts drop steeply with delta and then flatten;
* the cumulative time decreases with delta and saturates well before
  ``delta = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.policy import FixedDelta
from repro.engine.executor import WorkloadExecutor
from repro.engine.registry import PROGRESSIVE_ALGORITHMS
from repro.experiments.config import ExperimentConfig
from repro.storage.column import Column
from repro.workloads.skyserver import skyserver_data, skyserver_workload

#: The delta grid of Figure 7 (the paper sweeps [0.005, 1]).
DEFAULT_DELTAS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)


@dataclass
class DeltaImpactRow:
    """One (algorithm, delta) measurement of the sweep."""

    algorithm: str
    delta: float
    first_query_seconds: float
    payoff_query: int | None
    convergence_query: int | None
    cumulative_seconds: float


@dataclass
class DeltaImpactResult:
    """All measurements of the delta sweep, grouped per algorithm."""

    rows: List[DeltaImpactRow] = field(default_factory=list)

    def for_algorithm(self, algorithm: str) -> List[DeltaImpactRow]:
        """Rows of one algorithm, ordered by delta."""
        return sorted(
            (row for row in self.rows if row.algorithm == algorithm),
            key=lambda row: row.delta,
        )

    def algorithms(self) -> List[str]:
        """Algorithms present in the result."""
        return sorted({row.algorithm for row in self.rows})

    def series(self, metric: str) -> Dict[str, List[tuple]]:
        """``{algorithm: [(delta, value), ...]}`` for one metric column."""
        output: Dict[str, List[tuple]] = {}
        for algorithm in self.algorithms():
            output[algorithm] = [
                (row.delta, getattr(row, metric)) for row in self.for_algorithm(algorithm)
            ]
        return output


def run_delta_impact(
    config: ExperimentConfig | None = None,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    algorithms: Sequence[str] | None = None,
) -> DeltaImpactResult:
    """Run the Figure 7 delta sweep.

    Parameters
    ----------
    config:
        Experiment configuration (scaled-down defaults when omitted).
    deltas:
        Delta grid to sweep.
    algorithms:
        Subset of progressive algorithms to run (all four by default).
    """
    config = config or ExperimentConfig()
    algorithms = list(algorithms or PROGRESSIVE_ALGORITHMS)
    rng = config.rng(salt=7)
    data = skyserver_data(config.n_elements, rng=rng)
    workload = skyserver_workload(config.n_queries, rng=rng)
    constants = config.constants()
    executor = WorkloadExecutor()

    result = DeltaImpactResult()
    for algorithm in algorithms:
        index_class = PROGRESSIVE_ALGORITHMS[algorithm]
        for delta in deltas:
            column = Column(data, name="ra")
            index = index_class(column, budget=FixedDelta(delta), constants=constants)
            execution = executor.run(index, workload)
            metrics = execution.metrics()
            result.rows.append(
                DeltaImpactRow(
                    algorithm=algorithm,
                    delta=float(delta),
                    first_query_seconds=metrics.first_query_seconds,
                    payoff_query=metrics.payoff_query,
                    convergence_query=metrics.convergence_query,
                    cumulative_seconds=metrics.cumulative_seconds,
                )
            )
    return result

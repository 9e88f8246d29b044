"""Table 2 and Figure 10: SkyServer workload comparison.

Table 2 runs the full SkyServer-like workload against every algorithm of the
evaluation — the baselines (FS, FI), the adaptive-indexing comparators (STD,
STC, PSTC, CGI, AA) and the four progressive indexes (PQ, PMSD, PLSD, PB) —
and reports first-query cost, convergence query, robustness and cumulative
time.  Figure 10 plots the per-query time series of Progressive Quicksort
against the best cracking comparators (AA for cumulative time, PSTC for
first-query cost / robustness).

The qualitative expectations from the paper:

* every progressive index has a first-query cost of about ``1.2 x`` the scan
  cost, one order of magnitude below the cracking comparators;
* the progressive indexes converge; the cracking comparators do not;
* the progressive indexes are several orders of magnitude more robust
  (lower variance of the first 100 query times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.policy import TimeAdaptive
from repro.engine.executor import ExecutionResult, WorkloadExecutor
from repro.engine.registry import ALGORITHMS, PROGRESSIVE_ALGORITHMS
from repro.experiments.config import ExperimentConfig
from repro.storage.column import Column
from repro.workloads.skyserver import skyserver_data, skyserver_workload

#: Algorithm order of Table 2.
TABLE2_ALGORITHMS = ("FS", "FI", "STD", "STC", "PSTC", "CGI", "AA", "PQ", "PMSD", "PLSD", "PB")

#: Algorithms plotted in Figure 10.
FIGURE10_ALGORITHMS = ("PQ", "AA", "PSTC")


@dataclass
class SkyServerRow:
    """One line of Table 2."""

    algorithm: str
    first_query_seconds: float
    convergence_query: int | None
    robustness_variance: float
    cumulative_seconds: float
    scan_seconds: float

    @property
    def first_query_scan_ratio(self) -> float:
        """First query cost relative to a single full scan."""
        if self.scan_seconds <= 0:
            return float("inf")
        return self.first_query_seconds / self.scan_seconds


@dataclass
class SkyServerComparisonResult:
    """All rows of Table 2 plus the raw executions for Figure 10."""

    rows: Dict[str, SkyServerRow] = field(default_factory=dict)
    executions: Dict[str, ExecutionResult] = field(default_factory=dict)

    def row(self, algorithm: str) -> SkyServerRow:
        """The Table 2 row of one algorithm."""
        return self.rows[algorithm]

    def algorithms(self) -> List[str]:
        """Algorithms present in the result, in Table 2 order."""
        return [name for name in TABLE2_ALGORITHMS if name in self.rows] + [
            name for name in self.rows if name not in TABLE2_ALGORITHMS
        ]


def _build_index(name: str, column: Column, config: ExperimentConfig):
    constants = config.constants()
    if name in PROGRESSIVE_ALGORITHMS:
        budget = TimeAdaptive(scan_fraction=config.budget_fraction)
        return ALGORITHMS[name](column, budget=budget, constants=constants)
    return ALGORITHMS[name](column, constants=constants)


def run_skyserver_comparison(
    config: ExperimentConfig | None = None,
    algorithms: Sequence[str] = TABLE2_ALGORITHMS,
) -> SkyServerComparisonResult:
    """Run the Table 2 experiment."""
    config = config or ExperimentConfig()
    rng = config.rng(salt=23)
    data = skyserver_data(config.n_elements, rng=rng)
    workload = skyserver_workload(config.n_queries, rng=rng)
    executor = WorkloadExecutor()

    result = SkyServerComparisonResult()
    for name in algorithms:
        column = Column(data, name="ra")
        index = _build_index(name, column, config)
        execution = executor.run(index, workload)
        metrics = execution.metrics()
        result.executions[name] = execution
        result.rows[name] = SkyServerRow(
            algorithm=name,
            first_query_seconds=metrics.first_query_seconds,
            convergence_query=metrics.convergence_query,
            robustness_variance=metrics.robustness_variance,
            cumulative_seconds=metrics.cumulative_seconds,
            scan_seconds=execution.scan_seconds,
        )
    return result


def run_figure10(
    config: ExperimentConfig | None = None,
    algorithms: Sequence[str] = FIGURE10_ALGORITHMS,
) -> Dict[str, ExecutionResult]:
    """Run the Figure 10 per-query time-series experiment."""
    config = config or ExperimentConfig()
    comparison = run_skyserver_comparison(config, algorithms=algorithms)
    return dict(comparison.executions)

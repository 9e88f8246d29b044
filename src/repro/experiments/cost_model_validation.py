"""Figures 8 and 9: cost-model validation — plus the greedy-policy check.

Figure 8 runs the SkyServer-like workload with a **fixed** indexing budget
(``delta = 0.25``) and compares, per query, the measured execution time with
the cost-model prediction.  Figure 9 repeats the comparison with the
**adaptive** indexing budget (``t_budget = 0.2 * t_scan``), where the paper
additionally observes that the measured per-query time stays approximately
constant until the index converges.

:func:`run_greedy_vs_fixed` validates the cost-model-*driven* side of the
paper: under :class:`~repro.core.policy.CostModelGreedy` every pre-convergence
query's predicted total must land on the interactivity threshold τ, the
per-query time variance must undercut the fixed-``delta`` run, and the total
time to convergence must stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.policy import CostModelGreedy, FixedDelta, TimeAdaptive
from repro.engine.executor import ExecutionResult, WorkloadExecutor
from repro.engine.metrics import robustness
from repro.engine.registry import PROGRESSIVE_ALGORITHMS
from repro.experiments.config import ExperimentConfig
from repro.storage.column import Column
from repro.workloads.skyserver import skyserver_data, skyserver_workload

#: Fixed delta used by the Figure 8 experiment.
FIXED_DELTA = 0.25

#: Tolerance on "predicted total within τ": the minimum-delta convergence
#: floor can push a query marginally over the threshold.
TAU_TOLERANCE = 1.05


@dataclass
class CostModelSeries:
    """Measured and predicted per-query times for one algorithm."""

    algorithm: str
    budget: str
    measured_seconds: np.ndarray
    predicted_seconds: np.ndarray
    phases: List[str]

    @property
    def n_queries(self) -> int:
        """Number of queries in the series."""
        return int(self.measured_seconds.size)

    def correlation(self) -> float:
        """Pearson correlation between measured and predicted times.

        Computed over queries with a prediction; a high correlation is the
        quantitative counterpart of "the cost model tracks the measured
        cost" in Figures 8 and 9.
        """
        mask = ~np.isnan(self.predicted_seconds)
        measured = self.measured_seconds[mask]
        predicted = self.predicted_seconds[mask]
        if measured.size < 2 or np.allclose(measured, measured[0]) or np.allclose(
            predicted, predicted[0]
        ):
            return 1.0
        return float(np.corrcoef(measured, predicted)[0, 1])

    def mean_relative_error(self) -> float:
        """Mean relative deviation of the prediction from the measurement."""
        mask = ~np.isnan(self.predicted_seconds)
        measured = self.measured_seconds[mask]
        predicted = self.predicted_seconds[mask]
        if measured.size == 0:
            return 0.0
        denominator = np.maximum(measured, 1e-12)
        return float(np.mean(np.abs(predicted - measured) / denominator))


@dataclass
class CostModelValidationResult:
    """Series of every algorithm for one budget flavour."""

    budget: str
    series: Dict[str, CostModelSeries] = field(default_factory=dict)

    def algorithms(self) -> List[str]:
        """Algorithms present in the result."""
        return sorted(self.series)


def _series_from_execution(execution: ExecutionResult, budget: str) -> CostModelSeries:
    return CostModelSeries(
        algorithm=execution.index_name,
        budget=budget,
        measured_seconds=execution.times(),
        predicted_seconds=execution.predicted_times(),
        phases=[record.phase.value for record in execution.records],
    )


def run_cost_model_validation(
    config: ExperimentConfig | None = None,
    adaptive: bool = False,
    algorithms: Sequence[str] | None = None,
    fixed_delta: float = FIXED_DELTA,
) -> CostModelValidationResult:
    """Run the Figure 8 (``adaptive=False``) or Figure 9 (``adaptive=True``) experiment."""
    config = config or ExperimentConfig()
    algorithms = list(algorithms or PROGRESSIVE_ALGORITHMS)
    rng = config.rng(salt=13)
    data = skyserver_data(config.n_elements, rng=rng)
    workload = skyserver_workload(config.n_queries, rng=rng)
    constants = config.constants()
    executor = WorkloadExecutor()
    budget_label = "adaptive" if adaptive else f"fixed(delta={fixed_delta})"

    result = CostModelValidationResult(budget=budget_label)
    for algorithm in algorithms:
        index_class = PROGRESSIVE_ALGORITHMS[algorithm]
        column = Column(data, name="ra")
        if adaptive:
            budget = TimeAdaptive(scan_fraction=config.budget_fraction)
        else:
            budget = FixedDelta(fixed_delta)
        index = index_class(column, budget=budget, constants=constants)
        execution = executor.run(index, workload)
        result.series[algorithm] = _series_from_execution(execution, budget_label)
    return result


# ----------------------------------------------------------------------
# Greedy (cost-model-driven) vs fixed delta
# ----------------------------------------------------------------------
@dataclass
class PolicyComparisonRow:
    """Greedy-vs-fixed comparison of one algorithm.

    Attributes
    ----------
    algorithm:
        Paper acronym.
    tau_seconds:
        The interactivity threshold τ the greedy policy resolved to.
    fixed_variance, greedy_variance:
        Per-query time variance (the paper's robustness metric) of the two
        runs.
    fixed_convergence_seconds, greedy_convergence_seconds:
        Cumulative wall-clock time until convergence (``None`` when the run
        did not converge within the workload).
    fixed_convergence_query, greedy_convergence_query:
        Convergence query numbers.
    within_tau_fraction:
        Fraction of pre-convergence greedy queries whose *predicted* total
        cost stayed within ``τ * TAU_TOLERANCE`` — the greedy policy's
        contract.
    """

    algorithm: str
    tau_seconds: float
    fixed_variance: float
    greedy_variance: float
    fixed_convergence_seconds: Optional[float]
    greedy_convergence_seconds: Optional[float]
    fixed_convergence_query: Optional[int]
    greedy_convergence_query: Optional[int]
    within_tau_fraction: float

    @property
    def variance_ratio(self) -> float:
        """``greedy / fixed`` variance (< 1 means greedy is more robust)."""
        if self.fixed_variance <= 0:
            return float("inf") if self.greedy_variance > 0 else 1.0
        return self.greedy_variance / self.fixed_variance

    @property
    def convergence_ratio(self) -> Optional[float]:
        """``greedy / fixed`` total time to convergence."""
        if self.fixed_convergence_seconds is None or self.greedy_convergence_seconds is None:
            return None
        if self.fixed_convergence_seconds <= 0:
            return None
        return self.greedy_convergence_seconds / self.fixed_convergence_seconds


@dataclass
class GreedyValidationResult:
    """Greedy-vs-fixed rows for every algorithm."""

    fixed_delta: float
    rows: Dict[str, PolicyComparisonRow] = field(default_factory=dict)

    def algorithms(self) -> List[str]:
        """Algorithms present in the result."""
        return sorted(self.rows)


def _convergence_seconds(execution: ExecutionResult) -> Optional[float]:
    converged = execution.metrics().convergence_query
    if converged is None:
        return None
    return float(np.sum(execution.times()[:converged]))


def run_greedy_vs_fixed(
    config: ExperimentConfig | None = None,
    algorithms: Sequence[str] | None = None,
    fixed_delta: float = FIXED_DELTA,
) -> GreedyValidationResult:
    """Compare :class:`CostModelGreedy` against a fixed ``delta`` per algorithm.

    Both runs see the same data and workload.  The greedy policy's τ is
    resolved from ``config.budget_fraction`` (``τ = (1 + fraction) *
    t_scan``), mirroring the paper's adaptive experiments.
    """
    config = config or ExperimentConfig()
    algorithms = list(algorithms or PROGRESSIVE_ALGORITHMS)
    rng = config.rng(salt=17)
    data = skyserver_data(config.n_elements, rng=rng)
    workload = skyserver_workload(config.n_queries, rng=rng)
    constants = config.constants()
    executor = WorkloadExecutor()

    result = GreedyValidationResult(fixed_delta=fixed_delta)
    for algorithm in algorithms:
        index_class = PROGRESSIVE_ALGORITHMS[algorithm]

        fixed_index = index_class(
            Column(data, name="ra"), budget=FixedDelta(fixed_delta), constants=constants
        )
        fixed_run = executor.run(fixed_index, workload)

        greedy_policy = CostModelGreedy(scan_fraction=config.budget_fraction)
        greedy_index = index_class(
            Column(data, name="ra"), budget=greedy_policy, constants=constants
        )
        greedy_run = executor.run(greedy_index, workload)

        tau = greedy_policy.interactivity_budget or 0.0
        converged_at = greedy_run.metrics().convergence_query
        pre_convergence = greedy_run.records[
            : converged_at if converged_at is not None else len(greedy_run.records)
        ]
        within = [
            record.predicted_seconds is not None
            and record.predicted_seconds <= tau * TAU_TOLERANCE
            for record in pre_convergence
        ]
        result.rows[algorithm] = PolicyComparisonRow(
            algorithm=algorithm,
            tau_seconds=tau,
            fixed_variance=robustness(fixed_run.times(), window=config.robustness_window),
            greedy_variance=robustness(greedy_run.times(), window=config.robustness_window),
            fixed_convergence_seconds=_convergence_seconds(fixed_run),
            greedy_convergence_seconds=_convergence_seconds(greedy_run),
            fixed_convergence_query=fixed_run.metrics().convergence_query,
            greedy_convergence_query=converged_at,
            within_tau_fraction=(sum(within) / len(within)) if within else 1.0,
        )
    return result

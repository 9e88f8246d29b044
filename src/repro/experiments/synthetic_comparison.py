"""Tables 3, 4 and 5: synthetic workload comparison.

The synthetic evaluation runs the workload patterns of Figure 6 against the
four progressive indexes and adaptive adaptive indexing (the best cracking
comparator) over four experiment blocks:

* uniform random data, range queries with selectivity 0.1;
* skewed data, range queries;
* uniform data, point queries;
* a larger column ("10^9" in the paper, scaled down here), range queries.

Table 3 reports the first-query cost, Table 4 the cumulative time and
Table 5 the robustness (variance of the first 100 query times) of every
(block, pattern, algorithm) combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.policy import TimeAdaptive
from repro.engine.executor import WorkloadExecutor
from repro.engine.registry import ALGORITHMS, PROGRESSIVE_ALGORITHMS
from repro.experiments.config import ExperimentConfig
from repro.storage.column import Column
from repro.workloads.distributions import skewed_data, uniform_data
from repro.workloads.patterns import POINT_QUERY_PATTERNS, SYNTHETIC_PATTERNS, generate_pattern

#: Algorithm order of Tables 3-5.
TABLE_ALGORITHMS = ("PQ", "PB", "PLSD", "PMSD", "AA")

#: The experiment blocks (table sections) of Tables 3-5.
BLOCKS = ("uniform", "skewed", "point", "large")


@dataclass
class SyntheticCell:
    """One (block, pattern, algorithm) measurement."""

    block: str
    pattern: str
    algorithm: str
    first_query_seconds: float
    cumulative_seconds: float
    robustness_variance: float
    convergence_query: int | None


@dataclass
class SyntheticComparisonResult:
    """All measurements of the synthetic grid."""

    cells: List[SyntheticCell] = field(default_factory=list)

    def table(self, metric: str, block: str) -> Dict[str, Dict[str, float]]:
        """``{pattern: {algorithm: value}}`` for one metric and block."""
        output: Dict[str, Dict[str, float]] = {}
        for cell in self.cells:
            if cell.block != block:
                continue
            output.setdefault(cell.pattern, {})[cell.algorithm] = getattr(cell, metric)
        return output

    def blocks(self) -> List[str]:
        """Blocks present in the result."""
        return [block for block in BLOCKS if any(c.block == block for c in self.cells)]

    def winners(self, metric: str, block: str) -> Dict[str, str]:
        """Per-pattern algorithm with the smallest value of ``metric``."""
        table = self.table(metric, block)
        return {
            pattern: min(values, key=values.get) for pattern, values in table.items()
        }


def _block_settings(
    block: str, config: ExperimentConfig, rng: np.random.Generator
) -> Tuple[np.ndarray, bool]:
    """Data set and point-query flag for one experiment block."""
    if block == "uniform":
        return uniform_data(config.n_elements, rng=rng), False
    if block == "skewed":
        return skewed_data(config.n_elements, rng=rng), False
    if block == "point":
        return uniform_data(config.n_elements, rng=rng), True
    if block == "large":
        return uniform_data(config.n_elements_large, rng=rng), False
    raise ValueError(f"unknown block {block!r}")


def _patterns_for_block(block: str, patterns: Iterable[str] | None) -> List[str]:
    if patterns is not None:
        return list(patterns)
    if block == "point":
        return list(POINT_QUERY_PATTERNS)
    if block == "large":
        # The paper's 10^9 block only reports SeqOver, Skew and Random.
        return ["SeqOver", "Skew", "Random"]
    return list(SYNTHETIC_PATTERNS)


def _build_index(name: str, column: Column, config: ExperimentConfig):
    constants = config.constants()
    if name in PROGRESSIVE_ALGORITHMS:
        budget = TimeAdaptive(scan_fraction=config.budget_fraction)
        return ALGORITHMS[name](column, budget=budget, constants=constants)
    return ALGORITHMS[name](column, constants=constants)


def run_synthetic_comparison(
    config: ExperimentConfig | None = None,
    blocks: Sequence[str] = BLOCKS,
    patterns: Sequence[str] | None = None,
    algorithms: Sequence[str] = TABLE_ALGORITHMS,
) -> SyntheticComparisonResult:
    """Run the Tables 3-5 grid.

    Parameters
    ----------
    config:
        Experiment configuration.
    blocks:
        Which experiment blocks to run (all four by default).
    patterns:
        Restrict to a subset of workload patterns (block defaults otherwise).
    algorithms:
        Algorithms to compare.
    """
    config = config or ExperimentConfig()
    executor = WorkloadExecutor()
    result = SyntheticComparisonResult()

    for block in blocks:
        rng = config.rng(salt=hash(block) % 1000)
        data, point_queries = _block_settings(block, config, rng)
        domain_low, domain_high = int(data.min()), int(data.max())
        for pattern in _patterns_for_block(block, patterns):
            workload = generate_pattern(
                pattern,
                domain_low,
                domain_high,
                config.n_queries,
                selectivity=config.selectivity,
                rng=config.rng(salt=hash((block, pattern)) % 1000),
                point_queries=point_queries,
            )
            for algorithm in algorithms:
                column = Column(data, name="value")
                index = _build_index(algorithm, column, config)
                execution = executor.run(index, workload)
                metrics = execution.metrics()
                result.cells.append(
                    SyntheticCell(
                        block=block,
                        pattern=pattern,
                        algorithm=algorithm,
                        first_query_seconds=metrics.first_query_seconds,
                        cumulative_seconds=metrics.cumulative_seconds,
                        robustness_variance=metrics.robustness_variance,
                        convergence_query=metrics.convergence_query,
                    )
                )
    return result

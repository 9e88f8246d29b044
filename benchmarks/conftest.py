"""Shared configuration and cached experiment runs for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The synthetic
grid feeds three tables (Tables 3, 4 and 5), so it is executed once per
pytest session and cached here; all other experiments are timed directly by
their benchmark.

The scale can be adjusted from the command line::

    pytest benchmarks/ --benchmark-only --bench-elements 1000000 --bench-queries 300
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.synthetic_comparison import run_synthetic_comparison


def pytest_addoption(parser):
    group = parser.getgroup("progressive-indexes benchmarks")
    group.addoption(
        "--bench-elements", type=int, default=300_000,
        help="column size used by the benchmark experiments",
    )
    group.addoption(
        "--bench-large-elements", type=int, default=1_000_000,
        help="column size of the large (paper: 10^9) experiment block",
    )
    group.addoption(
        "--bench-queries", type=int, default=150,
        help="number of queries per workload",
    )
    group.addoption(
        "--rows", type=int, default=None,
        help="override the column size of every benchmark (alias of "
             "--bench-elements that also scales the large block)",
    )
    group.addoption(
        "--workers", type=int, default=None,
        help="threads used by sharded/parallel benchmarks "
             "(default: cpu count)",
    )


@pytest.fixture(scope="session")
def bench_rows(request) -> int:
    rows = request.config.getoption("--rows")
    return rows if rows is not None else request.config.getoption("--bench-elements")


@pytest.fixture(scope="session")
def bench_workers(request) -> int:
    workers = request.config.getoption("--workers")
    if workers is not None:
        return workers
    import os

    return os.cpu_count() or 1


@pytest.fixture(scope="session")
def bench_config(request, bench_rows) -> ExperimentConfig:
    rows_override = request.config.getoption("--rows")
    large = (
        rows_override if rows_override is not None
        else request.config.getoption("--bench-large-elements")
    )
    return ExperimentConfig(
        n_elements=bench_rows,
        n_elements_large=large,
        n_queries=request.config.getoption("--bench-queries"),
        calibrate_constants=True,
    )


@pytest.fixture(scope="session")
def synthetic_comparison(bench_config):
    """Tables 3-5 source data (the grid is executed once per session)."""
    return run_synthetic_comparison(bench_config)

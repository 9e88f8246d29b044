"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.cost_model import CostBreakdown
from repro.core.policy import DeltaRequest
from repro.core.query import Predicate, QueryResult
from repro.storage.column import Column


def pytest_addoption(parser):
    parser.addoption(
        "--kernels", choices=("c", "numpy"), default=None,
        help="kernel backend the whole run uses (default: what repro.kernels resolved)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running soak/stress tests (deselect with -m 'not slow')"
    )
    if config.getoption("--kernels"):
        kernels.use_backend(config.getoption("--kernels"))


def pytest_ignore_collect(collection_path, config):
    """Collect the NumPy-backend copies of the oracle suites only in an
    unpinned run: under ``--kernels`` every test already runs on one backend,
    so the copies would repeat the ``numpy`` run or leave the ``c`` one."""
    if collection_path.name == "test_oracles_numpy_backend.py" and config.getoption("--kernels"):
        return True
    return None


def pytest_report_header(config):
    return f"repro.kernels: {kernels.info()}"


@pytest.fixture(params=["c", "numpy"])
def kernel_backend(request):
    """Run the test once per kernel backend (``c`` skipped where it did not build)."""
    try:
        previous = kernels.use_backend(request.param)
    except RuntimeError as error:
        pytest.skip(str(error))
    yield request.param
    kernels.use_backend(previous)


def partition_branched(values: np.ndarray, pivot) -> int:
    """Reference partition: the single-pass two-pointer loop, in pure Python.

    The ground truth the seam's kernels are validated against; returns the
    boundary (``values[:boundary] < pivot <= values[boundary:]``).
    """
    low = 0
    high = int(values.size) - 1
    while low <= high:
        if values[low] < pivot:
            low += 1
        else:
            values[low], values[high] = values[high], values[low]
            high -= 1
    return low


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def uniform_data(rng) -> np.ndarray:
    """Uniform integers with duplicates over a domain of 50_000."""
    return rng.integers(0, 50_000, size=20_000, dtype=np.int64)


@pytest.fixture
def skewed_data(rng) -> np.ndarray:
    """Skewed integers: 90% concentrated in the middle tenth of the domain."""
    hot = rng.integers(22_500, 27_500, size=18_000, dtype=np.int64)
    cold = rng.integers(0, 50_000, size=2_000, dtype=np.int64)
    data = np.concatenate([hot, cold])
    rng.shuffle(data)
    return data


@pytest.fixture
def uniform_column(uniform_data) -> Column:
    """A column over the uniform test data."""
    return Column(uniform_data, name="value")


@pytest.fixture
def skewed_column(skewed_data) -> Column:
    """A column over the skewed test data."""
    return Column(skewed_data, name="value")


def delta_request(full_work_time: float, query_base_cost: float = 0.0) -> DeltaRequest:
    """A policy question with no cost model behind it: all remaining phase
    work costs ``full_work_time`` and the query alone ``query_base_cost``
    seconds."""
    return DeltaRequest(full_work_time, CostBreakdown(query_base_cost, 0.0, 0.0))


def brute_force(data: np.ndarray, predicate: Predicate) -> QueryResult:
    """Reference answer computed with a plain NumPy filter."""
    mask = (data >= predicate.low) & (data <= predicate.high)
    count = int(mask.sum())
    if count == 0:
        return QueryResult(0, 0)
    return QueryResult(data[mask].sum(), count)


def random_range_predicates(data: np.ndarray, n_queries: int, rng, selectivity: float = 0.1):
    """Random range predicates over the data's domain."""
    low, high = int(data.min()), int(data.max())
    width = max(1, int((high - low) * selectivity))
    predicates = []
    for _ in range(n_queries):
        start = int(rng.integers(low, max(low + 1, high - width)))
        predicates.append(Predicate(start, start + width))
    return predicates


def random_point_predicates(data: np.ndarray, n_queries: int, rng):
    """Random point predicates on existing values."""
    return [
        Predicate(int(value), int(value))
        for value in data[rng.integers(0, data.size, size=n_queries)]
    ]


def assert_matches_brute_force(index, data: np.ndarray, predicates) -> None:
    """Every predicate must be answered exactly like the reference scan."""
    for query_number, predicate in enumerate(predicates):
        result = index.query(predicate)
        expected = brute_force(data, predicate)
        assert result.count == expected.count, (
            f"query {query_number} ({predicate}): count {result.count} != {expected.count} "
            f"in phase {index.phase}"
        )
        assert result.value_sum == expected.value_sum, (
            f"query {query_number} ({predicate}): sum mismatch in phase {index.phase}"
        )

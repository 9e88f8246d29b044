"""Registry mapping the paper's algorithm acronyms to index classes.

The experiment drivers, the benchmarks and the session API all refer to the
algorithms by the short names used in the paper's tables (``PQ``, ``PMSD``,
``PLSD``, ``PB``, ``STD``, ``STC``, ``PSTC``, ``CGI``, ``AA``, ``FS``,
``FI``).
"""

from __future__ import annotations

from typing import Dict, Type

from repro.baselines.full_index import FullIndex
from repro.baselines.full_scan import FullScan
from repro.core.calibration import CostConstants
from repro.core.policy import BudgetPolicy, CostModelGreedy
from repro.core.index import BaseIndex
from repro.cracking.adaptive_adaptive import AdaptiveAdaptiveIndexing
from repro.cracking.coarse_granular import CoarseGranularIndex
from repro.cracking.progressive_stochastic import ProgressiveStochasticCracking
from repro.cracking.standard import StandardCracking
from repro.cracking.stochastic import StochasticCracking
from repro.errors import ExperimentError
from repro.progressive.bucketsort import ProgressiveBucketsort
from repro.progressive.quicksort import ProgressiveQuicksort
from repro.progressive.radixsort_lsd import ProgressiveRadixsortLSD
from repro.progressive.radixsort_msd import ProgressiveRadixsortMSD
from repro.storage.column import Column

#: The paper's four progressive indexing techniques.
PROGRESSIVE_ALGORITHMS: Dict[str, Type[BaseIndex]] = {
    "PQ": ProgressiveQuicksort,
    "PMSD": ProgressiveRadixsortMSD,
    "PLSD": ProgressiveRadixsortLSD,
    "PB": ProgressiveBucketsort,
}

#: The adaptive-indexing (cracking) comparators.
ADAPTIVE_ALGORITHMS: Dict[str, Type[BaseIndex]] = {
    "STD": StandardCracking,
    "STC": StochasticCracking,
    "PSTC": ProgressiveStochasticCracking,
    "CGI": CoarseGranularIndex,
    "AA": AdaptiveAdaptiveIndexing,
}

#: The non-adaptive baselines.
BASELINE_ALGORITHMS: Dict[str, Type[BaseIndex]] = {
    "FS": FullScan,
    "FI": FullIndex,
}

#: Every algorithm of the evaluation, keyed by its paper acronym.
ALGORITHMS: Dict[str, Type[BaseIndex]] = {
    **BASELINE_ALGORITHMS,
    **ADAPTIVE_ALGORITHMS,
    **PROGRESSIVE_ALGORITHMS,
}


def create_index(
    name: str,
    column: Column,
    budget: BudgetPolicy | None = None,
    constants: CostConstants | None = None,
    interactivity_budget: float | None = None,
    **kwargs,
) -> BaseIndex:
    """Instantiate an algorithm by its paper acronym.

    Parameters
    ----------
    name:
        One of the keys of :data:`ALGORITHMS` (case-insensitive).
    column:
        Column to index.
    budget, constants:
        Forwarded to the index constructor.
    interactivity_budget:
        Convenience for the cost-model-greedy policy: the per-query total
        time target τ in seconds.  Mutually exclusive with ``budget``.
    kwargs:
        Additional algorithm-specific keyword arguments.
    """
    key = name.upper()
    if key not in ALGORITHMS:
        raise ExperimentError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        )
    if interactivity_budget is not None:
        if budget is not None:
            raise ExperimentError(
                "provide at most one of budget or interactivity_budget"
            )
        budget = CostModelGreedy(interactivity_budget=interactivity_budget)
    index_class = ALGORITHMS[key]
    return index_class(column, budget=budget, constants=constants, **kwargs)


def create_sharded_index(
    column,
    algorithm: str,
    shards: int = 4,
    parallel: bool = False,
    **kwargs,
):
    """Build a sharded index over ``column``.

    Partitions the column into ``shards`` range (default) or hash
    partitions, each served by its own instance of ``algorithm`` with an
    independent lifecycle, fronted by a zone-map router and a pooled
    interactivity budget.  With ``parallel=True`` the construction work of
    the shards a query touches runs on a thread pool.
    See :func:`repro.shard.index.build_sharded_index` for all options.
    """
    if algorithm.upper() not in ALGORITHMS:
        raise ExperimentError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
    from repro.shard.index import build_sharded_index

    return build_sharded_index(
        column, algorithm, shards=shards, parallel=parallel, **kwargs
    )

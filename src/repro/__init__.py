"""Progressive Indexes — a reproduction of Holanda et al., VLDB 2019.

This package re-implements "Progressive Indexes: Indexing for Interactive
Data Analysis" (PVLDB 12(13), 2019) as a stand-alone Python library:

* the four progressive indexing algorithms (Quicksort, Radixsort MSD,
  Radixsort LSD, Bucketsort) with their per-phase cost models and the fixed /
  adaptive indexing budgets (:mod:`repro.progressive`, :mod:`repro.core`);
* the adaptive-indexing comparators from the database-cracking family
  (:mod:`repro.cracking`) and the full-scan / full-index baselines
  (:mod:`repro.baselines`);
* the sorted-array read structure (:mod:`repro.btree`);
* the mutable column substrate — delta-store writes with snapshot-versioned
  reads and budget-priced progressive merging (:mod:`repro.storage`,
  :mod:`repro.core.overlay`);
* the synthetic and SkyServer-like workload generators, including the
  ``MixedReadWrite`` update-heavy pattern (:mod:`repro.workloads`);
* the execution engine, metrics and the Figure 11 decision tree
  (:mod:`repro.engine`);
* drivers regenerating every table and figure of the paper's evaluation
  (:mod:`repro.experiments`).

Quickstart
----------
>>> import numpy as np
>>> from repro import Column, IndexingSession
>>> data = np.random.default_rng(0).integers(0, 1_000_000, size=100_000)
>>> session = IndexingSession(Column(data, name="ra"))
>>> session.create_index("ra", method="PQ", budget_fraction=0.2)   # doctest: +ELLIPSIS
<repro.progressive.quicksort.ProgressiveQuicksort object at ...>
>>> answer = session.between("ra", 1_000, 50_000)
>>> answer.count == int(((data >= 1_000) & (data <= 50_000)).sum())
True
"""

from repro.baselines import FullIndex, FullScan
from repro.btree import CascadeTree
from repro.core import (
    BatchPool,
    BudgetController,
    BudgetPolicy,
    ConjunctionResult,
    CostBreakdown,
    CostConstants,
    CostModel,
    CostModelGreedy,
    FixedDelta,
    FixedTime,
    IndexLifecycle,
    IndexPhase,
    Predicate,
    PredicateVector,
    QueryResult,
    TimeAdaptive,
    calibrate,
    point,
    range_query,
    simulated_constants,
)
from repro.cracking import (
    AdaptiveAdaptiveIndexing,
    CoarseGranularIndex,
    ProgressiveStochasticCracking,
    StandardCracking,
    StochasticCracking,
)
from repro.engine import (
    ALGORITHMS,
    BatchExecutor,
    BatchResult,
    IndexingSession,
    ReaderView,
    SharedEngine,
    WorkloadExecutor,
    WriterHandle,
    create_index,
    create_sharded_index,
    recommend_index,
)
from repro.serve import ConnectionClass, QueryServer, ServiceClient
from repro.shard import (
    ShardedColumn,
    ShardedIndex,
    ShardRouter,
    build_sharded_index,
    shard_table,
)
from repro.progressive import (
    ProgressiveBucketsort,
    ProgressiveQuicksort,
    ProgressiveRadixsortLSD,
    ProgressiveRadixsortMSD,
)
from repro.persist import Database, WriteAheadLog
from repro.storage import Column, ColumnSnapshot, DeltaStore, Table
from repro.workloads import (
    Workload,
    WriteOp,
    conjunctive_queries,
    generate_pattern,
    iter_batches,
    predicate_vector,
    skyserver_data,
    skyserver_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AdaptiveAdaptiveIndexing",
    "BatchExecutor",
    "BatchPool",
    "BudgetController",
    "BudgetPolicy",
    "BatchResult",
    "CascadeTree",
    "CoarseGranularIndex",
    "Column",
    "ColumnSnapshot",
    "ConnectionClass",
    "CostBreakdown",
    "CostModelGreedy",
    "ConjunctionResult",
    "CostConstants",
    "DeltaStore",
    "CostModel",
    "Database",
    "FixedDelta",
    "FixedTime",
    "FullIndex",
    "FullScan",
    "IndexLifecycle",
    "IndexPhase",
    "IndexingSession",
    "Predicate",
    "PredicateVector",
    "ProgressiveBucketsort",
    "ProgressiveQuicksort",
    "ProgressiveRadixsortLSD",
    "ProgressiveRadixsortMSD",
    "ProgressiveStochasticCracking",
    "QueryResult",
    "QueryServer",
    "ReaderView",
    "ServiceClient",
    "SharedEngine",
    "ShardRouter",
    "ShardedColumn",
    "ShardedIndex",
    "StandardCracking",
    "StochasticCracking",
    "Table",
    "TimeAdaptive",
    "Workload",
    "WriteAheadLog",
    "WriteOp",
    "WriterHandle",
    "WorkloadExecutor",
    "build_sharded_index",
    "calibrate",
    "conjunctive_queries",
    "create_index",
    "create_sharded_index",
    "generate_pattern",
    "iter_batches",
    "point",
    "predicate_vector",
    "range_query",
    "recommend_index",
    "shard_table",
    "simulated_constants",
    "skyserver_data",
    "skyserver_workload",
    "__version__",
]

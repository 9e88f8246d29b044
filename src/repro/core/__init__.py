"""Core abstractions shared by every index implementation.

This package contains the query model, the three-phase life cycle of a
progressive index (driven by the shared
:class:`~repro.core.phase.IndexLifecycle`), the cost-model constants and
formulas from Section 3 / Table 1 of the paper, and the budget-policy layer
(:mod:`repro.core.policy`): fixed-delta, fixed-time, time-adaptive,
cost-model-greedy and pooled batch policies, each answering one ``choose``,
asked only by an index's :class:`~repro.core.policy.BudgetController` —
which also holds the admission cap of a capped call.
"""

from repro.core.calibration import CostConstants, calibrate, simulated_constants
from repro.core.cost_model import CostBreakdown, CostModel
from repro.core.index import BaseIndex, QueryStats
from repro.core.keys import FloatKeyCodec, IntKeyCodec, RadixKeySpace, codec_for
from repro.core.phase import IndexLifecycle, IndexPhase
from repro.core.policy import (
    MINIMUM_DELTA,
    BatchPool,
    ManualClock,
    BudgetController,
    BudgetPolicy,
    CostModelGreedy,
    DeltaDecision,
    DeltaRequest,
    FixedDelta,
    FixedTime,
    TimeAdaptive,
)
from repro.core.query import (
    ConjunctionResult,
    Predicate,
    PredicateVector,
    QueryResult,
    point,
    range_query,
    search_sorted_many,
)

__all__ = [
    "MINIMUM_DELTA",
    "BaseIndex",
    "BatchPool",
    "BudgetController",
    "BudgetPolicy",
    "ConjunctionResult",
    "CostBreakdown",
    "CostConstants",
    "CostModel",
    "CostModelGreedy",
    "DeltaDecision",
    "DeltaRequest",
    "FixedDelta",
    "FixedTime",
    "FloatKeyCodec",
    "IndexLifecycle",
    "IndexPhase",
    "ManualClock",
    "TimeAdaptive",
    "IntKeyCodec",
    "Predicate",
    "PredicateVector",
    "QueryResult",
    "QueryStats",
    "RadixKeySpace",
    "calibrate",
    "codec_for",
    "point",
    "range_query",
    "search_sorted_many",
    "simulated_constants",
]

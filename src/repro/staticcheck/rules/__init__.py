"""Built-in rules; importing this module registers all of them."""

from repro.staticcheck.rules.layers import LayerDAGRule
from repro.staticcheck.rules.contracts import DisciplineContractRule
from repro.staticcheck.rules.rng import RNGDisciplineRule
from repro.staticcheck.rules.floats import FloatEqualityRule
from repro.staticcheck.rules.hygiene import HygieneRule
from repro.staticcheck.rules.numerical import (
    UnguardedDomainCallRule,
    UnguardedPoleDivisionRule,
)
from repro.staticcheck.rules.wholeprogram import (
    DeadPublicAPIRule,
    StatefulDisciplineRule,
)
from repro.staticcheck.rules.state import (
    CacheKeyCompletenessRule,
    EngineStatePicklingRule,
    SnapshotCoverageRule,
)
from repro.staticcheck.rules.determinism import (
    OrderedAggregationRule,
    VariateContractRule,
)
from repro.staticcheck.rules.parallel import (
    BlockingEventLoopRule,
    UnpicklableWorkerRule,
    WorkerSharedStateRule,
)

__all__ = [
    "LayerDAGRule",
    "DisciplineContractRule",
    "RNGDisciplineRule",
    "FloatEqualityRule",
    "HygieneRule",
    "UnguardedPoleDivisionRule",
    "UnguardedDomainCallRule",
    "DeadPublicAPIRule",
    "StatefulDisciplineRule",
    "SnapshotCoverageRule",
    "EngineStatePicklingRule",
    "CacheKeyCompletenessRule",
    "VariateContractRule",
    "OrderedAggregationRule",
    "WorkerSharedStateRule",
    "UnpicklableWorkerRule",
    "BlockingEventLoopRule",
]

"""The paper's primary contribution: the CSC index, its dynamic
maintenance, and the user-facing counter facade."""

from repro.core.batch import (
    DEFAULT_REBUILD_THRESHOLD,
    BatchStats,
    apply_batch,
    normalize_batch,
)
from repro.core.csc import CSCIndex
from repro.core.counter import IndexStats, ShortestCycleCounter
from repro.core.maintenance import (
    STRATEGIES,
    UpdateStats,
    delete_edge,
    insert_edge,
)
from repro.labeling.labelstore import LabelStore

__all__ = [
    "BatchStats",
    "CSCIndex",
    "DEFAULT_REBUILD_THRESHOLD",
    "IndexStats",
    "LabelStore",
    "ShortestCycleCounter",
    "STRATEGIES",
    "UpdateStats",
    "apply_batch",
    "delete_edge",
    "insert_edge",
    "normalize_batch",
]

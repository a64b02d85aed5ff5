"""tierpool: an n-tier virtual-memory-style buffer pool with batched page
migration, clock replacement, optimistic page reads, and a fixed-page B+tree.
"""

from .backend import DISK, TierBackend, TierSpec, TierTopology
from .btree import BTree
from .cost_model import CostModel
from .errors import ConfigError, IllegalState, PoolTimeout, TierFull
from .migration import (ERR_ACCESS, ERR_BUSY, ERR_INVALID_TARGET, ERR_SKIPPED,
                        ERR_TIER_FULL, FailureInjector, InjectRule,
                        MigrationEngine, MigrationMode, MigrationOutcome,
                        MigrationRequest)
from .pool import (DRAM, BufferPool, MigrationPolicy, PageHandle, PoolStats)
from .state_word import (EVICTED, LOCKED, MARKED, SHARED_MAX, SHARED_MIN,
                         UNLOCKED, Edge, EdgeKind, StateLayout, StateTable,
                         describe_lock, transition)
from .stats import StatsRegistry

__version__ = "0.1.0"

__all__ = [
    "BTree", "BufferPool", "ConfigError", "CostModel",
    "DISK", "DRAM", "ERR_ACCESS", "ERR_BUSY", "ERR_INVALID_TARGET",
    "ERR_SKIPPED", "ERR_TIER_FULL", "EVICTED", "Edge", "EdgeKind",
    "FailureInjector", "IllegalState", "InjectRule", "LOCKED", "MARKED",
    "MigrationEngine", "MigrationMode", "MigrationOutcome", "MigrationPolicy",
    "MigrationRequest", "PageHandle", "PoolStats", "PoolTimeout",
    "SHARED_MAX", "SHARED_MIN", "StateLayout", "StateTable",
    "StatsRegistry", "TierBackend", "TierFull", "TierSpec", "TierTopology",
    "UNLOCKED", "describe_lock", "transition",
]

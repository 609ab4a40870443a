"""repro.dist — the paper's Sec. IV decomposition, modelled and executed.

:mod:`~repro.dist.decomp` is the block arithmetic (and the node-memory
accounting of the shared-memory velocity split), :mod:`~repro.dist.scaling`
the Fig. 3 cluster model built on it, and :class:`ShardedApp` the real
thing: configuration-cell blocks on persistent worker processes with
shared-memory halo exchange, selected via ``backend: process[:N]``.
:class:`LeaseLock` is the lock-file lease the job queue
(:mod:`repro.serve`, which ``repro campaign`` and ``repro worker`` run on)
claims work through.
"""

from .blocks import BlockGrid, BlockMaxwellRHS, BlockSpecies, fill_padded
from .decomp import ConfDecomposition, block_ranges, factor_ranks, memory_report
from .lease import LeaseLock
from .plan import HaloStats, ShardPlan
from .scaling import ClusterModel, ProblemSpec, strong_scaling_series, weak_scaling_series
from .sharded import ShardedApp

__all__ = [
    "ConfDecomposition",
    "block_ranges",
    "factor_ranks",
    "memory_report",
    "ClusterModel",
    "ProblemSpec",
    "weak_scaling_series",
    "strong_scaling_series",
    "BlockGrid",
    "BlockMaxwellRHS",
    "BlockSpecies",
    "fill_padded",
    "HaloStats",
    "ShardPlan",
    "ShardedApp",
    "LeaseLock",
]

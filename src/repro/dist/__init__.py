"""repro.dist — real process-sharded execution.

The runtime counterpart of the paper's Sec. IV decomposition: configuration
-cell blocks run on persistent worker processes with shared-memory halo
exchange (:class:`ShardedApp`, selected via the ``process[:N]`` backend).
:class:`LeaseLock` is the lock-file lease the job queue
(:mod:`repro.serve`, which ``repro campaign`` and ``repro worker`` run on)
claims work through.
"""

from .blocks import BlockGrid, BlockMaxwellRHS, BlockSpecies, fill_padded
from .lease import LeaseLock
from .plan import HaloStats, ShardPlan
from .sharded import ShardedApp

__all__ = [
    "BlockGrid",
    "BlockMaxwellRHS",
    "BlockSpecies",
    "fill_padded",
    "HaloStats",
    "ShardPlan",
    "ShardedApp",
    "LeaseLock",
]

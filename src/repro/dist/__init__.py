"""repro.dist — the paper's Sec. IV decomposition, modelled and executed.

:mod:`~repro.dist.decomp` is the block arithmetic (and the node-memory
accounting of the shared-memory velocity split), :mod:`~repro.dist.scaling`
the Fig. 3 cluster model built on it, and :class:`ShardedApp` the real
thing, selected via ``backend: process[:N]``: one persistent worker
process per configuration-cell block, each stepping an ordinary
:class:`~repro.systems.system.System` on its :class:`BlockGrid`.  This
package holds no numerics — only what a block needs from the others: the
ghost-layer fill (:func:`fill_padded`, shared memory, two barriers per
stage) and the charge-density gather.
:class:`LeaseLock` is the lock-file lease the job queue
(:mod:`repro.serve`, which ``repro campaign`` and ``repro worker`` run on)
claims work through.
"""

from .blocks import BlockGrid, fill_padded
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
    "fill_padded",
    "HaloStats",
    "ShardPlan",
    "ShardedApp",
    "LeaseLock",
]

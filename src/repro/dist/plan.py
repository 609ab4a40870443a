"""Shard assignment: configuration-cell blocks for worker processes.

A :class:`ShardPlan` is the process-sharded counterpart of the paper's
node-level decomposition (Sec. IV): the configuration grid is split into
near-cubic contiguous blocks — one per persistent worker process — each
padded by a single ghost layer along every decomposed axis, with the full
velocity grid attached.  The block arithmetic is exactly
:class:`repro.dist.decomp.ConfDecomposition` (the object the Fig. 3
scaling model is built on), so the *measured* halo traffic of a sharded run
(``ShardedApp.halo_stats``: messages / doubles per shard) can be compared
against the model's prediction for the same decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .decomp import ConfDecomposition

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of configuration-cell blocks to worker processes."""

    decomp: ConfDecomposition
    nshards: int
    pad: Tuple[int, ...] = field(default=())  # 1 per decomposed axis, else 0

    @classmethod
    def create(cls, conf_cells: Sequence[int], nshards: int) -> "ShardPlan":
        conf_cells = tuple(int(c) for c in conf_cells)
        nshards = int(nshards)
        if nshards < 1:
            raise ValueError(f"need at least one shard, got {nshards}")
        decomp = ConfDecomposition.create(conf_cells, nshards)
        pad = tuple(1 if decomp.dims[d] > 1 else 0 for d in range(len(conf_cells)))
        plan = cls(decomp=decomp, nshards=nshards, pad=pad)
        # A compiled plan classifies its field coefficients by whether they
        # vary over the block's configuration cells; a block degenerated to
        # a single cell would compile (and execute) a structurally different
        # plan than the serial run, breaking bit-identity.  Refuse up front.
        global_varies = any(c > 1 for c in conf_cells)
        for shard in range(nshards):
            block = decomp.local_cells(shard)
            if global_varies and not any(c > 1 for c in block):
                raise ValueError(
                    f"shard {shard} owns a single configuration cell "
                    f"(block {block} of grid {conf_cells}); use fewer shards "
                    "so every block keeps at least two cells along one axis"
                )
        return plan

    # ------------------------------------------------------------------ #
    @property
    def conf_cells(self) -> Tuple[int, ...]:
        return self.decomp.cells

    @property
    def cdim(self) -> int:
        return len(self.decomp.cells)

    def ranges(self, shard: int) -> List[Tuple[int, int]]:
        """Owned (lo, hi) cell range per configuration axis."""
        return self.decomp.local_ranges(shard)

    def block_cells(self, shard: int) -> Tuple[int, ...]:
        return self.decomp.local_cells(shard)

    def padded_cells(self, shard: int) -> Tuple[int, ...]:
        return tuple(
            n + 2 * p for n, p in zip(self.block_cells(shard), self.pad)
        )

    # ------------------------------------------------------------------ #
    def model_halo_doubles(self, num_basis: int, vel_cells: Sequence[int]) -> int:
        """Fig. 3-model prediction of distribution-function doubles received
        per halo exchange, summed over shards (each configuration ghost cell
        carries the full velocity grid times the phase basis)."""
        nvel = int(np.prod([int(c) for c in vel_cells])) if len(vel_cells) else 1
        return sum(
            self.decomp.halo_doubles(shard, num_basis, nvel)
            for shard in range(self.nshards)
        )

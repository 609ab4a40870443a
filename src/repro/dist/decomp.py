"""Two-level parallel domain decomposition (paper Sec. IV).

Gkeyll decomposes a kinetic simulation at two levels:

1. **configuration space** across nodes (distributed memory): each node owns
   a block of configuration cells *with the full velocity grid attached*;
   DG needs a single layer of configuration-space ghost cells, but in 5D/6D
   even one layer is a 4D/5D object — the dominant communication cost.
   :class:`ConfDecomposition` is this level; ``process:N`` sharding
   (:class:`~repro.dist.plan.ShardPlan`) executes it;
2. **velocity space** within a node (MPI-3 shared memory): intra-node ranks
   split the velocity grid *without any ghost layers*, since neighbours'
   data is directly addressable in shared memory.  This is the source of the
   paper's 2–3x node-memory saving, which :func:`memory_report` computes
   exactly from the real ghost-layer sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["factor_ranks", "block_ranges", "ConfDecomposition", "memory_report"]


def factor_ranks(nranks: int, ndim: int, cells: Sequence[int]) -> Tuple[int, ...]:
    """Near-cubic factorization of ``nranks`` over ``ndim`` axes, preferring
    to cut the longest remaining axis (MPI_Dims_create flavoured)."""
    dims = [1] * ndim
    primes = _prime_factors(nranks)
    for p in sorted(primes, reverse=True):
        # assign to the axis with the most cells per current cut
        axis = max(range(ndim), key=lambda d: cells[d] / dims[d])
        dims[axis] *= p
    if int(np.prod(dims)) != nranks:
        raise RuntimeError("factorization failed")
    return tuple(dims)


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def block_ranges(ncells: int, nblocks: int) -> List[Tuple[int, int]]:
    """Split ``ncells`` into ``nblocks`` contiguous ranges (balanced)."""
    if nblocks > ncells:
        raise ValueError(f"cannot split {ncells} cells into {nblocks} blocks")
    base, extra = divmod(ncells, nblocks)
    out = []
    start = 0
    for b in range(nblocks):
        size = base + (1 if b < extra else 0)
        out.append((start, start + size))
        start += size
    return out


@dataclass(frozen=True)
class ConfDecomposition:
    """Block decomposition of the configuration grid across nodes."""

    cells: Tuple[int, ...]
    dims: Tuple[int, ...]          # blocks per axis

    @classmethod
    def create(cls, cells: Sequence[int], nblocks: int) -> "ConfDecomposition":
        cells = tuple(int(c) for c in cells)
        dims = factor_ranks(nblocks, len(cells), cells)
        for d, (c, b) in enumerate(zip(cells, dims)):
            if b > c:
                raise ValueError(
                    f"axis {d}: {b} blocks exceed {c} cells"
                )
        return cls(cells=cells, dims=dims)

    @property
    def num_blocks(self) -> int:
        return int(np.prod(self.dims))

    def block_index(self, rank: int) -> Tuple[int, ...]:
        return tuple(np.unravel_index(rank, self.dims))

    def rank_of_block(self, idx: Sequence[int]) -> int:
        wrapped = tuple(i % b for i, b in zip(idx, self.dims))
        return int(np.ravel_multi_index(wrapped, self.dims))

    def local_ranges(self, rank: int) -> List[Tuple[int, int]]:
        idx = self.block_index(rank)
        return [
            block_ranges(self.cells[d], self.dims[d])[idx[d]]
            for d in range(len(self.cells))
        ]

    def local_cells(self, rank: int) -> Tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.local_ranges(rank))

    def neighbor(self, rank: int, axis: int, shift: int) -> int:
        """Periodic neighbour block along one axis."""
        idx = list(self.block_index(rank))
        idx[axis] += shift
        return self.rank_of_block(idx)

    def ghost_cells(self, rank: int, ghost: int = 1) -> int:
        """Number of configuration ghost cells this rank receives per
        exchange (two faces per decomposed axis, periodic)."""
        local = self.local_cells(rank)
        total = 0
        for d in range(len(local)):
            if self.dims[d] == 1:
                continue  # periodic wrap handled locally, no message needed
            face = int(np.prod(local)) // local[d]
            total += 2 * ghost * face
        return total

    def halo_doubles(self, rank: int, num_basis: int, nvel: int) -> int:
        """The Fig. 3 traffic model: doubles of one distribution function
        this rank receives per halo exchange — every configuration ghost
        cell drags the full velocity grid times the phase basis with it
        (the paper's observation that 5D/6D ghost layers are large)."""
        return self.ghost_cells(rank) * nvel * num_basis


def memory_report(
    conf_cells: Sequence[int],
    vel_cells: Sequence[int],
    nodes: int,
    cores_per_node: int,
    num_basis: int,
    num_species: int = 2,
    ghost: int = 1,
) -> Dict[str, float]:
    """Node memory with the shared-memory velocity decomposition vs. a pure
    per-core phase-space decomposition (the paper's 2–3x saving).

    In the shared model each node stores its configuration block (plus one
    configuration ghost layer) times the *whole* velocity grid, once.  In the
    pure-MPI model every core's phase-space subdomain carries its own ghost
    layers in *all* decomposed directions.
    """
    conf_cells = tuple(int(c) for c in conf_cells)
    vel_cells = tuple(int(c) for c in vel_cells)
    nvel = int(np.prod(vel_cells))
    bytes_per_dof = 8.0 * num_species * num_basis

    # shared-memory model
    shared = ConfDecomposition.create(conf_cells, nodes)
    padded = [n + 2 * ghost for n in shared.local_cells(0)]
    shared_bytes = float(np.prod(padded)) * nvel * bytes_per_dof

    # pure per-core model: decompose phase space over nodes*cores ranks
    total_ranks = nodes * cores_per_node
    phase_cells = conf_cells + vel_cells
    pure = ConfDecomposition.create(phase_cells, total_ranks)
    local_p = pure.local_cells(0)
    padded_p = [
        n + 2 * ghost if pure.dims[d] > 1 else n + (2 * ghost if d < len(conf_cells) else 0)
        for d, n in enumerate(local_p)
    ]
    pure_bytes_per_rank = float(np.prod(padded_p)) * bytes_per_dof
    pure_bytes_per_node = pure_bytes_per_rank * cores_per_node

    return {
        "shared_node_bytes": shared_bytes,
        "pure_mpi_node_bytes": pure_bytes_per_node,
        "saving_factor": pure_bytes_per_node / shared_bytes,
    }

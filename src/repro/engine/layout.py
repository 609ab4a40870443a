"""Canonical cell-major state layout.

One memory-layout decision runs through the whole stack: phase-space state
is **cell-major**,

.. code-block:: text

    (*cfg_cells, num_basis, *vel_cells)        # distribution coefficients
    (*cfg_cells, num_comp,  num_conf_basis)    # EM field state
    (*cfg_cells, num_conf_basis)               # configuration-space fields

so the per-configuration-cell coefficient blocks the batched kernels consume
are contiguous in memory, and a halo slab along a configuration axis is a
contiguous ``memcpy`` instead of a strided gather.  Before this layout the
state was *mode-major* (``(num_basis, *cfg, *vel)`` / ``(comp, Npc, *cfg)``)
and every hot path paid a transpose or ``ascontiguousarray`` pass to reach
the cell-major products; those passes are gone.  Nothing in ``src/`` holds
mode-major state any more (a checkpoint is cell-major or an error).

:class:`StateLayout` owns the phase-space conventions (shape and cell
counts); :func:`insert_basis_axis` broadcasts an aux-style array over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["StateLayout", "insert_basis_axis"]


def insert_basis_axis(val, cdim: int) -> np.ndarray:
    """Reshape an aux-style array (broadcastable over the ``(*cfg, *vel)``
    cell axes) so it broadcasts over cell-major state: a length-1 basis axis
    is inserted at position ``cdim``.  Scalars pass through unchanged."""
    if np.isscalar(val):
        return val
    arr = np.asarray(val)
    if arr.ndim == 0:
        return arr
    return arr.reshape(arr.shape[:cdim] + (1,) + arr.shape[cdim:])


@dataclass(frozen=True)
class StateLayout:
    """Shape bookkeeping for one species' cell-major phase-space state.

    Parameters
    ----------
    cdim, vdim:
        Phase-space split.
    num_basis:
        Modal coefficients per phase-space cell.
    cfg_cells, vel_cells:
        Cell counts per axis.
    """

    cdim: int
    vdim: int
    num_basis: int
    cfg_cells: Tuple[int, ...]
    vel_cells: Tuple[int, ...]

    @classmethod
    def for_grid(cls, phase_grid, num_basis: int) -> "StateLayout":
        return cls(
            cdim=phase_grid.cdim,
            vdim=phase_grid.vdim,
            num_basis=int(num_basis),
            cfg_cells=tuple(phase_grid.conf.cells),
            vel_cells=tuple(phase_grid.vel.cells),
        )

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.cfg_cells + (self.num_basis,) + self.vel_cells

    @property
    def ncfg(self) -> int:
        return int(np.prod(self.cfg_cells)) if self.cfg_cells else 1

    @property
    def nvel(self) -> int:
        return int(np.prod(self.vel_cells)) if self.vel_cells else 1

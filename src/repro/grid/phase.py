"""Phase-space grid: configuration x velocity product structure.

A :class:`PhaseGrid` couples a configuration-space :class:`~repro.grid.cartesian.Grid`
with a velocity-space grid for one species.  It owns the cell-shape
conventions used throughout the solvers:

* coefficient arrays are **cell-major**: ``(*cfg_cells, Np, *vel_cells)``
  (see :class:`repro.engine.layout.StateLayout`);
* phase dimension ``d`` maps to array axis ``d`` for configuration
  dimensions and ``1 + d`` for velocity dimensions (the basis axis sits
  between them);
* velocity centers / field coefficients are exposed as arrays broadcastable
  against the ``(*cfg, *vel)`` cell axes (no basis axis — the engine
  inserts it), which is what the generated kernels consume as runtime
  symbols (``w{d}``, ``rdx{d}``, ``E{j}_{k}``, ...).

Following Gkeyll practice, velocity grids should not have cells straddling
``v = 0`` (use an even cell count over a symmetric interval); the streaming
upwind direction is then constant within each cell, keeping the upwind
surface integrals exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .cartesian import Grid

__all__ = ["PhaseGrid"]


@dataclass(frozen=True)
class PhaseGrid:
    conf: Grid
    vel: Grid

    @property
    def cdim(self) -> int:
        return self.conf.ndim

    @property
    def vdim(self) -> int:
        return self.vel.ndim

    @property
    def pdim(self) -> int:
        return self.cdim + self.vdim

    @property
    def cells(self) -> Tuple[int, ...]:
        return self.conf.cells + self.vel.cells

    @property
    def num_cells(self) -> int:
        return self.conf.num_cells * self.vel.num_cells

    @property
    def dx(self) -> Tuple[float, ...]:
        return self.conf.dx + self.vel.dx

    def velocity_center_array(self, vdir: int) -> np.ndarray:
        """Velocity cell centers along velocity dim ``vdir`` shaped to
        broadcast over the full cell-axis layout ``(*cfg, *vel)``."""
        centers = self.vel.centers(vdir)
        shape = [1] * self.pdim
        shape[self.cdim + vdir] = centers.size
        return centers.reshape(shape)

    def conf_coefficient_array(self, coeff: np.ndarray) -> np.ndarray:
        """Reshape a configuration-cell array ``(*cfg_cells,)`` so it
        broadcasts over phase-space cells."""
        coeff = np.asarray(coeff)
        if coeff.shape != self.conf.cells:
            raise ValueError(
                f"expected configuration-cell shape {self.conf.cells}, got {coeff.shape}"
            )
        return coeff.reshape(self.conf.cells + (1,) * self.vdim)

    def base_aux(self) -> Dict[str, object]:
        """Geometry runtime symbols shared by every kernel application."""
        aux: Dict[str, object] = {}
        for d in range(self.pdim):
            aux[f"rdx{d}"] = 2.0 / self.dx[d]
            aux[f"half_dxv{d}"] = 0.5 * self.dx[d]
        for j in range(self.vdim):
            aux[f"w{self.cdim + j}"] = self.velocity_center_array(j)
        return aux

    def max_velocity(self, vdir: int) -> float:
        """Largest |v| along a velocity direction (CFL bound for streaming)."""
        return max(abs(self.vel.lower[vdir]), abs(self.vel.upper[vdir]))

"""BGK relaxation collision operator.

``C[f] = nu (f_M - f)`` where ``f_M`` is the Maxwellian sharing the density,
flow and thermal speed of ``f``.  The Maxwellian is projected onto the phase
basis per cell by Gauss quadrature (it is not polynomial, so a projection is
unavoidable; this mirrors Gkeyll's BGK app, contributed by P. Cagas per the
paper's acknowledgments).  Moments are obtained by weak division to avoid
aliasing in the primitive-moment computation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..basis.modal import ModalBasis, tensor_gauss_points
from ..grid.phase import PhaseGrid
from ..moments.calc import MomentCalculator
from ..moments.weak_ops import weak_divide, weak_multiply

__all__ = ["BGKCollisions"]


class BGKCollisions:
    """Single-species BGK relaxation with constant collisionality."""

    def __init__(
        self,
        phase_grid: PhaseGrid,
        poly_order: int,
        family: str = "serendipity",
        nu: float = 1.0,
        quad_points_1d: Optional[int] = None,
    ):
        self.grid = phase_grid
        self.nu = float(nu)
        self.poly_order = int(poly_order)
        self.family = family
        self._quad_points_1d = quad_points_1d
        self.basis = ModalBasis(phase_grid.pdim, poly_order, family)
        self.cfg_basis = ModalBasis(phase_grid.cdim, poly_order, family)
        nq = quad_points_1d or poly_order + 2
        pts, wts = tensor_gauss_points(nq, phase_grid.pdim)
        self._pts = pts
        self._wts = wts
        self._vander = self.basis.eval_at(pts)             # (Np, Nq)
        self._cfg_vander = self.cfg_basis.eval_at(pts[:, : phase_grid.cdim])

    def on_grid(self, phase_grid: PhaseGrid) -> "BGKCollisions":
        """The same operator on another phase grid (collisions are
        configuration-local, so on a block of this grid it is this operator
        restricted to the block's cells)."""
        return BGKCollisions(
            phase_grid, self.poly_order, self.family, nu=self.nu,
            quad_points_1d=self._quad_points_1d,
        )

    # ------------------------------------------------------------------ #
    def maxwellian_coefficients(
        self, f: np.ndarray, moments: MomentCalculator
    ) -> np.ndarray:
        """Project the moment-matched Maxwellian onto the phase basis
        (cell-major in, cell-major out)."""
        g = self.grid
        vdim = g.vdim
        m0 = moments.compute("M0", f)
        u = []
        u_dot_m1 = np.zeros_like(m0)
        for j in range(vdim):
            m1 = moments.compute(f"M1{'xyz'[j]}", f)
            uj = weak_divide(m1, m0, self.cfg_basis)
            u.append(uj)
            u_dot_m1 += weak_multiply(uj, m1, self.cfg_basis)
        m2 = moments.compute("M2", f)
        vtsq = weak_divide((m2 - u_dot_m1) / vdim, m0, self.cfg_basis)

        out = np.zeros_like(f)
        centers = g.conf.extend(g.vel).meshgrid_centers()
        half_dx = [0.5 * d for d in g.dx]
        cdim = g.cdim
        # basis values shaped to broadcast over cell-major state: the basis
        # axis sits between the configuration and velocity cell axes
        vander_shape = (1,) * cdim + (-1,) + (1,) * vdim
        for q in range(self._pts.shape[0]):
            # pointwise primitive moments at this quadrature point
            cfg_vals = self._cfg_vander[:, q]
            n_q = np.einsum("k,...k->...", cfg_vals, m0)
            vt2_q = np.maximum(
                np.einsum("k,...k->...", cfg_vals, vtsq), 1e-14
            )
            u_q = [np.einsum("k,...k->...", cfg_vals, u[j]) for j in range(vdim)]
            # velocity coordinates of the quadrature point, per cell
            arg = np.zeros(g.cells)
            for j in range(vdim):
                d = cdim + j
                vcoord = centers[d] + half_dx[d] * self._pts[q, d]
                arg = arg + (vcoord - _bcast(u_q[j], g)) ** 2
            fm = (
                _bcast(n_q, g)
                / (2.0 * np.pi * _bcast(vt2_q, g)) ** (vdim / 2.0)
                * np.exp(-arg / (2.0 * _bcast(vt2_q, g)))
            )
            fm_b = fm.reshape(fm.shape[:cdim] + (1,) + fm.shape[cdim:])
            out += self._wts[q] * self._vander[:, q].reshape(vander_shape) * fm_b
        return out

    def rhs(
        self,
        f: np.ndarray,
        moments: MomentCalculator,
        out: Optional[np.ndarray] = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Evaluate (or accumulate) ``nu (f_M - f)``."""
        fm = self.maxwellian_coefficients(f, moments)
        inc = self.nu * (fm - f)
        if out is None:
            return inc
        if accumulate:
            out += inc
        else:
            out[...] = inc
        return out

    def max_frequency(self, f: np.ndarray, moments: MomentCalculator) -> float:
        """CFL estimate: the relaxation rate, whatever the state."""
        return self.nu


def _bcast(arr: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Broadcast a configuration-cell array across velocity cell axes."""
    return arr.reshape(grid.conf.cells + (1,) * grid.vdim)

"""Exact 1-D DG electrostatic solve (Vlasov–Poisson substrate).

In one configuration dimension Gauss's law ``dE/dx = rho/eps0`` determines
``E`` up to a constant, fixed here by a zero domain mean (periodic domain,
neutral plasma).  Because the DG charge density is piecewise polynomial, the
antiderivative is exact cell by cell, so the solve splits into two parts:

* a fixed ``Npc x Npc`` per-cell map, built once from the Legendre
  antiderivative recurrences: ``rho`` to the in-cell field that vanishes at
  the cell's left edge (``(dx/2 eps0) int_{-1}^{xi} rho``), truncated to
  degree ``p`` and projected onto the orthonormal modes;
* the left-edge value of each cell, an exclusive prefix sum of the cell
  charges ``dx norm_0 rho_0`` over ``eps0``, added to the constant mode.

Subtracting the mean constant mode fixes the zero-mean gauge.  No global
matrix, no linear solve, no quadrature — in the same spirit as the rest of
the scheme.
"""

from __future__ import annotations

import numpy as np

from ..basis.modal import ModalBasis
from ..grid.cartesian import Grid

__all__ = ["NonNeutralError", "Poisson1D"]


class NonNeutralError(ValueError):
    """The charge density handed to :meth:`Poisson1D.solve` is not neutral:
    a periodic domain has no field for it.  Raised at set-up by a
    non-neutral initial condition, and by a run that has blown up
    (:meth:`repro.runtime.Driver.run` then ends ``diverged``)."""


class Poisson1D:
    """Zero-mean periodic electrostatic field from the charge density."""

    def __init__(self, grid: Grid, basis: ModalBasis, epsilon0: float = 1.0):
        if grid.ndim != 1 or basis.ndim != 1:
            raise ValueError("Poisson1D requires a 1-D configuration space")
        self.grid = grid
        self.basis = basis
        self.epsilon0 = float(epsilon0)
        npc = basis.poly_order + 1
        norms = np.array([basis.norm(l) for l in range(npc)])
        dx = grid.dx[0]
        # antiderivative of each Legendre polynomial vanishing at xi = -1;
        # column n holds the Legendre series of int_{-1}^{xi} P_n
        anti = np.polynomial.legendre.legint(np.eye(npc), lbnd=-1.0, axis=0)
        #: rho (cell-major row) @ local -> in-cell E with zero left edge
        self._local = (0.5 * dx / self.epsilon0) * (
            norms[:, None] * anti[:npc].T / norms[None, :]
        )
        #: cell charge int_cell rho dx = dx * norm_0 * rho_0
        self._charge_weight = dx * norms[0]
        self._edge_scale = 1.0 / (self.epsilon0 * norms[0])

    def solve(self, rho: np.ndarray, neutral_tol: float = 1e-8) -> np.ndarray:
        """Return modal coefficients of ``E_x`` with zero domain mean.

        Parameters
        ----------
        rho:
            Charge density coefficients, cell-major ``(nx, Npc)``.
        neutral_tol:
            Absolute net-charge guard.  Periodicity requires a neutral
            domain; roundoff-level residuals are redistributed uniformly,
            anything larger raises :class:`NonNeutralError`.

        Returns
        -------
        Cell-major ``(nx, Npc)`` coefficients of ``E_x``.
        """
        e = rho @ self._local
        charge = self._charge_weight * rho[:, 0]
        total = float(charge.sum())
        if abs(total) > neutral_tol:
            raise NonNeutralError(
                f"periodic Poisson solve requires a neutral domain; net charge "
                f"{total:.3e} exceeds {neutral_tol:.1e}"
            )
        charge -= total / charge.size  # redistribute roundoff
        # left-edge field values: exclusive cumulative charge / eps0
        e[1:, 0] += np.cumsum(charge[:-1]) * self._edge_scale
        e[:, 0] -= e[:, 0].mean()
        return e

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

The solve is one call of the compiled kernel's ``poisson_1d``
(:data:`repro.cas.codegen.FUSED_SWEEP_C`) where plans run compiled, else
its numpy form (:meth:`Poisson1D._solve_numpy`); both perform the same float
operations in the same order — the map as a product then sequential adds,
the net charge and the mean as numpy's pairwise sums, the prefix sum
sequential — so they give the same bytes.  The kernel returns the net
charge, and a non-neutral one raises :class:`NonNeutralError` either way.
"""

from __future__ import annotations

import numpy as np

from ..basis.modal import ModalBasis
from ..engine.compile import compiled_kernel
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
        #: rho (cell-major row) times local -> in-cell E with zero left edge
        self._local = np.ascontiguousarray((0.5 * dx / self.epsilon0) * (
            norms[:, None] * anti[:npc].T / norms[None, :]
        ))
        #: cell charge int_cell rho dx = dx * norm_0 * rho_0
        self._charge_weight = dx * norms[0]
        self._edge_scale = 1.0 / (self.epsilon0 * norms[0])
        # the compiled solve over buffers it owns — rho copied in, E copied
        # out, the cell charges — or None: the numpy form
        self._rho, self._e = np.empty((2, grid.cells[0], npc))
        self._charge = np.empty(grid.cells[0])
        kern = compiled_kernel()
        self._call = None if kern is None else (kern.poisson, (
            self._rho.ctypes.data, self._e.ctypes.data, self._charge.ctypes.data,
            grid.cells[0], npc, self._local.ctypes.data,
            self._charge_weight, self._edge_scale))

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
        call = self._call
        if call is not None and rho.shape == self._rho.shape:
            np.copyto(self._rho, rho)
            total = call[0](*call[1])
            e = self._e.copy()
        else:
            e, total = self._solve_numpy(rho)
        if abs(total) > neutral_tol:
            raise NonNeutralError(
                f"periodic Poisson solve requires a neutral domain; net charge "
                f"{total:.3e} exceeds {neutral_tol:.1e}"
            )
        return e

    def _solve_numpy(self, rho: np.ndarray):
        """The solve in numpy, and the compiled kernel's ``poisson_1d``
        operation for operation: ``(E, net charge)``, ``E`` finished even
        when the charge is not neutral."""
        local = self._local
        # the map, each entry the first product, then the others added
        e = rho[:, :1] * local[0]
        for k in range(1, local.shape[0]):
            e += rho[:, k : k + 1] * local[k]
        charge = self._charge_weight * rho[:, 0]
        total = float(charge.sum())
        charge -= total / charge.size  # redistribute roundoff
        # left-edge field values: exclusive cumulative charge / eps0
        e[1:, 0] += np.cumsum(charge[:-1]) * self._edge_scale
        # the mean as sum / size: the bits of ``ndarray.mean`` without its
        # per-call dispatch overhead
        col = e[:, 0]
        col -= col.sum() / col.size
        return e, total

"""The Maxwell RHS as engine plans against the DG operator integrated by
Gauss quadrature."""

import numpy as np
import pytest

from repro.basis.modal import ModalBasis, tensor_gauss_points
from repro.fields import MaxwellSolver
from repro.fields.maxwell import _flux_jacobians
from repro.grid import Grid


def _quadrature_rhs(solver, q):
    """``dq/dt`` of a 2-D grid by Gauss quadrature: the volume integral of
    ``grad w_l . F(q)`` and, on every face, the central flux plus the
    Rusanov jump at the solver's speed, periodic."""
    grid, basis = solver.grid, solver.basis
    p = basis.poly_order
    pts, wts = tensor_gauss_points(p + 2, 2)
    v = basis.eval_at(pts)
    n1, w1 = np.polynomial.legendre.leggauss(p + 2)
    jac = _flux_jacobians(solver.c, solver.chi_e, solver.chi_m)
    lam = solver.c * max(1.0, solver.chi_e, solver.chi_m) if solver.flux == "upwind" else 0.0
    out = np.zeros_like(q)
    for d in range(2):
        rdx = 2.0 / grid.dx[d]
        deriv = (basis.eval_deriv_at(pts, d) * wts) @ v.T
        flux = np.einsum("ij,...jm->...im", jac[d], q)
        out += rdx * flux @ deriv.T
        v_hi = basis.eval_at(np.insert(n1[:, None], d, 1.0, axis=1))
        v_lo = basis.eval_at(np.insert(n1[:, None], d, -1.0, axis=1))
        lower = q @ v_hi  # each cell at its upper face
        upper = np.roll(q, -1, axis=d) @ v_lo  # its neighbour there
        face = 0.5 * np.einsum("ij,...jk->...ik", jac[d], lower + upper)
        face += 0.5 * lam * (lower - upper)
        out -= rdx * (face * w1) @ v_hi.T
        out += rdx * np.roll((face * w1) @ v_lo.T, 1, axis=d)
    return out


@pytest.mark.parametrize("flux", ["central", "upwind"])
@pytest.mark.parametrize("p,family,chi", [(1, "serendipity", 0.0), (2, "tensor", 0.8)])
def test_rhs_is_the_quadrature_dg_operator(flux, p, family, chi):
    rng = np.random.default_rng(7)
    grid = Grid([0.0, 0.0], [1.0, 1.7], [5, 4])
    basis = ModalBasis(2, p, family)
    solver = MaxwellSolver(grid, basis, light_speed=1.3, flux=flux, chi_e=chi, chi_m=0.5 * chi)
    q = rng.standard_normal(grid.cells + (8, basis.num_basis))
    ref = _quadrature_rhs(solver, q)
    assert np.allclose(solver.rhs(q), ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


"""Spatial convergence of the modal DG scheme: order p+1 on smooth advection.

A near-1D phase-space setup (one narrow velocity cell around v=1) isolates
the configuration-space streaming discretization; the measured L2 error
converges at the formal order p+1 (paper Sec. I: "reduced degrees of freedom
... while retaining a high formal order of convergence").
"""

import numpy as np
import pytest

from repro.basis.modal import ModalBasis, tensor_gauss_points
from repro.grid import Grid, PhaseGrid
from repro.projection import project_phase_function
from repro.timestepping import SSPRK3
from repro.vlasov import VlasovModalSolver


def _advect_error(nx, p, t_end=0.25):
    conf = Grid([0.0], [1.0], [nx])
    vel = Grid([0.999], [1.001], [1])
    pg = PhaseGrid(conf, vel)
    solver = VlasovModalSolver(pg, p, "serendipity")
    basis = ModalBasis(2, p, "serendipity")

    def f0(x, v):
        return np.sin(2 * np.pi * x)

    f = project_phase_function(f0, pg, basis)
    em = np.zeros(conf.cells + (8, solver.num_conf_basis))
    stepper = SSPRK3()
    t, state = 0.0, {"f": f}
    # dt shrinks faster than dx so the RK3 error stays subdominant
    dt = 0.1 / solver.max_frequency(em) * (8.0 / nx)
    while t < t_end - 1e-12:
        step = min(dt, t_end - t)
        stepper.step_inplace(state, lambda s, k: np.copyto(k["f"], solver.rhs(s["f"], em)), step)
        t += step
    pts, wts = tensor_gauss_points(p + 3, 2)
    vander = basis.eval_at(pts)
    xc = conf.centers(0)
    err2 = 0.0
    for i, x0 in enumerate(xc):
        xq = x0 + 0.5 * conf.dx[0] * pts[:, 0]
        vq = 1.0 + 0.001 * pts[:, 1]
        exact = f0(np.mod(xq - vq * t_end, 1.0), vq)
        num = vander.T @ f[i, :, 0]
        err2 += np.sum(wts * (num - exact) ** 2)
    return np.sqrt(err2 * 0.25 * conf.dx[0] * 0.002)


@pytest.mark.parametrize("p,expected", [(1, 2.0), (2, 3.0)])
def test_spatial_order_p_plus_one(p, expected):
    e1 = _advect_error(8, p)
    e2 = _advect_error(16, p)
    e3 = _advect_error(32, p)
    rate1 = np.log2(e1 / e2)
    rate2 = np.log2(e2 / e3)
    assert rate1 > expected - 0.35
    assert rate2 > expected - 0.25


def test_higher_order_is_more_accurate():
    assert _advect_error(8, 2) < 0.2 * _advect_error(8, 1)


def test_phase_mixing_is_representable():
    """Full velocity spread: the phase-mixed solution f0(x - vt) is tracked
    with bounded error that decreases under joint (x, v) refinement."""

    def run(n):
        conf = Grid([0.0], [1.0], [n])
        vel = Grid([0.5], [1.5], [max(n // 2, 2)])
        pg = PhaseGrid(conf, vel)
        solver = VlasovModalSolver(pg, 2, "serendipity")
        basis = ModalBasis(2, 2, "serendipity")

        def f0(x, v):
            return np.sin(2 * np.pi * x)

        f = project_phase_function(f0, pg, basis)
        em = np.zeros(conf.cells + (8, solver.num_conf_basis))
        stepper = SSPRK3()
        t, t_end, state = 0.0, 0.2, {"f": f}
        dt = 0.2 / solver.max_frequency(em)
        while t < t_end - 1e-12:
            step = min(dt, t_end - t)
            stepper.step_inplace(
                state, lambda s, k: np.copyto(k["f"], solver.rhs(s["f"], em)), step
            )
            t += step
        pts, wts = tensor_gauss_points(4, 2)
        vander = basis.eval_at(pts)
        err2 = 0.0
        for i, x0 in enumerate(conf.centers(0)):
            for j, v0 in enumerate(vel.centers(0)):
                xq = x0 + 0.5 * conf.dx[0] * pts[:, 0]
                vq = v0 + 0.5 * vel.dx[0] * pts[:, 1]
                exact = np.sin(2 * np.pi * np.mod(xq - vq * t_end, 1.0))
                num = vander.T @ f[i, :, j]
                err2 += np.sum(wts * (num - exact) ** 2)
        jac = 0.25 * conf.dx[0] * vel.dx[0]
        return np.sqrt(err2 * jac)

    e_coarse, e_fine = run(8), run(16)
    assert e_fine < 0.45 * e_coarse

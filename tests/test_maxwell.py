"""Maxwell DG solver: plane waves, energy conservation, cleaning fields."""

import numpy as np
import pytest

from repro.basis.modal import ModalBasis
from repro.fields import MaxwellSolver
from repro.grid import Grid
from repro.timestepping import SSPRK3


def _advance(solver, q, t_end, cfl=0.3):
    stepper = SSPRK3()
    t, state = 0.0, {"q": q.copy()}
    dt = cfl / solver.max_frequency()
    while t < t_end - 1e-12:
        step = min(dt, t_end - t)
        stepper.step_inplace(state, lambda s, k: np.copyto(k["q"], solver.rhs(s["q"])), step)
        t += step
    return state["q"]


@pytest.fixture(scope="module")
def grid_basis():
    grid = Grid([0.0], [1.0], [16])
    basis = ModalBasis(1, 2, "serendipity")
    return grid, basis


def test_plane_wave_propagation(grid_basis):
    """Ey/Bz plane wave moving at speed c: after one period it returns."""
    grid, basis = grid_basis
    solver = MaxwellSolver(grid, basis, flux="upwind")
    k = 2 * np.pi
    q0 = solver.project_initial_condition(
        {
            "Ey": lambda x: np.cos(k * x),
            "Bz": lambda x: np.cos(k * x),
        }
    )
    q1 = _advance(solver, q0.copy(), 1.0)  # one full period (c=1, L=1)
    err = np.max(np.abs(q1[..., 1, :] - q0[..., 1, :])) / np.max(np.abs(q0[..., 1, :]))
    assert err < 2e-3


def test_energy_conservation_central_flux(grid_basis):
    grid, basis = grid_basis
    solver = MaxwellSolver(grid, basis, flux="central")
    q = solver.project_initial_condition({"Ey": lambda x: np.sin(2 * np.pi * x)})
    e0 = solver.field_energy(q)
    # the spatial scheme is exactly conservative (see the RHS-level test);
    # the residual drift here is the SSP-RK3 time-discretization error
    q = _advance(solver, q, 0.7, cfl=0.3)
    drift_coarse = abs(solver.field_energy(q) - e0) / e0
    q2 = _advance(solver, solver.project_initial_condition(
        {"Ey": lambda x: np.sin(2 * np.pi * x)}), 0.7, cfl=0.1)
    drift_fine = abs(solver.field_energy(q2) - e0) / e0
    assert drift_coarse < 1e-4
    assert drift_fine < 0.1 * drift_coarse  # vanishes with dt (3rd order)


def test_rhs_energy_rate_zero_central(grid_basis, rng):
    """Semi-discrete central-flux energy rate vanishes identically."""
    grid, basis = grid_basis
    solver = MaxwellSolver(grid, basis, flux="central")
    q = rng.standard_normal(grid.cells + (8, basis.num_basis))
    q[..., 6:, :] = 0.0
    dq = solver.rhs(q)
    jac = 0.5 * grid.dx[0]
    rate = float(
        np.sum(q[..., 0:3, :] * dq[..., 0:3, :])
        + np.sum(q[..., 3:6, :] * dq[..., 3:6, :])
    ) * jac
    assert abs(rate) < 1e-12 * float(np.sum(q ** 2))


def test_current_source_term(grid_basis, rng):
    grid, basis = grid_basis
    solver = MaxwellSolver(grid, basis)
    q = np.zeros(grid.cells + (8, basis.num_basis))
    j = rng.standard_normal(grid.cells + (3, basis.num_basis))
    dq = solver.rhs(q, current=j)
    assert np.allclose(dq[..., 0:3, :], -j, atol=1e-14)
    assert np.allclose(dq[..., 3:6, :], 0.0, atol=1e-14)


def test_uniform_fields_are_steady(grid_basis):
    grid, basis = grid_basis
    solver = MaxwellSolver(grid, basis, flux="central")
    q = np.zeros(grid.cells + (8, basis.num_basis))
    q[..., 0, 0] = 1.3  # uniform Ex
    q[..., 5, 0] = -0.4  # uniform Bz
    dq = solver.rhs(q)
    assert np.max(np.abs(dq)) < 1e-14


def test_cleaning_speeds_enter_flux():
    grid = Grid([0.0], [1.0], [8])
    basis = ModalBasis(1, 1, "serendipity")
    solver = MaxwellSolver(grid, basis, chi_e=1.0, chi_m=1.0)
    rng = np.random.default_rng(2)
    q = rng.standard_normal(grid.cells + (8, basis.num_basis))
    dq = solver.rhs(q)
    # phi/psi must evolve when cleaning is on
    assert np.max(np.abs(dq[..., 6, :])) > 0
    assert np.max(np.abs(dq[..., 7, :])) > 0
    solver0 = MaxwellSolver(grid, basis)
    dq0 = solver0.rhs(q)
    assert np.max(np.abs(dq0[..., 6, :])) == 0


def test_2d_maxwell_runs():
    grid = Grid([0.0, 0.0], [1.0, 1.0], [6, 6])
    basis = ModalBasis(2, 1, "serendipity")
    solver = MaxwellSolver(grid, basis)
    q = solver.project_initial_condition(
        {"Ez": lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)}
    )
    e0 = solver.field_energy(q)
    q = _advance(solver, q, 0.2, cfl=0.2)
    assert solver.field_energy(q) == pytest.approx(e0, rel=1e-4)


def test_invalid_flux_rejected(grid_basis):
    grid, basis = grid_basis
    with pytest.raises(ValueError):
        MaxwellSolver(grid, basis, flux="roe")

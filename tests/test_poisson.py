"""Exact 1-D DG electrostatic solve."""

import numpy as np
import pytest

from repro.basis.modal import ModalBasis
from repro.fields.poisson import Poisson1D
from repro.grid import Grid
from repro.projection import project_conf_function


@pytest.fixture(scope="module")
def setup():
    grid = Grid([0.0], [2 * np.pi], [16])
    basis = ModalBasis(1, 2, "serendipity")
    return grid, basis, Poisson1D(grid, basis)


def test_manufactured_solution(setup):
    """rho = cos(x)  =>  E = sin(x) (zero mean, dE/dx = rho)."""
    grid, basis, poisson = setup
    rho = project_conf_function(lambda x: np.cos(x), grid, basis)
    e = poisson.solve(rho)
    e_exact = project_conf_function(lambda x: np.sin(x), grid, basis)
    assert np.max(np.abs(e - e_exact)) < 1e-4  # p=2 projection accuracy


def test_polynomial_charge_exact(setup):
    """Piecewise-polynomial rho within the basis: E is exact up to degree."""
    grid, basis, poisson = setup
    # rho = sin(x) has zero net charge; E = -cos(x)+mean-free
    rho = project_conf_function(lambda x: np.sin(x), grid, basis)
    e = poisson.solve(rho)
    e_exact = project_conf_function(lambda x: -np.cos(x), grid, basis)
    assert np.max(np.abs(e - e_exact)) < 1e-4


def test_gauss_law_discretely():
    """A charge of per-cell degree <= p-1 has its antiderivative in the
    basis: E is continuous at every cell edge and dE/dx = rho/eps0 in every
    cell, to roundoff; the domain mean vanishes."""
    grid = Grid([0.0], [2 * np.pi], [16])
    rng = np.random.default_rng(3)
    xi = np.linspace(-1.0, 1.0, 7)[:, None]
    for p in (1, 2, 3):
        basis = ModalBasis(1, p, "serendipity")
        left = basis.eval_at([[-1.0]])[:, 0]
        right = basis.eval_at([[1.0]])[:, 0]
        for epsilon0 in (1.0, 2.5):
            rho = rng.standard_normal((grid.cells[0], basis.num_basis))
            rho[:, p] = 0.0  # degree <= p-1
            rho[:, 0] -= rho[:, 0].mean()  # neutralize
            e = Poisson1D(grid, basis, epsilon0).solve(rho)
            np.testing.assert_allclose(
                e @ right, np.roll(e @ left, -1), rtol=0, atol=1e-12
            )
            de_dx = (2.0 / grid.dx[0]) * e @ basis.eval_deriv_at(xi, 0)
            np.testing.assert_allclose(
                de_dx, rho @ basis.eval_at(xi) / epsilon0, rtol=0, atol=1e-12
            )
            # domain mean must vanish
            assert abs(e[..., 0].sum()) < 1e-10


def _recurrence_solve(poisson, rho, neutral_tol=1e-8):
    """The per-call Legendre-recurrence solve the per-cell map replaced,
    kept as the reference it must agree with."""
    rho = np.ascontiguousarray(rho.T)
    npc, nx = rho.shape
    dx = poisson.grid.dx[0]
    norms = np.array([poisson.basis.norm(l) for l in range(npc)])
    c = rho * norms[:, None]
    b = np.polynomial.legendre.legint(c, axis=0)
    ones = np.polynomial.legendre.legval(1.0, b, tensor=True)
    mones = np.polynomial.legendre.legval(-1.0, b, tensor=True)
    cell_charge = 0.5 * dx * (ones - mones)
    total = float(cell_charge.sum())
    if abs(total) > neutral_tol:
        raise ValueError(
            f"periodic Poisson solve requires a neutral domain; net charge "
            f"{total:.3e} exceeds {neutral_tol:.1e}"
        )
    cell_charge = cell_charge - total / nx
    e_edge = np.concatenate([[0.0], np.cumsum(cell_charge)[:-1]]) / poisson.epsilon0
    series = 0.5 * dx * b / poisson.epsilon0
    series[0] += e_edge - 0.5 * dx * mones / poisson.epsilon0
    e_modal = series[:npc] / norms[:, None]
    e_modal[0] -= e_modal[0].mean()
    return np.ascontiguousarray(e_modal.T)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("nx", [2, 3, 24, 257])
@pytest.mark.parametrize("epsilon0", [1.0, 2.5])
def test_solve_equals_the_recurrence_solve(p, nx, epsilon0):
    grid = Grid([0.0], [2 * np.pi], [nx])
    basis = ModalBasis(1, p, "serendipity")
    poisson = Poisson1D(grid, basis, epsilon0)
    rng = np.random.default_rng(nx * 10 + p)
    for _ in range(4):
        rho = rng.standard_normal((nx, basis.num_basis))
        rho[:, 0] -= rho[:, 0].mean()
        want = _recurrence_solve(poisson, rho)
        got = poisson.solve(rho)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the neutrality guard trips at the same net charge as before
    cell_charge = grid.dx[0] * basis.norm(0)
    for net, raises in [(2e-8, True), (0.5e-8, False)]:
        rho[:, 0] -= rho[:, 0].mean()
        rho[:, 0] += net / (nx * cell_charge)
        if raises:
            for solve in (poisson.solve, lambda r: _recurrence_solve(poisson, r)):
                with pytest.raises(ValueError, match="neutral"):
                    solve(rho)
        else:
            want = _recurrence_solve(poisson, rho)
            assert np.max(np.abs(poisson.solve(rho) - want)) <= 1e-13 * np.max(
                np.abs(want)
            )


def test_solve_runs_no_legendre_recurrences(setup, monkeypatch):
    """The recurrences build the per-cell map once; a solve only applies it."""
    grid, basis, _ = setup
    poisson = Poisson1D(grid, basis)

    def forbidden(*args, **kwargs):
        raise AssertionError("Legendre recurrence at solve time")

    for name in ("legint", "legval"):
        monkeypatch.setattr(np.polynomial.legendre, name, forbidden)
    rho = project_conf_function(lambda x: np.cos(x), grid, basis)
    e = poisson.solve(rho)
    assert np.all(np.isfinite(e))


def test_non_neutral_raises(setup):
    grid, basis, poisson = setup
    rho = np.zeros((grid.cells[0], basis.num_basis))
    rho[..., 0] = 1.0
    with pytest.raises(ValueError, match="neutral"):
        poisson.solve(rho)


def test_epsilon0_scaling(setup):
    grid, basis, _ = setup
    rho = project_conf_function(lambda x: np.cos(x), grid, basis)
    e1 = Poisson1D(grid, basis, epsilon0=1.0).solve(rho)
    e2 = Poisson1D(grid, basis, epsilon0=2.0).solve(rho)
    assert np.allclose(e1, 2.0 * e2, atol=1e-12)


def test_requires_1d():
    grid = Grid([0.0, 0.0], [1.0, 1.0], [4, 4])
    basis = ModalBasis(2, 1, "serendipity")
    with pytest.raises(ValueError):
        Poisson1D(grid, basis)

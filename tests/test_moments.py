"""Moment kernels: exactness against analytic moments and linearity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis.modal import ModalBasis
from repro.grid import Grid, PhaseGrid
from repro.kernels import get_vlasov_kernels
from repro.moments import MomentCalculator, integrate_conf_field
from repro.projection import project_phase_function


def _cm_shape(num_basis, pg):
    return pg.conf.cells + (num_basis,) + pg.vel.cells


@pytest.fixture(scope="module")
def setup_1x1v():
    pg = PhaseGrid(Grid([0.0], [1.0], [4]), Grid([-8.0], [8.0], [32]))
    kern = get_vlasov_kernels(1, 1, 2, "serendipity")
    mom = MomentCalculator(pg, kern)
    basis = ModalBasis(2, 2, "serendipity")
    return pg, kern, mom, basis


def test_maxwellian_moments(setup_1x1v):
    """Moments of a drifting Maxwellian: n, n*u, n*(u^2 + vth^2)."""
    pg, _, mom, basis = setup_1x1v
    n, u, vth = 2.0, 0.7, 0.9

    def f0(x, v):
        return n * np.exp(-((v - u) ** 2) / (2 * vth ** 2)) / np.sqrt(2 * np.pi * vth ** 2)

    f = project_phase_function(f0, pg, basis)
    m0 = integrate_conf_field(mom.compute("M0", f), pg)
    m1 = integrate_conf_field(mom.compute("M1x", f), pg)
    m2 = integrate_conf_field(mom.compute("M2", f), pg)
    length = 1.0
    assert m0 == pytest.approx(n * length, rel=1e-10)
    assert m1 == pytest.approx(n * u * length, rel=1e-8)
    assert m2 == pytest.approx(n * (u ** 2 + vth ** 2) * length, rel=1e-6)


def test_polynomial_moments_exact(setup_1x1v):
    """For f polynomial in v (within the basis) moments are exact integrals."""
    pg, _, mom, basis = setup_1x1v

    def f0(x, v):
        return 1.0 + 0.25 * v  # linear in v, constant in x

    f = project_phase_function(f0, pg, basis)
    vmax = 8.0
    m0 = integrate_conf_field(mom.compute("M0", f), pg)
    m1 = integrate_conf_field(mom.compute("M1x", f), pg)
    m2 = integrate_conf_field(mom.compute("M2", f), pg)
    assert m0 == pytest.approx(2 * vmax, rel=1e-12)
    assert m1 == pytest.approx(0.25 * (2 * vmax ** 3) / 3, rel=1e-12)
    assert m2 == pytest.approx((2 * vmax ** 3) / 3, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_moment_linearity(a, b):
    pg = PhaseGrid(Grid([0.0], [1.0], [2]), Grid([-2.0], [2.0], [4]))
    kern = get_vlasov_kernels(1, 1, 1, "serendipity")
    mom = MomentCalculator(pg, kern)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(_cm_shape(kern.num_basis, pg))
    g = rng.standard_normal(f.shape)
    for name in ("M0", "M1x", "M2"):
        lhs = mom.compute(name, a * f + b * g)
        rhs = a * mom.compute(name, f) + b * mom.compute(name, g)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_current_density_components():
    pg = PhaseGrid(Grid([0.0], [1.0], [2]), Grid([-2.0, -2.0], [2.0, 2.0], [4, 4]))
    kern = get_vlasov_kernels(1, 2, 1, "serendipity")
    mom = MomentCalculator(pg, kern)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(_cm_shape(kern.num_basis, pg))
    j = mom.current_density(f, charge=-2.0)
    assert j.shape == pg.conf.cells + (3, kern.cfg_basis.num_basis)
    assert np.allclose(j[..., 0, :], -2.0 * mom.compute("M1x", f))
    assert np.allclose(j[..., 1, :], -2.0 * mom.compute("M1y", f))
    assert np.all(j[..., 2, :] == 0)  # no vz in 2V


def test_unknown_moment_raises(setup_1x1v):
    _, _, mom, _ = setup_1x1v
    with pytest.raises(KeyError):
        mom.compute("M3", np.zeros((4, 8, 32)))


@pytest.mark.parametrize(
    "key", [(1, 1, 2), (1, 2, 1), (2, 2, 2), (1, 3, 1)], ids=lambda k: "{}x{}v-p{}".format(*k)
)
@pytest.mark.parametrize("tier", ["cc", "numpy"])
def test_stacked_moments_are_the_single_sweeps(key, tier):
    """One call for every moment returns each moment's bytes."""
    from repro.engine import compiler_config

    cdim, vdim, p = key
    pg = PhaseGrid(
        Grid([0.0] * cdim, [1.0] * cdim, [3, 2][:cdim]),
        Grid([-4.0] * vdim, [3.0] * vdim, [5, 4, 3][:vdim]),
    )
    with compiler_config(tier=tier, cache="off"):
        mom = MomentCalculator(pg, get_vlasov_kernels(cdim, vdim, p, "serendipity"))
        f = np.random.default_rng(3).standard_normal(_cm_shape(mom.kernels.num_basis, pg))
        names = ("M0",) + tuple(f"M1{'xyz'[j]}" for j in range(vdim)) + ("M2",)
        got = mom.sums(names, f).copy()  # (ncfg, len(names), Npc)
        for i, name in enumerate(names):
            assert got[:, i].tobytes() == mom.compute(name, f).tobytes(), name


def test_2x2v_moments_shape():
    pg = PhaseGrid(Grid([0, 0], [1, 1], [3, 2]), Grid([-2, -2], [2, 2], [4, 4]))
    kern = get_vlasov_kernels(2, 2, 1, "serendipity")
    mom = MomentCalculator(pg, kern)
    f = np.ones(_cm_shape(kern.num_basis, pg))
    m0 = mom.compute("M0", f)
    assert m0.shape == (3, 2, kern.cfg_basis.num_basis)

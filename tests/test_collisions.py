"""Collision operators: conservation, relaxation, H-theorem behaviour."""

import numpy as np
import pytest

from repro.basis.modal import ModalBasis
from repro.cas.poly import Poly
from repro.collisions import BGKCollisions, LBOCollisions
from repro.engine import compiler_config
from repro.grid import Grid, PhaseGrid
from repro.kernels import get_vlasov_kernels
from repro.kernels.generator import (
    FluxSpec,
    FluxTerm,
    generate_multiply_termset,
    generate_surface_termsets,
    generate_volume_termset,
)
from repro.kernels.vlasov import _cfg_poly_unnormalized
from repro.moments import MomentCalculator, integrate_conf_field
from repro.projection import project_phase_function


@pytest.fixture(scope="module")
def setup():
    pg = PhaseGrid(Grid([0.0], [1.0], [2]), Grid([-8.0], [8.0], [24]))
    p = 2
    kern = get_vlasov_kernels(1, 1, p, "serendipity")
    mom = MomentCalculator(pg, kern)
    basis = ModalBasis(2, p, "serendipity")

    def f0(x, v):
        return np.exp(-((v - 1.0) ** 2) / 0.5) + 0.5 * np.exp(-((v + 2.0) ** 2) / 0.3)

    f = project_phase_function(f0, pg, basis)
    return pg, p, mom, basis, f


def test_lbo_conserves_density_momentum_energy(setup):
    pg, p, mom, _, f = setup
    lbo = LBOCollisions(pg, p, nu=1.0)
    df = lbo.rhs(f, mom)
    n0 = integrate_conf_field(mom.compute("M0", f), pg)
    e0 = integrate_conf_field(mom.compute("M2", f), pg)
    assert abs(integrate_conf_field(mom.compute("M0", df), pg)) / n0 < 1e-12
    assert abs(integrate_conf_field(mom.compute("M1x", df), pg)) < 1e-12 * n0
    assert abs(integrate_conf_field(mom.compute("M2", df), pg)) / e0 < 1e-12


def test_lbo_maxwellian_residual_converges(setup):
    """C[f_M] -> 0 under velocity refinement (the Maxwellian is the
    continuum equilibrium; the discrete residual is pure truncation)."""

    def residual(nv, p=2):
        pg = PhaseGrid(Grid([0.0], [1.0], [2]), Grid([-8.0], [8.0], [nv]))
        kern = get_vlasov_kernels(1, 1, p, "serendipity")
        mom = MomentCalculator(pg, kern)
        basis = ModalBasis(2, p, "serendipity")

        def fm(x, v):
            return np.exp(-v ** 2 / 2) / np.sqrt(2 * np.pi)

        f = project_phase_function(fm, pg, basis)
        lbo = LBOCollisions(pg, p, nu=1.0)
        df = lbo.rhs(f, mom)
        return np.max(np.abs(df)) / np.max(np.abs(f))

    r_coarse = residual(16)
    r_fine = residual(64)
    assert r_fine < 0.25 * r_coarse  # clear decay under 4x refinement
    assert r_fine < 0.1


def test_lbo_relaxes_toward_maxwellian(setup):
    pg, p, mom, _, f = setup
    lbo = LBOCollisions(pg, p, nu=1.0)
    bgk = BGKCollisions(pg, p, nu=1.0)
    g = f.copy()
    dt = 2e-3
    dist0 = np.max(np.abs(g - bgk.maxwellian_coefficients(g, mom)))
    for _ in range(300):
        g = g + dt * lbo.rhs(g, mom)
    dist1 = np.max(np.abs(g - bgk.maxwellian_coefficients(g, mom)))
    assert dist1 < 0.2 * dist0


def test_lbo_fixed_primitive_moments(setup):
    pg, p, mom, _, f = setup
    npc = 3
    u = np.zeros((1, 2, npc))
    vtsq = np.zeros((2, npc))
    vtsq[..., 0] = np.sqrt(2.0) * 1.0  # vth^2 = 1 as a DG field
    lbo = LBOCollisions(pg, p, nu=0.5, fixed_u=u, fixed_vtsq=vtsq)
    df = lbo.rhs(f, mom)
    assert np.isfinite(df).all()
    n0 = integrate_conf_field(mom.compute("M0", f), pg)
    assert abs(integrate_conf_field(mom.compute("M0", df), pg)) / n0 < 1e-12


def test_lbo_plans_bind_once_and_never_serve_stale_moments(setup, monkeypatch):
    """The LBO keeps one aux dict whose primitive-moment arrays it refreshes
    in place, so every plan binds on first use only — and the bound views
    still track the moments of whichever ``f`` comes next."""
    from repro.engine.plan import ExecutionPlan
    from repro.runtime import Driver, build

    binds = []
    bind = ExecutionPlan._bind

    def counting_bind(self, aux):
        binds.append(self)
        return bind(self, aux)

    monkeypatch.setattr(ExecutionPlan, "_bind", counting_bind)
    Driver(build("collisional_relaxation", nx=2, nv=16, steps=3)).run()
    assert len(binds) > 10 and len(binds) == len({id(plan) for plan in binds})

    pg, p, mom, _, f = setup
    lbo = LBOCollisions(pg, p, nu=0.7)
    for state in (f, 0.5 * f + 0.25 * np.roll(f, 3, axis=-1), f):
        assert np.array_equal(
            lbo.rhs(state, mom), LBOCollisions(pg, p, nu=0.7).rhs(state, mom)
        )


def test_bgk_conservation_to_projection_accuracy(setup):
    pg, p, mom, _, f = setup
    bgk = BGKCollisions(pg, p, nu=2.0)
    df = bgk.rhs(f, mom)
    n0 = integrate_conf_field(mom.compute("M0", f), pg)
    e0 = integrate_conf_field(mom.compute("M2", f), pg)
    assert abs(integrate_conf_field(mom.compute("M0", df), pg)) / n0 < 1e-5
    assert abs(integrate_conf_field(mom.compute("M2", df), pg)) / e0 < 1e-4


def test_bgk_maxwellian_is_fixed_point(setup):
    pg, p, mom, basis, _ = setup

    def fm(x, v):
        return 1.7 * np.exp(-((v - 0.3) ** 2) / 2) / np.sqrt(2 * np.pi)

    f = project_phase_function(fm, pg, basis)
    bgk = BGKCollisions(pg, p, nu=1.0)
    df = bgk.rhs(f, mom)
    assert np.max(np.abs(df)) / np.max(np.abs(f)) < 2e-3


def test_bgk_accumulate_interface(setup):
    pg, p, mom, _, f = setup
    bgk = BGKCollisions(pg, p, nu=1.0)
    base = np.ones_like(f)
    out = base.copy()
    bgk.rhs(f, mom, out=out, accumulate=True)
    assert np.allclose(out - base, bgk.rhs(f, mom), atol=1e-14)


def test_lbo_2v_conservation():
    pg = PhaseGrid(Grid([0.0], [1.0], [2]), Grid([-6.0, -6.0], [6.0, 6.0], [12, 12]))
    p = 1
    kern = get_vlasov_kernels(1, 2, p, "serendipity")
    mom = MomentCalculator(pg, kern)
    basis = ModalBasis(3, p, "serendipity")

    def f0(x, vx, vy):
        return np.exp(-((vx - 1.0) ** 2 + vy ** 2) / 1.5)

    f = project_phase_function(f0, pg, basis)
    lbo = LBOCollisions(pg, p, nu=1.0)
    df = lbo.rhs(f, mom)
    n0 = integrate_conf_field(mom.compute("M0", f), pg)
    assert abs(integrate_conf_field(mom.compute("M0", df), pg)) / n0 < 1e-12
    assert abs(integrate_conf_field(mom.compute("M1x", df), pg)) < 1e-10 * n0
    assert abs(integrate_conf_field(mom.compute("M1y", df), pg)) < 1e-10 * n0


def test_lbo_cfl_frequency_positive(setup):
    pg, p, mom, _, f = setup
    lbo = LBOCollisions(pg, p, nu=3.0)
    # a pure function of the state: no rhs() call has to come first
    freq = lbo.max_frequency(f, mom)
    assert freq > 0
    lbo.rhs(f, mom)
    assert lbo.max_frequency(f, mom) == freq


# --------------------------------------------------------------------- #
# the face-mode LBO against the four-sided form of the same operator
def _four_sided_lbo_rhs(lbo, f, mom):
    """``C[f]`` assembled from the four ``Np x Np`` side kernels
    (``generate_surface_termsets``) through ``TermSet.apply_cm``: per
    velocity direction the drag (central flux) and the two LDG passes
    (right-, then left-biased), each the volume kernel plus, at every
    interior velocity face, the side kernels of both cells on the weighted
    states — every side kernel reading the symbols of the cell whose state
    it takes.  Domain-boundary faces carry no flux."""
    g = lbo.grid
    cdim, vdim, pdim = g.cdim, g.vdim, g.pdim
    cfg, basis = lbo.cfg_basis, lbo.basis
    u, vtsq = lbo.primitive_moments(f, mom)
    aux = g.base_aux()
    aux["nu"] = lbo.nu
    for k in range(cfg.num_basis):
        for j in range(vdim):
            aux[f"u{j}_{k}"] = g.conf_coefficient_array(u[j][..., k])
        aux[f"vtsq_{k}"] = g.conf_coefficient_array(vtsq[..., k])
    cfg_terms = [
        (_cfg_poly_unnormalized(pdim, alpha), cfg.norm(k)) for k, alpha in enumerate(cfg.indices)
    ]

    def cells_of(sl, axis):
        """``aux`` restricted to the cells ``sl`` along cell axis ``axis``."""
        return {
            name: val[(slice(None),) * axis + (sl,)]
            if isinstance(val, np.ndarray) and val.shape[axis] > 1
            else val
            for name, val in aux.items()
        }

    def advect(f, spec, j, weights):
        vol = generate_volume_termset(basis, spec)
        out = np.zeros_like(f)
        vol.apply_cm(f, aux, out, cdim)
        axis = cdim + 1 + j
        cells = {"L": slice(0, -1), "R": slice(1, None)}
        part = {side: (slice(None),) * axis + (sl,) for side, sl in cells.items()}
        state = {side: w * f[part[side]] for side, w in zip("LR", weights)}
        inc = {side: np.zeros_like(state["L"]) for side in "LR"}
        for (cell, read), ts in generate_surface_termsets(basis, spec).items():
            ts.apply_cm(state[read], cells_of(cells[read], cdim + j), inc[cell], cdim)
        for side in "LR":
            out[part[side]] += inc[side]
        return out

    out = np.zeros_like(f)
    for j in range(vdim):
        dv = cdim + j
        drag = FluxSpec(dim=dv, terms=(
            FluxTerm(sym=("nu", f"w{dv}"), poly=Poly.one(pdim), scale=-1.0),
            FluxTerm(sym=("nu", f"half_dxv{dv}"), poly=Poly.variable(pdim, dv), scale=-1.0),
            *(FluxTerm(sym=("nu", f"u{j}_{k}"), poly=poly, scale=norm)
              for k, (poly, norm) in enumerate(cfg_terms)),
        ))
        out += advect(f, drag, j, (0.5, 0.5))
    mult = generate_multiply_termset(
        basis, [FluxTerm(sym=(f"vtsq_{k}",), poly=poly, scale=norm)
                for k, (poly, norm) in enumerate(cfg_terms)],
    )
    for j in range(vdim):
        unit = FluxSpec(dim=cdim + j, terms=(FluxTerm(sym=(), poly=Poly.one(pdim)),))
        grad = -advect(f, unit, j, (0.0, 1.0))
        vg = np.zeros_like(f)
        mult.apply_cm(grad, aux, vg, cdim)
        out -= advect(lbo.nu * vg, unit, j, (1.0, 0.0))
    return out


def _lbo_case(vel_cells, p):
    vdim = len(vel_cells)
    pg = PhaseGrid(Grid([0.0], [1.0], [3]), Grid([-4.0] * vdim, [4.0] * vdim, list(vel_cells)))
    lbo = LBOCollisions(pg, p, nu=0.7)
    mom = MomentCalculator(pg, get_vlasov_kernels(1, vdim, p))
    rng = np.random.default_rng(11)
    f = 0.05 * rng.standard_normal(pg.conf.cells + (lbo.basis.num_basis,) + pg.vel.cells)
    f[:, 0] += 1.0  # positive density for the weak division
    return lbo, mom, f


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("vel_cells", [(6,), (5, 4)], ids=["1x1v", "1x2v"])
def test_lbo_rhs_matches_the_four_sided_reference(vel_cells, p):
    lbo, mom, f = _lbo_case(vel_cells, p)
    want = _four_sided_lbo_rhs(lbo, f, mom)
    got = lbo.rhs(f, mom)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("vel_cells", [(6,), (5, 4)], ids=["1x1v", "1x2v"])
def test_lbo_rhs_is_byte_equal_across_kernel_tiers(vel_cells):
    outs = []
    for tier in ("cc", "numpy"):
        with compiler_config(tier=tier, cache="off"):
            lbo, mom, f = _lbo_case(vel_cells, 2)
            outs.append(lbo.rhs(f, mom).tobytes())
    assert outs[0] == outs[1]

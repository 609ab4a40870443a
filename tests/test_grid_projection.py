"""Grids, phase-space layout, and L2 projection."""

import tracemalloc
import warnings

import numpy as np
import pytest

from repro import projection
from repro.basis.modal import ModalBasis, tensor_gauss_points
from repro.cas import codegen
from repro.cas.codegen import cc_available
from repro.engine.compile import compiler_config, plan_counts
from repro.grid import Grid, PhaseGrid
from repro.obs import OBS
from repro.projection import project_on_grid, project_phase_function
from repro.runtime.profiles import (
    CONF_PROFILES,
    PHASE_PROFILES,
    build_conf_profile,
    build_phase_profile,
)

needs_cc = pytest.mark.skipif(cc_available() is None, reason="no C compiler")
TIERS = ["numpy", pytest.param("cc", marks=needs_cc)]


def test_grid_basics():
    g = Grid([0.0, -1.0], [2.0, 1.0], [4, 8])
    assert g.ndim == 2
    assert g.num_cells == 32
    assert g.dx == (0.5, 0.25)
    assert np.allclose(g.centers(0), [0.25, 0.75, 1.25, 1.75])


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid([0.0], [0.0], [4])
    with pytest.raises(ValueError):
        Grid([0.0], [1.0], [0])
    with pytest.raises(ValueError):
        Grid([0.0, 0.0], [1.0], [4])


def test_grid_extend_and_refine():
    a = Grid([0.0], [1.0], [4])
    b = Grid([-2.0], [2.0], [8])
    ab = a.extend(b)
    assert ab.ndim == 2
    assert ab.cells == (4, 8)


def test_phase_grid_layout():
    pg = PhaseGrid(Grid([0.0], [1.0], [3]), Grid([-2.0], [2.0], [4]))
    assert pg.cdim == 1 and pg.vdim == 1 and pg.pdim == 2
    assert pg.cells == (3, 4)
    w = pg.velocity_center_array(0)
    assert w.shape == (1, 4)
    assert np.allclose(w.ravel(), [-1.5, -0.5, 0.5, 1.5])
    aux = pg.base_aux()
    assert aux["rdx0"] == pytest.approx(2.0 / (1.0 / 3.0))
    assert aux["half_dxv1"] == pytest.approx(0.5)


def test_conf_coefficient_array_shape():
    pg = PhaseGrid(Grid([0.0, 0.0], [1.0, 1.0], [3, 2]), Grid([-1.0], [1.0], [4]))
    arr = pg.conf_coefficient_array(np.ones((3, 2)))
    assert arr.shape == (3, 2, 1)
    with pytest.raises(ValueError):
        pg.conf_coefficient_array(np.ones((2, 3)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_projection_exact_for_polynomials(p):
    """L2 projection reproduces any function inside the space exactly."""
    grid = Grid([0.0], [2.0], [5])
    basis = ModalBasis(1, p, "serendipity")

    def func(x):
        return 1.0 + x + (x ** p) * 0.5

    coeffs = project_on_grid(func, grid, basis)
    # evaluate back at cell centers
    pts = np.zeros((1, 1))
    v = basis.eval_at(pts)  # basis at cell-center reference point
    centers = grid.centers(0)
    recon = np.einsum("l,lx->x", v[:, 0], coeffs)
    assert np.allclose(recon, func(centers), atol=1e-12)


def test_projection_convergence_rate():
    """Non-polynomial data: projection error drops at order p+1."""
    basis = ModalBasis(1, 2, "serendipity")

    def func(x):
        return np.sin(2 * np.pi * x)

    errs = []
    for n in (8, 16, 32):
        grid = Grid([0.0], [1.0], [n])
        coeffs = project_on_grid(func, grid, basis)
        # L2 error via fine quadrature
        from repro.basis.modal import tensor_gauss_points

        pts, wts = tensor_gauss_points(6, 1)
        v = basis.eval_at(pts)
        centers = grid.centers(0)
        xq = centers[:, None] + 0.5 * grid.dx[0] * pts[:, 0][None, :]
        recon = np.einsum("lq,lx->xq", v, coeffs)
        err = np.sqrt(np.sum(wts * (recon - func(xq)) ** 2) * 0.5 * grid.dx[0])
        errs.append(err)
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(3.0, abs=0.4)


def test_phase_projection_shape():
    pg = PhaseGrid(Grid([0.0], [1.0], [3]), Grid([-2.0], [2.0], [4]))
    basis = ModalBasis(2, 1, "serendipity")
    f = project_phase_function(lambda x, v: np.exp(-v ** 2), pg, basis)
    assert f.shape == (3, 4, 4)
    assert np.isfinite(f).all()


# --------------------------------------------------------------------- #
# the projection's bits: both tiers against the per-point numpy loop


def reference_projection(fn, grid, basis, quad_order=None, basis_axis=0):
    """The per-point loop every tier must reproduce byte for byte: one
    state-sized product per Gauss point, added into a zeroed output."""
    nq = quad_order if quad_order is not None else basis.poly_order + 3
    pts, wts = tensor_gauss_points(nq, grid.ndim)
    vander = basis.eval_at(pts)
    centers = np.meshgrid(
        *(grid.centers(d) for d in range(grid.ndim)), indexing="ij"
    )
    half_dx = [0.5 * dx for dx in grid.dx]
    ba = basis_axis
    cells = grid.cells
    out = np.zeros(cells[:ba] + (basis.num_basis,) + cells[ba:])
    vshape = (1,) * ba + (-1,) + (1,) * (grid.ndim - ba)
    for q in range(pts.shape[0]):
        coords = [centers[d] + half_dx[d] * pts[q, d] for d in range(grid.ndim)]
        vals = np.asarray(fn(*coords), dtype=float)
        if vals.shape != cells:
            vals = np.broadcast_to(vals, cells)
        vals_b = vals.reshape(cells[:ba] + (1,) + cells[ba:])
        out += wts[q] * vander[:, q].reshape(vshape) * vals_b
    return out


#: (cdim, vdim) -> the phase grid the projection runs on, as one Grid
LAYOUTS = {
    (1, 1): ([0.0, -3.0], [2.0, 3.0], [5, 7]),
    (1, 2): ([0.0, -3.0, -2.0], [2.0, 3.0, 2.0], [3, 4, 5]),
    (2, 2): ([0.0, 0.0, -3.0, -2.0], [2.0, 1.0, 3.0, 2.0], [2, 3, 3, 4]),
}


def _wavy(*xs):
    """Non-polynomial data of both signs, coupling every coordinate."""
    phase = sum((d + 1) * x for d, x in enumerate(xs[:-1]))
    return np.cos(phase + 0.3) * np.exp(-xs[-1] ** 2) - 0.1 * xs[-1]


def _project(tier, fn, grid, basis, quad_order, basis_axis):
    with compiler_config(tier=tier, cache="off"):
        # the tier under test is the one that runs
        assert (projection._compiled_accumulate() is not None) == (tier == "cc")
        return project_on_grid(fn, grid, basis, quad_order, basis_axis)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dims", sorted(LAYOUTS), ids=lambda d: "%dX%dV" % d)
def test_projection_bits_equal_the_per_point_loop(tier, dims, p):
    grid = Grid(*LAYOUTS[dims])
    basis = ModalBasis(grid.ndim, p, "serendipity")
    cdim = dims[0]
    for basis_axis in (0, cdim, grid.ndim):
        for quad_order in (None, p + 1):
            want = reference_projection(_wavy, grid, basis, quad_order, basis_axis)
            got = _project(tier, _wavy, grid, basis, quad_order, basis_axis)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (basis_axis, quad_order)


@pytest.mark.parametrize("tier", TIERS)
def test_projection_broadcasts_lower_rank_values(tier):
    grid = Grid(*LAYOUTS[(1, 2)])
    basis = ModalBasis(3, 2, "serendipity")
    for fn in (
        lambda x, vx, vy: np.exp(-vy[0, 0] ** 2),  # (nvy,): the last axis
        lambda x, vx, vy: 1.5,  # a scalar
    ):
        for basis_axis in (0, 1, 3):
            want = reference_projection(fn, grid, basis, None, basis_axis)
            got = _project(tier, fn, grid, basis, None, basis_axis)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tier", TIERS)
def test_registry_profiles_project_to_the_per_point_bits(tier):
    """Every registered profile kind sees the projection's broadcastable
    coordinates and ends in the bytes of the dense per-point loop."""
    cdim, vdim = 2, 2
    grid = Grid(*LAYOUTS[(cdim, vdim)])
    pert = {"amp": 0.05, "k": 1.5, "axis": 1, "phase": 0.2}
    phase = [
        {"kind": "maxwellian", "vt": 0.7, "drift": [0.3, -0.2],
         "perturbation": pert},
        {"kind": "counter_beams", "drift": 0.8, "vt": 0.4, "axis": 1,
         "perturbation": pert},
    ]
    fns = [(build_phase_profile(s, cdim, vdim), grid, cdim) for s in phase]
    grid_1x1v = Grid(*LAYOUTS[(1, 1)])
    bump = {"kind": "bump_on_tail", "perturbation": {"amp": 0.1, "k": 2.0}}
    fns.append((build_phase_profile(bump, 1, 1), grid_1x1v, 1))
    conf = Grid([0.0, 0.0], [2.0, 1.0], [4, 3])
    for spec in (
        {"kind": "constant", "value": -0.4},
        {"kind": "cosine", "amp": 0.3, "k": 2.0, "axis": 1, "offset": 1.0},
        {"kind": "sine", "amp": -0.5, "k": 3.0, "phase": 0.1},
    ):
        fns.append((build_conf_profile(spec, 2), conf, 2))
    assert {PHASE_PROFILES[s["kind"]] for s in phase + [bump]} == set(
        PHASE_PROFILES.values())
    assert len(fns) == len(PHASE_PROFILES) + len(CONF_PROFILES)
    for fn, g, g_cdim in fns:
        basis = ModalBasis(g.ndim, 2, "serendipity")
        for basis_axis in (0, g_cdim):
            want = reference_projection(fn, g, basis, None, basis_axis)
            got = _project(tier, fn, g, basis, None, basis_axis)
            assert got.tobytes() == want.tobytes(), (fn, basis_axis)


def test_the_integrand_sees_the_grid_axes_not_its_volume():
    """Coordinate ``d`` spans the grid along axis ``d`` only: size 1 off
    its own axis."""
    grid = Grid(*LAYOUTS[(2, 2)])
    basis = ModalBasis(grid.ndim, 1, "serendipity")
    shapes = set()

    def fn(*xs):
        shapes.add(tuple(x.shape for x in xs))
        return _wavy(*xs)

    project_on_grid(fn, grid, basis)
    eye = np.eye(grid.ndim, dtype=int)
    assert shapes == {
        tuple(tuple(n if e else 1 for n, e in zip(grid.cells, row)) for row in eye)
    }


@needs_cc
@pytest.mark.parametrize("threads", ["1", "2", "3", "ncfg", "2ncfg+1"])
def test_threaded_accumulate_keeps_the_bits(monkeypatch, threads):
    """``project_accumulate`` split over any thread count — one per CPU
    or not, at most one per configuration cell (the kernel clamps it) —
    ends in the per-point bytes."""
    grid = Grid(*LAYOUTS[(2, 2)])
    basis = ModalBasis(grid.ndim, 2, "serendipity")
    cdim = 2
    ncfg = grid.cells[0] * grid.cells[1]
    n = {"ncfg": ncfg, "2ncfg+1": 2 * ncfg + 1}.get(threads) or int(threads)
    asked = []

    def forced(cells, work):
        asked.append(cells)
        return n

    monkeypatch.setattr(projection, "cell_threads", forced)
    for basis_axis in (0, cdim):
        want = reference_projection(_wavy, grid, basis, None, basis_axis)
        got = _project("cc", _wavy, grid, basis, None, basis_axis)
        assert got.tobytes() == want.tobytes(), basis_axis
    assert asked == [1, ncfg]  # split over configuration cells


@pytest.mark.parametrize("tier", TIERS)
def test_zero_data_projects_to_positive_zero(tier):
    """The output starts at +0.0 and +0.0 + -0.0 is +0.0: zero data, of
    either sign, projects to all-+0.0 bytes."""
    grid = Grid(*LAYOUTS[(1, 1)])
    basis = ModalBasis(2, 2, "serendipity")
    for zero in (0.0, -0.0):
        got = _project(tier, lambda x, v: np.full_like(x, zero), grid, basis, None, 1)
        assert got.tobytes() == np.zeros_like(got).tobytes()


def test_no_compiler_falls_back_silently(monkeypatch):
    grid = Grid(*LAYOUTS[(1, 2)])
    basis = ModalBasis(3, 2, "serendipity")
    want = reference_projection(_wavy, grid, basis, None, 1)
    monkeypatch.setattr(codegen, "cc_available", lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with compiler_config(tier="cc", cache="off"):
            assert projection._compiled_accumulate() is None
            got = project_on_grid(_wavy, grid, basis, None, 1)
    assert got.tobytes() == want.tobytes()


@needs_cc
def test_projection_counts_no_kernel_and_leaves_the_build_to_a_plan(
    monkeypatch, tmp_path
):
    """The projection touches no plan counter; when it is what built the
    shared object, the first plan to load it still reads it as built, and a
    forked child, which only inherited it, never does."""
    monkeypatch.setattr(codegen, "_LOADED_KERNELS", {})
    grid = Grid(*LAYOUTS[(1, 1)])
    basis = ModalBasis(2, 1, "serendipity")
    before = plan_counts(OBS.metrics.snapshot())
    with compiler_config(tier="cc", cache=str(tmp_path)):
        project_phase_function(_wavy, PhaseGrid(
            Grid([0.0], [2.0], [5]), Grid([-3.0], [3.0], [7])), basis)
    assert plan_counts(OBS.metrics.snapshot()) == before
    assert list(tmp_path.glob("ccsweep-*.so"))
    (key, kern), = codegen._LOADED_KERNELS.items()
    assert kern.fresh  # unclaimed
    codegen._inherited_kernels_are_not_fresh()  # what a fork runs in the child
    assert not codegen._LOADED_KERNELS[key].fresh
    codegen._LOADED_KERNELS[key] = kern
    assert codegen.compile_fused_sweep(str(tmp_path)).fresh  # the plan's claim
    assert not codegen.compile_fused_sweep(str(tmp_path)).fresh


@needs_cc
def test_projection_scratch_is_bounded():
    """At the ``weibel_2x2v`` size (6x6 configuration, 14x14 velocity
    cells, p = 2: 625 Gauss points) the projection holds one block of
    integrand values besides its output, never all 625 points (about 14x
    the output)."""
    pg = PhaseGrid(
        Grid([0.0, 0.0], [4.0, 4.0], [6, 6]),
        Grid([-1.0, -1.0], [1.0, 1.0], [14, 14]),
    )
    basis = ModalBasis(4, 2, "serendipity")

    def beams(x, y, vx, vy):
        return np.exp(-((vx - 0.3) ** 2 + vy ** 2) / 0.02) * (1.0 + 1e-3 * np.cos(y))

    with compiler_config(tier="cc", cache="off"):
        assert projection._compiled_accumulate() is not None  # built, loaded
        tracemalloc.start()
        try:
            out = project_phase_function(beams, pg, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.shape == (6, 6, 48, 14, 14)
    assert peak <= 2 * out.nbytes, peak / out.nbytes

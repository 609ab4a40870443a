"""Cell-major layout invariants.

The cell-major layout is held to three contracts:

1. **Exactness** — the plan engine reproduces, to <= 2e-15, the sparse
   reference evaluator ``TermSet.apply_cm`` over randomized termsets, and the
   face-space solver reproduces the four-sided form of the whole right-hand
   side (the paper's Fig. 1 update: volume kernels plus the
   ``kernels.flops.four_sided_kernels`` termsets of both cells at every face,
   assembled below through ``TermSet.apply_cm``);
2. **Copy-freedom** — the steady-state RHS performs no layout-normalizing
   copy of full phase-space state (asserted via ``ScratchPool.copy_debug``);
3. **Halo invariant** — the sharded halo traffic still matches the Fig. 3
   model while moving contiguous slabs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ScratchPool, StateLayout
from repro.engine.layout import insert_basis_axis, phase_to_cell_major, phase_to_mode_major
from repro.grid import Grid, PhaseGrid
from repro.kernels.flops import four_sided_kernels
from repro.kernels.grouped import GroupedOperator
from repro.kernels.termset import TermSet
from repro.vlasov.modal_solver import VlasovModalSolver

pytestmark = pytest.mark.layout


# --------------------------------------------------------------------- #
# StateLayout basics
# --------------------------------------------------------------------- #
def test_state_layout_shapes_and_views():
    pg = PhaseGrid(Grid([0.0, 0.0], [1.0, 1.0], [3, 2]), Grid([-1.0], [1.0], [5]))
    lay = StateLayout.for_grid(pg, num_basis=7)
    assert lay.shape == (3, 2, 7, 5)
    assert lay.basis_axis == 2
    assert lay.ncfg == 6 and lay.nvel == 5
    assert lay.axis_of(0) == 0 and lay.axis_of(2) == 3
    arr = lay.alloc()
    assert arr.shape == lay.shape
    v3 = lay.as3d(arr)
    assert v3.shape == (6, 7, 5) and v3.base is arr
    mv = lay.mode_view(arr)
    assert mv.shape == (7, 3, 2, 5) and mv.base is arr  # a view, not a copy


def test_layout_conversions_roundtrip():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((7, 3, 2, 5))  # mode-major
    f_cm = phase_to_cell_major(f, 2)
    assert f_cm.shape == (3, 2, 7, 5) and f_cm.flags.c_contiguous
    assert np.array_equal(phase_to_mode_major(f_cm, 2), f)


# --------------------------------------------------------------------- #
# 1. exactness vs the reference evaluator and the four-sided update
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), cdim=st.integers(1, 2), vdim=st.integers(1, 2))
def test_plan_matches_termset_apply_cm(seed, cdim, vdim):
    """Randomized termsets: the compiled plan equals the term-by-term sparse
    evaluator ``TermSet.apply_cm`` to <= 2e-15."""
    rng = np.random.default_rng(seed)
    cfg_shape = tuple(rng.integers(1, 4, size=cdim))
    vel_shape = tuple(rng.integers(1, 4, size=vdim))
    nout = nin = int(rng.integers(3, 7))
    kinds = ["scalar", "cfg", "vel"]
    names_kinds = {
        f"a{i}": kinds[rng.integers(0, 3)] for i in range(rng.integers(1, 5))
    }
    aux = {}
    for n, k in names_kinds.items():
        if k == "scalar":
            aux[n] = float(rng.standard_normal())
        elif k == "cfg":
            aux[n] = rng.standard_normal(cfg_shape + (1,) * vdim)
        else:
            aux[n] = rng.standard_normal((1,) * cdim + vel_shape)
    # unique (l, m) slots per symbol, as generated kernels have them
    slots = {}
    for _ in range(int(rng.integers(1, 6))):
        sym = tuple(rng.choice(list(names_kinds), size=rng.integers(0, 3)))
        per_sym = slots.setdefault(sym, {})
        for _ in range(int(rng.integers(1, 6))):
            per_sym[(int(rng.integers(0, nout)), int(rng.integers(0, nin)))] = float(
                rng.standard_normal()
            )
    entries = {
        sym: [(l, m, c) for (l, m), c in per_sym.items()]
        for sym, per_sym in slots.items()
    }
    ts = TermSet(nout, nin, entries)

    f = rng.standard_normal(cfg_shape + (nin,) + vel_shape)
    ref = np.zeros(cfg_shape + (nout,) + vel_shape)
    ts.apply_cm(f, aux, ref, cdim)
    got = np.zeros_like(ref)
    GroupedOperator(ts, cdim, vdim).apply(f, aux, got)
    scale = max(float(np.max(np.abs(ref))), 1.0)
    assert np.max(np.abs(got - ref)) / scale <= 2e-15


def _four_sided_rhs(solver, f, em):
    """The whole Vlasov right-hand side in the four-sided form of the paper's
    Fig. 1: every volume kernel, then at every face the surface kernels of
    both adjacent cells — ``four_sided_kernels(kernels)[..][d][(cell updated,
    cell read)]`` — on the numerical-flux state.  That state is upwinded with the solver's
    weights in configuration space (periodic) and averaged in velocity space
    (zero flux through the velocity boundary)."""
    cdim, vdim = solver.grid.cdim, solver.grid.vdim
    kern, aux = solver.kernels, solver.field_aux(em)
    surf_stream, surf_accel = four_sided_kernels(kern)

    def faces(sides, f_left, f_right):
        inc = {"L": np.zeros_like(f_left), "R": np.zeros_like(f_left)}
        for (cell, read), ts in sides.items():
            ts.apply_cm(f_left if read == "L" else f_right, aux, inc[cell], cdim)
        return inc["L"], inc["R"]

    out = np.zeros_like(f)
    for ts in kern.vol_stream + kern.vol_accel:
        ts.apply_cm(f, aux, out, cdim)
    for d in range(cdim):  # face between cell i ("L") and cell i + 1 ("R")
        pos = insert_basis_axis(solver._upwind_pos[d], cdim)
        inc_left, inc_right = faces(
            surf_stream[d], f * pos, np.roll(f, -1, axis=d) * (1.0 - pos)
        )
        out += inc_left + np.roll(inc_right, 1, axis=d)
    for d in range(vdim):
        axis = cdim + 1 + d
        lo = (slice(None),) * axis + (slice(0, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        inc_left, inc_right = faces(surf_accel[d], 0.5 * f[lo], 0.5 * f[hi])
        out[lo] += inc_left
        out[hi] += inc_right
    return out


@pytest.mark.parametrize("cdim,vdim,p", [(1, 1, 2), (1, 2, 1), (2, 2, 1)])
def test_solver_rhs_matches_four_sided_reference(cdim, vdim, p, rng):
    """Full Vlasov RHS: the face-space solver (trace -> flux -> lift in the
    cell program) vs the four-sided surface kernels it replaced."""
    conf = Grid([0.0] * cdim, [1.0] * cdim, [3] * cdim)
    vel = Grid([-2.0] * vdim, [2.0] * vdim, [4] * vdim)
    solver = VlasovModalSolver(PhaseGrid(conf, vel), p, "serendipity")
    f = rng.standard_normal(solver.layout.shape)
    em = rng.standard_normal(conf.cells + (8, solver.num_conf_basis))
    ref = _four_sided_rhs(solver, f, em)
    got = solver.rhs(f, em)
    scale = max(float(np.max(np.abs(ref))), 1.0)
    assert np.max(np.abs(got - ref)) / scale <= 2e-15


# --------------------------------------------------------------------- #
# 2. no layout-normalizing copies in the steady-state RHS
# --------------------------------------------------------------------- #
def test_rhs_hot_path_is_copy_free(rng):
    """With ``copy_debug`` armed on the solver pool, repeated steady-state
    RHS evaluations must never stage a layout-normalizing copy of full
    phase-space state (the acceptance assertion of the refactor)."""
    pg = PhaseGrid(
        Grid([0.0, 0.0], [1.0, 1.0], [3, 3]),
        Grid([-2.0, -2.0], [2.0, 2.0], [4, 4]),
    )
    solver = VlasovModalSolver(pg, 1, "serendipity")
    f = rng.standard_normal(solver.layout.shape)
    em = rng.standard_normal(pg.conf.cells + (8, solver.num_conf_basis))
    out = np.empty_like(f)
    solver.rhs(f, em, out)  # compile plans
    solver.pool.copy_debug = True
    for _ in range(3):
        solver.rhs(f, em, out)  # raises on any normalizing copy
    assert solver.pool.layout_copies == 0


def test_coupled_app_rhs_is_copy_free():
    """The full coupled (multi-solver) RHS is copy-free too, through the
    runtime-built app on a real scenario."""
    from repro.runtime import build, build_app

    app = build_app(build("weibel_2x2v", nx=4, nv=6, steps=1))
    state = app.state()
    out = {k: np.empty_like(v) for k, v in state.items()}
    app.rhs(state, out=out)  # compile every plan
    pools = [app.solvers[sp.name].pool for sp in app.species]
    for pool in pools:
        pool.copy_debug = True
    for _ in range(2):
        app.rhs(state, out=out)
    assert all(pool.layout_copies == 0 for pool in pools)


def test_scratch_pool_copy_audit():
    pool = ScratchPool()
    pool.record_layout_copy("x", (2, 2))
    assert pool.layout_copies == 1
    pool.copy_debug = True
    with pytest.raises(RuntimeError, match="layout-normalizing"):
        pool.record_layout_copy("x", (2, 2))


# --------------------------------------------------------------------- #
# 3. sharded halos: contiguous slabs, Fig. 3 traffic unchanged
# --------------------------------------------------------------------- #
@pytest.mark.shard
def test_sharded_cellmajor_halo_bytes_match_fig3_model():
    """Cell-major halo slabs are contiguous memory spans AND the measured
    traffic still equals the Fig. 3 model (the layout moves the same
    doubles, just without strided gathers)."""
    from repro.dist import ShardPlan
    from repro.runtime import build
    from repro.runtime.driver import build_app

    spec = build(
        "two_stream", nx=12, nv=8, poly_order=1, steps=2,
        **{"backend": "process:3"},
    )
    app = build_app(spec)
    try:
        # the shard's slab of the shared cell-major state is contiguous
        plan = app.plan
        shared_f = app.f[app.species[0].name]
        lo, hi = plan.ranges(1)[0]
        assert shared_f[lo:hi].flags.c_contiguous
        ghost = shared_f[(lo - 1) % shared_f.shape[0]]
        assert ghost.flags.c_contiguous  # each ghost slab is one memcpy span
        drv_steps = spec.steps
        for _ in range(drv_steps):
            app.step()
        halo = app.halo_stats
        npb = app.solvers[app.species[0].name].num_basis
        model = plan.model_halo_doubles(npb, (8,))
        stages = 3  # SSP-RK3
        assert halo["f"]["doubles"] == model * stages * drv_steps
    finally:
        app.close()

"""The precompiled execution engine must reproduce the sparse ``TermSet``
reference exactly — across random termsets, phase splits and aux layouts —
and must recompile (not silently reuse) plans when the aux signature
changes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ExecutionPlan,
    PlanSignatureError,
    ScratchPool,
    aux_signature,
    classify_aux_value,
    plan_counts,
)
from repro.kernels.grouped import GroupedOperator
from repro.kernels.termset import TermSet, merge_termsets, stack_termsets
from repro.obs import OBS
from layout_oracle import phase_to_cell_major, phase_to_mode_major

KINDS = ("scalar", "const", "cfg", "vel", "mixed")


def plans_built() -> int:
    """Plans compiled (or hydrated from the disk cache) so far in this
    process, as the ``repro.obs`` registry counts them."""
    counts = plan_counts(OBS.metrics.snapshot())
    return counts["compiled"] + counts["hydrated"]


def _make_aux(names_kinds, cdim, vdim, cfg_shape, vel_shape, rng):
    aux = {}
    for name, kind in names_kinds.items():
        if kind == "scalar":
            aux[name] = float(rng.standard_normal())
        elif kind == "const":
            aux[name] = np.full((1,) * (cdim + vdim), float(rng.standard_normal()))
        elif kind == "cfg":
            aux[name] = rng.standard_normal(cfg_shape + (1,) * vdim)
        elif kind == "vel":
            aux[name] = rng.standard_normal((1,) * cdim + vel_shape)
        else:  # mixed: varies on both cell groups -> refused
            aux[name] = rng.standard_normal(cfg_shape + vel_shape)
    return aux


def _random_termset(n, nout, nin, names, rng):
    entries = {}
    for _ in range(n):
        sym = tuple(rng.choice(names, size=rng.integers(0, 3)))
        triples = entries.setdefault(sym, [])
        for _ in range(rng.integers(1, 6)):
            triples.append(
                (int(rng.integers(0, nout)), int(rng.integers(0, nin)),
                 float(rng.standard_normal()))
            )
    return TermSet(nout, nin, entries)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    cdim=st.integers(1, 2),
    vdim=st.integers(1, 2),
    accumulate=st.booleans(),
)
def test_plan_matches_sparse_reference(seed, cdim, vdim, accumulate, run_op):
    """Randomized termsets: the planned/batched path equals ``TermSet.apply``
    to tight tolerance for every scalar/config/velocity aux mix; a symbol
    irregular in the mix is refused by name."""
    rng = np.random.default_rng(seed)
    cfg_shape = tuple(rng.integers(1, 4, size=cdim))
    vel_shape = tuple(rng.integers(2, 4, size=vdim))
    nout, nin = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    names_kinds = {
        f"a{i}": KINDS[rng.integers(0, len(KINDS))] for i in range(rng.integers(1, 6))
    }
    ts = _random_termset(int(rng.integers(1, 6)), nout, nin, list(names_kinds), rng)
    aux = _make_aux(names_kinds, cdim, vdim, cfg_shape, vel_shape, rng)
    f = rng.standard_normal((nin,) + cfg_shape + vel_shape)
    used = sorted({n for sym in ts.entries_by_symbol() for n in sym})
    irregular = [n for n in used if classify_aux_value(aux[n], cdim, vdim) == "x"]
    if irregular:
        with pytest.raises(PlanSignatureError, match=f"'{irregular[0]}'"):
            run_op(
                GroupedOperator(ts, cdim, vdim), phase_to_cell_major(f, cdim), aux,
                np.zeros(cfg_shape + (nout,) + vel_shape),
            )
        return

    ref = np.zeros((nout,) + cfg_shape + vel_shape)
    ts.apply(f, aux, ref)

    # the plan path consumes/produces the canonical cell-major layout
    f_cm = phase_to_cell_major(f, cdim)
    op = GroupedOperator(ts, cdim, vdim)
    built = plans_built()
    base = rng.standard_normal(phase_to_cell_major(ref, cdim).shape)
    got = base.copy()
    run_op(op, f_cm, aux, got, accumulate=accumulate)
    ref_cm = phase_to_cell_major(ref, cdim)
    expected = base + ref_cm if accumulate else ref_cm
    scale = max(np.max(np.abs(expected)), 1.0)
    assert np.max(np.abs(got - expected)) / scale < 1e-12

    # plan reuse with fresh values under the same signature stays exact
    aux2 = _make_aux(names_kinds, cdim, vdim, cfg_shape, vel_shape, rng)
    f2 = rng.standard_normal(f.shape)
    ref2 = np.zeros_like(ref)
    ts.apply(f2, aux2, ref2)
    got2 = np.zeros_like(ref_cm)
    run_op(op, phase_to_cell_major(f2, cdim), aux2, got2)
    assert plans_built() - built == 1
    scale2 = max(np.max(np.abs(ref2)), 1.0)
    assert np.max(np.abs(phase_to_mode_major(got2, cdim) - ref2)) / scale2 < 1e-12


# --------------------------------------------------------------------- #
def test_stale_plan_invalidated_on_signature_change(run_op):
    """The historical hazard: a plan built from the first aux dict must not
    be silently reused when a later aux changes layout — and a layout no
    plan sweeps is refused, not run."""
    ts = TermSet(3, 3, {("e",): [(0, 1, 2.0), (2, 0, -1.0)], (): [(1, 1, 1.0)]})
    op = GroupedOperator(ts, cdim=1, vdim=1)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 4, 5))
    f_cm = phase_to_cell_major(f, 1)
    built = plans_built()

    for e_val in (
        1.5,                                   # scalar
        rng.standard_normal((4, 1)),           # configuration-varying
        rng.standard_normal((1, 5)),           # velocity-varying
        rng.standard_normal((4, 5)),           # mixed -> refused
        -0.25,                                 # back to scalar
    ):
        aux = {"e": e_val}
        got = np.zeros_like(f_cm)
        if classify_aux_value(e_val, 1, 1) == "x":
            with pytest.raises(PlanSignatureError, match="'e'"):
                run_op(op, f_cm, aux, got)
            continue
        ref = np.zeros_like(f)
        ts.apply(f, aux, ref)
        run_op(op, f_cm, aux, got)
        assert np.allclose(
            phase_to_mode_major(got, 1), ref, rtol=1e-13, atol=1e-13
        ), f"e={e_val!r}"
    assert plans_built() - built == 3  # scalar signature compiled once, then reused


def test_plan_cache_per_cell_shape(run_op):
    ts = TermSet(2, 2, {("w",): [(0, 0, 1.0), (1, 1, 0.5)]})
    op = GroupedOperator(ts, cdim=1, vdim=1)
    rng = np.random.default_rng(3)
    aux = {"w": rng.standard_normal((1, 6))}
    built = plans_built()
    for ncfg in (2, 3):
        f = rng.standard_normal((2, ncfg, 6))
        ref = np.zeros_like(f)
        ts.apply(f, aux, ref)
        got = np.zeros((ncfg, 2, 6))
        run_op(op, phase_to_cell_major(f, 1), aux, got)
        assert np.allclose(got, phase_to_cell_major(ref, 1), atol=1e-14)
    assert plans_built() - built == 2


def test_plan_surface_snapshot():
    """One way to run a plan: ``bind`` then ``run`` / ``run_faces`` (or
    ``refresh`` before a compiled call); the operator only finds the plan.
    A new entry point is a reviewed edit of this list."""

    def public(cls):
        return sorted(name for name in vars(cls) if not name.startswith("_"))

    assert public(ExecutionPlan) == [
        "bind", "from_artifacts", "obs_label", "refresh", "run", "run_faces",
        "to_artifacts",
    ]
    assert public(GroupedOperator) == ["plan_for"]


def test_aux_signature_missing_symbol_message():
    with pytest.raises(KeyError, match="kernel symbol 'qm'"):
        aux_signature(["qm"], {}, 1, 1)


def test_classify_aux_value():
    assert classify_aux_value(1.0, 1, 1) == "s"
    assert classify_aux_value(np.float64(2.0), 1, 1) == "s"
    assert classify_aux_value(np.ones((1, 1)), 1, 1) == "s"
    assert classify_aux_value(np.ones((3, 1)), 1, 1) == "c"
    assert classify_aux_value(np.ones((1, 3)), 1, 1) == "v"
    assert classify_aux_value(np.ones((3, 3)), 1, 1) == "x"
    assert classify_aux_value(np.ones(3), 1, 1) == "x"  # wrong rank


# --------------------------------------------------------------------- #
def test_merge_termsets_equals_sequential_application():
    rng = np.random.default_rng(11)
    names = ["s", "w"]
    ts_a = _random_termset(3, 4, 4, names, rng)
    ts_b = _random_termset(2, 4, 4, names, rng)
    merged = merge_termsets([ts_a, ts_b])
    aux = {"s": 1.3, "w": rng.standard_normal((1, 5))}
    f = rng.standard_normal((4, 3, 5))
    ref = np.zeros_like(f)
    ts_a.apply(f, aux, ref)
    ts_b.apply(f, aux, ref)
    got = np.zeros_like(f)
    merged.apply(f, aux, got)
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)


def test_stack_termsets_concatenates_outputs():
    rng = np.random.default_rng(12)
    ts_a = _random_termset(2, 3, 4, ["s"], rng)
    ts_b = _random_termset(2, 2, 4, ["s"], rng)
    stacked = stack_termsets([ts_a, ts_b])
    assert (stacked.nout, stacked.nin) == (5, 4)
    aux = {"s": -0.7}
    f = rng.standard_normal((4, 6))
    ref_a = np.zeros((3, 6))
    ts_a.apply(f, aux, ref_a)
    ref_b = np.zeros((2, 6))
    ts_b.apply(f, aux, ref_b)
    got = np.zeros((5, 6))
    stacked.apply(f, aux, got)
    assert np.allclose(got, np.concatenate([ref_a, ref_b]), atol=1e-14)


def test_scaled_termset():
    ts = TermSet(2, 2, {("s",): [(0, 1, 2.0)]})
    f = np.ones((2, 3))
    aux = {"s": 2.0}
    out = np.zeros((2, 3))
    ts.scaled(0.5).apply(f, aux, out)
    assert np.allclose(out[0], 2.0)  # 2.0 * 0.5 * s=2.0 * f=1


# --------------------------------------------------------------------- #
def test_plan_accepts_strided_input(run_op):
    """A non-contiguous (strided) cell-major input still evaluates
    exactly — through one audited normalizing copy."""
    ts = TermSet(3, 3, {("e",): [(0, 1, 1.0)], ("w",): [(2, 2, 0.5)]})
    rng = np.random.default_rng(31)
    aux = {"e": rng.standard_normal((4, 1)), "w": rng.standard_normal((1, 5))}
    big = rng.standard_normal((4, 3, 9))
    f_view = big[:, :, 2:7]  # cell-major (cfg=4, nb=3, vel=5), strided
    assert not f_view.flags.c_contiguous
    op = GroupedOperator(ts, 1, 1)
    ref = np.zeros((3, 4, 5))
    ts.apply(phase_to_mode_major(f_view, 1), aux, ref)
    got = np.zeros((4, 3, 5))
    run_op(op, f_view, aux, got)
    assert np.allclose(got, phase_to_cell_major(ref, 1), atol=1e-14)
    assert op.pool.layout_copies == 1  # the audited normalizing copy


def test_plan_rejects_noncontiguous_out(run_op):
    ts = TermSet(2, 2, {(): [(0, 0, 1.0)]})
    op = GroupedOperator(ts, 1, 1)
    f = np.zeros((2, 2, 2))
    big = np.zeros((2, 2, 4))
    with pytest.raises(ValueError, match="C-contiguous"):
        run_op(op, f, {}, big[:, :, ::2])


def test_copy_debug_rejects_layout_copies(run_op):
    """With ``ScratchPool.copy_debug`` on, a strided full-state input is a
    hard error — the assertion the RHS hot-path copy test builds on."""
    ts = TermSet(2, 2, {("e",): [(0, 1, 1.0)]})
    rng = np.random.default_rng(5)
    aux = {"e": rng.standard_normal((3, 1))}
    op = GroupedOperator(ts, 1, 1)
    f = rng.standard_normal((3, 2, 8))[:, :, ::2]
    out = np.zeros((3, 2, 4))
    op.pool.copy_debug = True
    with pytest.raises(RuntimeError, match="layout-normalizing copy"):
        run_op(op, f, aux, out)


def test_single_config_cell_grid_steps():
    """A single-configuration-cell grid classifies the field coefficients as
    scalars (no cfg-batched terms); the solver must fall back to the stacked
    sparse path instead of crashing in the cell-major carry."""
    from repro.runtime import build, build_app

    app = build_app(build("two_stream", nx=1, nv=8))
    app.step()  # pre-fix: ValueError from ExecutionPlan.apply_cellmajor
    assert app.step_count == 1
    assert np.isfinite(app.f["elc"]).all()


def test_single_config_cell_matches_quadrature():
    from repro.grid import Grid, PhaseGrid
    from repro.vlasov.modal_solver import VlasovModalSolver
    from repro.vlasov.quadrature_solver import VlasovQuadratureSolver

    pg = PhaseGrid(Grid([0.0], [1.0], [1]), Grid([-2.0], [2.0], [4]))
    modal = VlasovModalSolver(pg, 2, "serendipity")
    quad = VlasovQuadratureSolver(pg, 2, "serendipity")
    rng = np.random.default_rng(5)
    f = rng.standard_normal(pg.conf.cells + (modal.num_basis,) + pg.vel.cells)
    em = rng.standard_normal(pg.conf.cells + (8, modal.num_conf_basis))
    r_modal = modal.rhs(f, em)
    r_quad = quad.rhs(f, em)
    scale = max(np.max(np.abs(r_quad)), 1.0)
    assert np.max(np.abs(r_modal - r_quad)) / scale < 1e-12


def test_scratch_pool_reuse():
    pool = ScratchPool()
    a = pool.get("x", (3, 4))
    a.fill(7.0)
    b = pool.get("x", (3, 4))
    assert b is a and b[0, 0] == 7.0
    c = pool.get("x", (3, 4), zero=True)
    assert c is a and c[0, 0] == 0.0
    d = pool.get("y", (3, 4))
    assert d is not a
    assert pool.nbytes == 2 * 3 * 4 * 8

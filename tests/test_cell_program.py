"""The per-configuration-cell program and the stage that rides it.

``repro.engine.program.CellProgram`` runs one species' volume + trace + flux
+ lift plans as: streaming faces over the whole grid, then one configuration
cell at a time (acceleration trace → flux → lift in a cell-local block,
volume, lifts, optional Shu–Osher stage).  Its compiled form (``cell_rhs``)
must end in the bytes of its reference form — the same plans as state-sized
passes plus the stage arithmetic in numpy — and touch nothing outside its
arrays; ``System.step`` (which hands the stage to the solver where it may)
must end in the bytes of the stepper's generic stage arithmetic.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cas.codegen as codegen
from repro.engine import STATS, CellProgram, Stage, compiler_config
from repro.grid import Grid, PhaseGrid
from repro.kernels import modal_update_traffic
from repro.kernels.generator import FACE_SIGN
from repro.kernels.grouped import GroupedOperator
from repro.kernels.termset import stack_termsets
from repro.systems import build_system, get_system_kind, list_system_kinds
from repro.timestepping import ForwardEuler, SSPRK2, SSPRK3
from repro.vlasov.modal_solver import VlasovModalSolver
from test_face_kernels import GUARD, _conf_grid, _guarded, face_flux_cases

STEPPERS = (ForwardEuler, SSPRK2, SSPRK3)
#: every distinct (a, b) of the three Shu–Osher tables
STAGES = sorted({pair for stepper in STEPPERS for pair in stepper.table})


def _nan_guarded(shape):
    alloc = np.full(int(np.prod(shape)) + 2 * GUARD, np.nan)
    return alloc, alloc[GUARD : alloc.size - GUARD].reshape(shape)


def _run_program(case, tier, ghost, pair, velocity_flux="central"):
    """One ``solver.rhs`` (``pair`` None) or one staged one, every array it
    touches inside a NaN guard band: ``{name: whole allocation}``."""
    cdim, vdim, poly_order, parent, vel, seed = case
    pg = PhaseGrid(_conf_grid(parent, ghost), Grid([-3.0] * vdim, [3.0] * vdim, list(vel)))
    with compiler_config(tier=tier, cache="off"):
        solver = VlasovModalSolver(pg, poly_order, velocity_flux=velocity_flux)
        prog = solver._program
        rng = np.random.default_rng(seed)
        em = rng.standard_normal(pg.conf.cells + (8, solver.num_conf_basis))
        allocs = {}
        allocs["f"], f = _guarded(prog.in_shape, rng)
        allocs["u0"], u0 = _guarded(prog.own_shape, rng)
        # the program's scratch, NaN inside and around: all of it is written
        # before it is read
        scratch = {
            "program.stream": prog._stream_shape,
            "program.block": (prog.na, prog.nvel),
            "program.cell": (prog.num_basis, prog.nvel),
        }
        if any(ghost):
            scratch["program.stream_in"] = prog._stream_in_shape
        for tag, shape in scratch.items():
            allocs[tag], solver.pool._arrays[(tag, shape)] = _nan_guarded(shape)
        if pair is None:
            allocs["out"], out = _nan_guarded(prog.own_shape)
            assert solver.rhs(f, em, out=out) is out
        else:
            if any(ghost):
                allocs["target"], target = _nan_guarded(prog.own_shape)
            else:
                target = f
            stage = Stage(*pair, 0.0371, u0, target)
            assert solver.rhs(f, em, stage=stage) is target
            out = target
        assert prog.tier == tier
        assert np.isfinite(out).all()
    if tier == "numpy":
        # the reference form has no cell-local block or cell of ``L``
        del allocs["program.block"], allocs["program.cell"]
    else:
        for tag in ("program.block", "program.cell"):
            alloc = allocs.pop(tag)
            body = alloc[GUARD:-GUARD]
            used = tag == "program.block" or pair is not None
            assert np.isfinite(body).all() == used
            assert np.isnan(alloc[:GUARD]).all() and np.isnan(alloc[-GUARD:]).all()
    return allocs


def _assert_program_tiers_agree(case, ghost, **kw):
    for pair in [None] + STAGES:
        got = _run_program(case, "cc", ghost, pair, **kw)
        want = _run_program(case, "numpy", ghost, pair, **kw)
        assert set(got) == set(want)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), (pair, name)


@settings(max_examples=12, deadline=None)
@given(face_flux_cases())
def test_program_on_a_whole_grid_equals_its_reference(case):
    """Periodic grid: ``L`` into ``out``, and every stage in place."""
    _assert_program_tiers_agree(case, ghost=(0,) * case[0])


@settings(max_examples=12, deadline=None)
@given(face_flux_cases(), st.integers(1, 3))
def test_program_on_a_ghosted_block_equals_its_reference(case, which):
    """A ``process:N`` block, ghost layers on one configuration axis and on
    both: ghosted ``f`` in, ghost-free ``out`` / stage target out."""
    cdim = case[0]
    ghost = tuple((which >> d) & 1 for d in range(cdim))
    if not any(ghost):
        ghost = (1,) * cdim
    _assert_program_tiers_agree(case, ghost)


@settings(max_examples=5, deadline=None)
@given(face_flux_cases())
def test_program_with_the_jump_penalty_equals_its_reference(case):
    _assert_program_tiers_agree(case, ghost=(0,) * case[0], velocity_flux="penalty")


@pytest.mark.parametrize("key", [(1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 2, 2)], ids=str)
def test_split_lifts_replay_the_whole_lift_row_by_row(key):
    """The streaming lift then the acceleration lift add, to every output
    row, the entries of one lift over all directions in its order: streaming
    columns come before acceleration columns in each of its rows."""
    cdim, vdim, poly_order = key
    pg = PhaseGrid(
        Grid([0.0] * cdim, [1.0] * cdim, [2] * cdim), Grid([-3.0] * vdim, [3.0] * vdim, [2] * vdim)
    )
    with compiler_config(tier="numpy", cache="off"):
        solver = VlasovModalSolver(pg, poly_order)
        kern = solver.kernels
        sides = [(fk, s) for fk in kern.face_stream + kern.face_accel for s in ("L", "R")]
        whole = GroupedOperator(
            stack_termsets(
                [fk.trace[s].scaled(FACE_SIGN[s]) for fk, s in sides]
            ).transposed(),
            cdim, vdim,
        )
        cells = pg.conf.cells + pg.vel.cells
        (group,) = whole.plan_for({}, cells)._groups
        (stream,) = solver._program._ops[2][0].plan_for({}, cells)._groups
        (accel,) = solver._program._ops[4][0].plan_for({}, cells)._groups
    ns = solver._program.ns
    for row in range(solver.num_basis):
        entries = []
        for grp, shift in ((stream, 0), (accel, ns)):
            span = slice(grp.indptr[row], grp.indptr[row + 1])
            entries += list(zip(grp.indices[span] + shift, grp.base[span]))
        span = slice(group.indptr[row], group.indptr[row + 1])
        assert entries == list(zip(group.indices[span], group.base[span]))


def test_traffic_model_is_pinned_at_the_operating_points():
    """Doubles (read, written) through state-sized arrays per phase-space
    cell per RHS: 2X2V p=2 (Np 48, Nf 20) and the paper's 2X3V p=2 (Np 112,
    Nf 48, where 288 of the 480 trace rows are acceleration rows)."""
    t = modal_update_traffic(2, 2, 2)
    assert t["passes"]["trace"] == (48, 160) and t["passes"]["lift"] == (208, 48)
    assert t["passes"]["total"] == (464, 416)
    assert t["passes"]["stage"] == (336, 240)
    assert t["cell_local"]["total"] == (256, 208)
    assert t["cell_local"]["total_staged"] == (304, 208)
    t = modal_update_traffic(2, 3, 2)
    assert t["passes"]["flux"] == (480, 480)
    assert t["passes"]["total"] == (1296, 1184)
    assert t["cell_local"]["trace_streaming"] == (112, 192)
    assert t["cell_local"]["cell_staged"] == (416, 112)
    assert t["cell_local"]["total"] == (608, 496)
    assert t["cell_local"]["total_staged"] == (720, 496)


# --------------------------------------------------------------------- #
# failure paths
def _small_solver(ghost=(0,)):
    """A 1X1V solver with its state and field; plans compile on first use,
    under the configuration active then."""
    pg = PhaseGrid(_conf_grid((4,), ghost), Grid([-3.0], [3.0], [6]))
    solver = VlasovModalSolver(pg, 2)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(solver._program.in_shape)
    em = rng.standard_normal(pg.conf.cells + (8, solver.num_conf_basis))
    return solver, f, em


def test_failed_kernel_build_degrades_to_the_reference_form(monkeypatch, tmp_path):
    solver, f, em = _small_solver()
    want = f.copy()
    with compiler_config(tier="numpy", cache="off"):
        solver.rhs(f.copy(), em, stage=Stage(0.75, 0.25, 0.01, f.copy(), want))

    def broken(cc, src_path, out_path):
        raise codegen.subprocess.CalledProcessError(1, [cc], stderr="cc1: no such flag\n")

    monkeypatch.setattr(codegen, "_build_sweep", broken)
    monkeypatch.setattr(codegen, "_LOADED_KERNELS", {})
    before = STATS.snapshot()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with compiler_config(tier="cc", cache=str(tmp_path)):
            solver, f, em = _small_solver()
            target = f.copy()
            solver.rhs(f.copy(), em, stage=Stage(0.75, 0.25, 0.01, f.copy(), target))
            solver.rhs(f, em)
    built = [w for w in caught if "C sweep kernel build failed" in str(w.message)]
    assert len(built) == 1 and built[0].category is RuntimeWarning
    delta = STATS.delta(STATS.snapshot(), before)
    assert delta["kernels_failed"] > 0 and delta["kernels_built"] == 0
    assert solver._program.tier == "numpy"
    assert target.tobytes() == want.tobytes()


def _no_compiled_program(monkeypatch, solver):
    """From here on, reaching the ``cell_rhs`` entry point is a failure."""

    def no_call(*args):  # pragma: no cover - the assertion
        raise AssertionError("the compiled program was called")

    for op, _shape in solver._program._ops:
        for plan in op._plans.values():
            monkeypatch.setattr(plan, "_cc_cells", no_call)


def test_bad_arrays_are_rejected_before_the_kernel_runs(monkeypatch):
    with compiler_config(tier="cc", cache="off"):
        _bad_arrays(monkeypatch)


def _bad_arrays(monkeypatch):
    solver, f, em = _small_solver()
    prog = solver._program
    good = Stage(0.75, 0.25, 0.01, f.copy(), f)
    solver.rhs(f, em, stage=good)  # the plans exist from here on
    assert prog.tier == "cc"
    _no_compiled_program(monkeypatch, solver)
    strided = np.zeros((4, 2 * f.shape[1], 6))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous state"):
        solver.rhs(strided, em, stage=good._replace(target=strided))
    with pytest.raises(ValueError, match="expected cell-major"):
        solver.rhs(np.zeros((5,) + f.shape[1:]), em, stage=good)
    with pytest.raises(ValueError, match="stage.target must be"):
        solver.rhs(f, em, stage=good._replace(target=np.zeros((3,) + f.shape[1:])))
    with pytest.raises(ValueError, match="stage.target must be"):
        solver.rhs(f, em, stage=good._replace(target=strided))
    with pytest.raises(ValueError, match="aliases the state"):
        solver.rhs(f, em, stage=good._replace(u0=f))
    with pytest.raises(ValueError, match="needs u0"):
        solver.rhs(f, em, stage=good._replace(u0=None))
    with pytest.raises(ValueError, match="without being f"):
        solver.rhs(f, em, stage=good._replace(target=f[:]))
    with pytest.raises(ValueError, match="out overlaps"):
        solver.rhs(f, em, out=f)
    # a block reads a ghosted buffer: its interior is no place for the stage
    ghosted, fg, emg = _small_solver(ghost=(1,))
    ghosted.rhs(fg, emg)
    _no_compiled_program(monkeypatch, ghosted)
    own = fg[1:-1]
    assert own.flags.c_contiguous
    with pytest.raises(ValueError, match="overlaps f"):
        ghosted.rhs(fg, emg, stage=Stage(0.0, 1.0, 0.01, None, own))


def test_malformed_tables_are_rejected_at_construction():
    solver, _f, _em = _small_solver(ghost=(1,))
    prog = solver._program
    vol = prog._ops[0][0]
    stream = (prog._ops[1][0], prog._ops[2][0], [solver._flux_ops[0]])
    accel = (prog._ops[3][0], prog._ops[4][0], [solver._flux_ops[1]])

    def build(stream=stream, accel=accel, interior=prog._interior):
        return CellProgram(solver.pool, 1, vol, stream, accel, interior=interior)

    build()
    for interior in (None, (slice(0, 3),), (slice(1, 5),), (slice(1, 2), slice(None))):
        with pytest.raises(ValueError, match="does not cut the own cells"):
            build(interior=interior)
    with pytest.raises(ValueError, match="do not split the face slots"):
        build(stream=(vol,) + stream[1:])
    with pytest.raises(ValueError, match="face map 0 of the acceleration"):
        build(accel=accel[:2] + (stream[2],))
    with pytest.raises(ValueError, match="face map 0 of the streaming"):
        build(stream=stream[:2] + (accel[2],))
    with pytest.raises(ValueError, match="need a streaming and an acceleration"):
        build(accel=accel[:2] + ([],))


# --------------------------------------------------------------------- #
# the stage arithmetic, end to end
@pytest.mark.systems
@pytest.mark.parametrize("kind_name", [k.name for k in list_system_kinds()])
@pytest.mark.parametrize("stepper", ["forward-euler", "ssp-rk2", "ssp-rk3"])
def test_system_step_equals_the_generic_stage_arithmetic(kind_name, stepper):
    """``System.step`` — field first, then each species, staged inside its
    solver where that solver is the last writer — ends in the bits of the
    stepper's own stage arithmetic over ``System.rhs`` (the ledger traced
    pass's "harness-composed step" check)."""
    spec = get_system_kind(kind_name).example().with_overrides({"stepper": stepper})
    system, generic = build_system(spec), build_system(spec)
    for _ in range(2):
        dt = system.suggested_dt()
        assert generic.suggested_dt() == dt
        system.step(dt)
        state = generic.state()
        if generic.field.in_state and not generic.field.evolves:
            state.pop("em")
        generic.stepper.step_inplace(state, generic._rhs_into, dt)
        generic.time += dt
        for key, arr in system.state().items():
            assert arr.tobytes() == generic.state()[key].tobytes(), key


@pytest.mark.parametrize("stepper", STEPPERS, ids=lambda s: s.__name__)
def test_step_inplace_equals_step_bitwise(stepper):
    rng = np.random.default_rng(5)
    start = {"a": rng.standard_normal((3, 7)), "b/c": rng.standard_normal(5) * 1e3}
    mats = {key: rng.standard_normal(arr.shape) for key, arr in start.items()}

    def rhs(state):
        return {key: np.sin(state[key]) * mats[key] - state[key] for key in state}

    def rhs_into(state, out):
        for key, val in rhs(state).items():
            out[key][...] = val

    functional, inplace = stepper(), stepper()
    want = start
    state = {key: arr.copy() for key, arr in start.items()}
    for _ in range(3):
        want = functional.step(want, rhs, 0.37)
        inplace.step_inplace(state, rhs_into, 0.37)
        for key in start:
            assert state[key].tobytes() == want[key].tobytes(), key
    assert all(not np.array_equal(want[key], start[key]) for key in start)

"""The per-configuration-cell program and the stage that rides it.

``repro.engine.program.CellProgram`` runs one species' volume + trace + flux
+ lift plans as: streaming faces over the whole grid, then one configuration
cell at a time (acceleration trace → flux → lift in a cell-local block,
volume, lifts, optional Shu–Osher stage).  Its compiled form (``cell_rhs``)
must end in the bytes of its reference form — the same plans as state-sized
passes plus the stage arithmetic in numpy — and touch nothing outside its
arrays, on one thread and with its loops split over several;
``System.step`` (which hands the stage to the solver where it may)
must end in the bytes of the stepper's generic stage arithmetic.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cas.codegen as codegen
from repro.collisions import LBOCollisions
from repro.engine import CellProgram, Stage, compiler_config, plan_counts
from repro.engine.program import Faces, Scale, Subtract, Sweep
from repro.grid import Grid, PhaseGrid
from repro.kernels import modal_update_traffic
from repro.kernels.generator import FACE_SIGN
from repro.kernels.grouped import GroupedOperator
from repro.kernels.termset import stack_termsets
from repro.moments import MomentCalculator
from repro.obs import OBS
from repro.runtime import build
from repro.systems import build_system, get_system_kind, list_system_kinds
from repro.timestepping import ForwardEuler, SSPRK2, SSPRK3
from repro.vlasov.modal_solver import VlasovModalSolver
from test_face_kernels import (
    GUARD,
    _conf_grid,
    _guarded,
    face_flux_cases,
    forced_threads,
    thread_counts,
)

STEPPERS = (ForwardEuler, SSPRK2, SSPRK3)
#: every distinct (a, b) of the three Shu–Osher tables
STAGES = sorted({pair for stepper in STEPPERS for pair in stepper.table})
#: ``L`` alone, a stage without ``u0`` and one combining with it: the calls
#: also run split over threads
SPLIT = (None, (0.0, 1.0), (0.75, 0.25))


def _nan_guarded(shape):
    alloc = np.full(int(np.prod(shape)) + 2 * GUARD, np.nan)
    return alloc, alloc[GUARD : alloc.size - GUARD].reshape(shape)


def _own(f, solver):
    return f if solver._interior is None else f[solver._interior]


def _run_program(case, tier, ghost, pair, lbo=False, threads=1):
    """One ``solver.rhs`` (``pair`` None) or one staged one — with ``lbo``
    the program carrying the LBO's cell table — every array it touches
    inside a NaN guard band: ``{name: whole allocation}``.  The compiled
    calls run on ``threads`` threads."""
    cdim, vdim, poly_order, parent, vel, seed = case
    pg = PhaseGrid(_conf_grid(parent, ghost), Grid([-3.0] * vdim, [3.0] * vdim, list(vel)))
    with compiler_config(tier=tier, cache="off"), forced_threads(threads):
        coll = LBOCollisions(pg, poly_order, nu=0.7) if lbo else None
        solver = VlasovModalSolver(pg, poly_order, collisions=coll)
        prog = solver._collisional if lbo else solver._program
        rng = np.random.default_rng(seed)
        em = rng.standard_normal(pg.conf.cells + (8, solver.num_conf_basis))
        allocs = {}
        allocs["f"], f = _guarded(prog.in_shape, rng)
        allocs["u0"], u0 = _guarded(prog.own_shape, rng)
        # the program's scratch, NaN inside and around: all of it is written
        # before it is read — one block and one cell of ``L`` per thread of
        # the compiled form (``prog.threads`` once bound)
        nthreads = min(prog.ncfg, threads)
        scratch = {
            "program.stream": prog._stream_shape,
            "program.block": (nthreads, prog._block_rows, prog.nvel),
            "program.cell": (nthreads, prog.num_basis, prog.nvel),
        }
        if any(ghost):
            scratch["program.stream_in"] = prog._stream_in_shape
        for tag, shape in scratch.items():
            allocs[tag], solver.pool._arrays[(tag, shape)] = _nan_guarded(shape)
        if lbo:
            f[(slice(None),) * cdim + (0,)] += 4.0  # a positive density
            coll.refresh(_own(f, solver), MomentCalculator(pg, solver.kernels))
        if pair is None:
            allocs["out"], out = _nan_guarded(prog.own_shape)
            assert solver.rhs(f, em, out=out, collide=lbo) is out
        else:
            if any(ghost):
                allocs["target"], target = _nan_guarded(prog.own_shape)
            else:
                target = f
            stage = Stage(*pair, 0.0371, u0, target)
            assert solver.rhs(f, em, stage=stage, collide=lbo) is target
            out = target
        assert prog.tier == tier
        assert prog.threads == (nthreads if tier == "cc" else 1)
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
    """cc == numpy reference, byte for byte, for ``L`` and every stage, and
    for ``L`` and two stages with the loops split over threads."""
    for pair in [None] + STAGES:
        want = _run_program(case, "numpy", ghost, pair, **kw)
        split = thread_counts(case[3], ghost) if pair in SPLIT else ()
        for threads in (1,) + split:
            got = _run_program(case, "cc", ghost, pair, threads=threads, **kw)
            assert set(got) == set(want)
            for name in got:
                assert got[name].tobytes() == want[name].tobytes(), (pair, name, threads)


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


LBO_CASES = [
    (1, vdim, p, (4,), (5,) if vdim == 1 else (4, 3), 7 * p + vdim)
    for vdim in (1, 2) for p in (1, 2)
]


@pytest.mark.parametrize("ghost", [(0,), (1,)], ids=["whole", "ghosted"])
@pytest.mark.parametrize("case", LBO_CASES, ids=lambda c: f"1x{c[1]}v-p{c[2]}")
def test_program_with_the_lbo_tail_equals_its_reference(case, ghost):
    """The LBO's drag and LDG passes in each cell's block end in the bytes
    of the same table as state-sized passes, on a whole grid and on a
    ghosted block, for ``L`` and every stage."""
    _assert_program_tiers_agree(case, ghost, lbo=True)


@pytest.mark.parametrize("ghost", [(0,), (1,)], ids=["whole", "ghosted"])
@pytest.mark.parametrize("case", LBO_CASES[1::2], ids=lambda c: f"1x{c[1]}v-p{c[2]}")
def test_program_with_the_lbo_tail_is_the_solver_rhs_plus_the_lbo_rhs(case, ghost):
    """The composition the ledger checks, per kernel tier: the collisionless
    program, then ``LBOCollisions.rhs`` accumulated into its ``L``."""
    for tier in ("cc", "numpy"):
        got = _run_program(case, tier, ghost, None, lbo=True)["out"]
        cdim, vdim, poly_order, parent, vel, seed = case
        pg = PhaseGrid(_conf_grid(parent, ghost), Grid([-3.0] * vdim, [3.0] * vdim, list(vel)))
        with compiler_config(tier=tier, cache="off"):
            solver = VlasovModalSolver(pg, poly_order)
            rng = np.random.default_rng(seed)
            em = rng.standard_normal(pg.conf.cells + (8, solver.num_conf_basis))
            f = _guarded(solver._program.in_shape, rng)[1]
            _guarded(solver._program.own_shape, rng)  # the draws of u0
            f[(slice(None),) * cdim + (0,)] += 4.0
            out = solver.rhs(f, em, out=np.empty(solver._program.own_shape))
            LBOCollisions(pg, poly_order, nu=0.7).rhs(
                np.ascontiguousarray(_own(f, solver)), MomentCalculator(pg, solver.kernels),
                out=out, accumulate=True,
            )
        assert got[GUARD:-GUARD].tobytes() == out.tobytes(), tier


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
        parts = _parts(solver._program)
        (stream,) = parts["stream lift"].plan_for({}, cells)._groups
        (accel,) = parts["accel lift"].plan_for({}, cells)._groups
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
# the thread policy, and forks after a split call
def test_threads_follow_the_cpus_and_the_work_and_a_forked_child_runs_one():
    cpus = len(os.sched_getaffinity(0))
    assert codegen.cell_threads(10**6, 10**12) == cpus
    assert codegen.cell_threads(3, 10**12) == min(cpus, 3)
    assert codegen.cell_threads(10**6, 2 * codegen.WORK_PER_THREAD - 1) == 1
    # every loop of a two_stream run is below the work constant
    with compiler_config(tier="cc"):
        system = build_system(build("two_stream"))
        system.step(system.suggested_dt())
    (solver,) = system.solvers.values()
    prog = solver._program
    assert prog.tier == "cc" and prog.threads == 1
    _sweep, trace_call, face_calls = prog._call[:3]
    assert trace_call[-1] == 1 and all(call[-1] == 1 for _faces, call in face_calls)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        try:
            os.write(write, bytes([codegen.cell_threads(10**6, 10**12)]))
        finally:
            os._exit(0)
    os.close(write)
    assert os.read(read, 1) == b"\x01"
    os.close(read)
    assert os.waitpid(pid, 0)[1] == 0


#: run in a fresh interpreter: a threaded ``cell_rhs``, then a ``process:2``
#: run and a serve job, whose workers are forked after it
AFTER_THREADS = """
import sys
import numpy as np
import repro.engine.program as program
from repro.engine import compiler_config
from repro.grid import Grid, PhaseGrid
from repro.runtime import Driver, build
from repro.serve import ServeClient, ServeDaemon
from repro.vlasov.modal_solver import VlasovModalSolver

program.cell_threads = lambda n, work: min(n, 2)
pg = PhaseGrid(Grid([0.0], [1.0], [4]), Grid([-3.0], [3.0], [6]))
with compiler_config(tier="cc", cache="off"):
    solver = VlasovModalSolver(pg, 2)
    f = np.random.default_rng(0).standard_normal(solver._program.in_shape)
    solver.rhs(f, np.zeros((4, 8, solver.num_conf_basis)))
assert (solver._program.tier, solver._program.threads) == ("cc", 2)
driver = Driver(build("two_stream", nx=8, nv=8, steps=2, backend="process:2"))
try:
    assert driver.run()["steps"] == 2
finally:
    driver.close()
daemon = ServeDaemon(sys.argv[1], workers=1).start()
try:
    client = ServeClient.from_dir(daemon.store.root)
    job = client.submit(spec=build("free_streaming", steps=2, nx=6, nv=6))["job"]
    assert client.result(job, wait=True, timeout=60.0)["steps"] == 2
finally:
    daemon.drain(timeout=30.0)
print("forks ok")
"""


def test_forks_after_a_threaded_call_finish(tmp_path):
    """No thread outlives a call, so nothing a forked shard worker or serve
    worker inherits can hang it (OpenMP's pool hangs a forked child)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", AFTER_THREADS, str(tmp_path / "srv")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("forks ok")


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
    before = OBS.metrics.snapshot()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with compiler_config(tier="cc", cache=str(tmp_path)):
            solver, f, em = _small_solver()
            target = f.copy()
            solver.rhs(f.copy(), em, stage=Stage(0.75, 0.25, 0.01, f.copy(), target))
            solver.rhs(f, em)
    built = [w for w in caught if "C sweep kernel build failed" in str(w.message)]
    assert len(built) == 1 and built[0].category is RuntimeWarning
    after = OBS.metrics.snapshot()
    delta = plan_counts({k: after[k] - before[k] for k in after})
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


def test_an_operator_applied_elsewhere_is_looked_up_again():
    """A call skips its operators' lookups while nothing moved; one of them
    applied with other values in between is bound back to the program's."""
    solver, f, em = _small_solver()
    shape = solver._program.own_shape
    want, got = np.empty(shape), np.empty(shape)
    solver.rhs(f, em, out=want)
    other = {name: 2.0 * val if name.startswith("E") else val for name, val in solver._aux.items()}
    _parts(solver._program)["volume"].apply(f, other, np.empty(shape), accumulate=False)
    solver.rhs(f, em, out=got)
    assert got.tobytes() == want.tobytes()


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


def _parts(prog):
    """The operators of a Vlasov cell program, by role."""
    sweeps = {(ins.src, ins.dst): ins.op for ins in prog.table if type(ins) is Sweep}
    return {
        "volume": sweeps["f", "out"], "stream trace": prog._ops[0][0],
        "stream lift": sweeps["stream", "out"], "accel trace": sweeps["f", "accel"],
        "accel lift": sweeps["accel", "out"],
    }


def test_malformed_tables_are_rejected_at_construction():
    solver, _f, _em = _small_solver(ghost=(1,))
    prog = solver._program
    parts = _parts(prog)
    vol = parts["volume"]
    stream = (parts["stream trace"], parts["stream lift"], [solver._flux_ops[0]])
    accel = (parts["accel trace"], parts["accel lift"], [solver._flux_ops[1]])

    def build(stream=stream, accel=accel, interior=prog._interior, tail=None):
        return CellProgram(solver.pool, 1, vol, stream, accel, interior=interior, tail=tail)

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
    # a tail: the LBO's table, then instructions the compiled table would
    # mis-execute
    blocks, table = LBOCollisions(solver.grid, 2).cell_table
    assert len(build(tail=(blocks, table)).table) == len(build().table) + len(table)
    drag_faces = next(ins for ins in table if type(ins) is Faces)
    nf = prog.nf
    for tail, match in [
        (({"accel": 1}, []), "already a block"),
        (({}, [Sweep(vol, "out", "f")]), "writes 'f'"),
        (({}, [Subtract("out", "out")]), "reads what it writes"),
        (({}, [Scale("nowhere", 2.0)]), "names no block"),
        (({"x": 3}, [Sweep(vol, "f", "x")]), "does not map block"),
        (({"t": 2 * nf}, [Faces(stream[2][0][0], stream[2][0][1], "t")]), "face map of 't'"),
        (({"t": nf}, [drag_faces._replace(block="t")]), "face map of 't'"),
    ]:
        with pytest.raises(ValueError, match=match):
            build(tail=tail)


# --------------------------------------------------------------------- #
# the stage arithmetic, end to end
def _composed_rhs_into(system):
    """``System.rhs`` as the ledger's layered pass composes it from the
    blocks: each solver's collisionless ``df/dt``, the collision operator's
    reference form accumulated into it, then the field block."""

    def rhs_into(state, out):
        em = system.field.em_for_species(system, state)
        for blk in system.blocks:
            f, df = state[f"f/{blk.name}"], out[f"f/{blk.name}"]
            blk.solver.rhs(f, em, out=df)
            if blk.collisions is not None:
                blk.collisions.rhs(f, blk.moments, out=df, accumulate=True)
        system.field.accumulate_rhs(system, state, out)

    return rhs_into


@pytest.mark.systems
@pytest.mark.parametrize(
    "kind_name", [k.name for k in list_system_kinds()] + ["collisional_relaxation"]
)
@pytest.mark.parametrize("stepper", ["forward-euler", "ssp-rk2", "ssp-rk3"])
def test_system_step_equals_the_generic_stage_arithmetic(kind_name, stepper):
    """``System.step`` — field first, then each species, staged inside its
    solver where that solver is the last writer (an LBO species with its
    collisions in the program) — ends in the bits of the stepper's own stage
    arithmetic over ``System.rhs`` and over the ledger traced pass's
    composition of it (its "harness-composed step" check)."""
    if kind_name == "collisional_relaxation":
        spec = build(kind_name, nx=2, nv=8, stepper=stepper)
    else:
        spec = get_system_kind(kind_name).example().with_overrides({"stepper": stepper})
    system, generic, composed = (build_system(spec) for _ in range(3))
    if kind_name == "collisional_relaxation":
        (blk,) = system.blocks
        assert blk.solver.collisions is blk.collisions
    for _ in range(2):
        dt = system.suggested_dt()
        system.step(dt)
        for other, rhs_into in ((generic, generic._rhs_into), (composed, _composed_rhs_into(composed))):
            assert other.suggested_dt() == dt
            state = other.state()
            if other.field.in_state and not other.field.evolves:
                state.pop("em")
            other.stepper.step_inplace(state, rhs_into, dt)
            other.time += dt
            for key, arr in system.state().items():
                assert arr.tobytes() == other.state()[key].tobytes(), key


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

"""Table I — modal vs alias-free nodal (quadrature) cost, 2X3V p=2, 112 DOF.

The paper's headline cost experiment: a serial 2X3V Vlasov–Maxwell step with
two species, p=2 Serendipity (112 DOF/cell), SSP-RK3.  On the paper's
162x163 grid the nodal scheme took 1079.63 s/step (1033.89 s in the Vlasov
solve) and the modal scheme 67.43 s/step (60.34 s Vlasov): reductions of
~16x (total) and ~17x (Vlasov).

Our substrate is NumPy on one core, so the grid is reduced (the per-cell
cost ratio is grid-size independent); both schemes solve the *identical*
discrete system (verified to machine precision in the test suite), so the
ratio isolates algorithmic cost exactly as in the paper.  Expect the
measured reduction to land in the several-fold to ~20x band — BLAS dgemm is
a stronger baseline runtime than unvectorized loops, just as Eigen was in
the paper.

Every runtime system is modal, so the nodal comparator is driven at solver
level: one modal ``System`` is stepped, and each species'
``VlasovQuadratureSolver.rhs`` is timed beside the modal solver's ``rhs`` on
the same state.  The two schemes share every line of a step but the Vlasov
solve, so the nodal step is *derived*: the modal step minus the modal
Vlasov time plus the nodal Vlasov time.

Times are CPU times (``time.process_time``, the process's threads
included), the least of the repeats: a competing process that takes the
CPU away adds to wall time, not to these, so the ratio does not depend on
the load beside the run.  They are taken in a child process whose BLAS runs
one thread (``OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = MKL_NUM_THREADS =
1``, set before numpy loads, as the perf ledger pins its children): the
nodal solve is BLAS ``matmul``, and OpenBLAS threads that spin while they
wait add CPU time that grows with the load beside the run.  The modal
kernels' own threads (``cell_threads``) do not read these variables.

    PYTHONPATH=src python benchmarks/bench_table1_modal_vs_nodal.py   # the child
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.grid import Grid
from repro.systems import FieldSpec, MaxwellBlock, Species, System
from repro.vlasov import VlasovQuadratureSolver

POLY_ORDER = 2
FAMILY = "serendipity"
CONF_CELLS = [4, 4]
VEL_CELLS = [6, 6, 6]
#: timed repeats of each Table I quantity (the least is reported)
REPEATS = 5
#: the BLAS thread counts the timing child runs with
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _make_app() -> System:
    k = 2 * np.pi / 1.0

    def felc(x, y, vx, vy, vz):
        return (
            (1 + 0.1 * np.cos(k * x) * np.cos(k * y))
            * np.exp(-(vx ** 2 + vy ** 2 + vz ** 2) / 2)
            / (2 * np.pi) ** 1.5
        )

    def fprot(x, y, vx, vy, vz):
        vt2 = 0.25
        return (
            np.exp(-(vx ** 2 + vy ** 2 + vz ** 2) / (2 * vt2))
            / (2 * np.pi * vt2) ** 1.5
        )

    elc = Species("elc", -1.0, 1.0, Grid([-5.0] * 3, [5.0] * 3, VEL_CELLS), felc)
    prot = Species("prot", +1.0, 25.0, Grid([-1.5] * 3, [1.5] * 3, VEL_CELLS), fprot)
    return System(
        conf_grid=Grid([0.0, 0.0], [1.0, 1.0], CONF_CELLS),
        species=[elc, prot],
        field=MaxwellBlock(
            FieldSpec(initial={"Ex": lambda x, y: 0.01 * np.sin(k * x)})
        ),
        poly_order=POLY_ORDER,
        family=FAMILY,
        cfl=0.5,
        ic_quad_order=POLY_ORDER + 1,
    )


def _nodal_solvers(app: System):
    """The alias-free nodal comparator of each species, on its phase grid."""
    return {
        sp.name: VlasovQuadratureSolver(
            app.phase_grids[sp.name], POLY_ORDER, FAMILY, sp.charge, sp.mass
        )
        for sp in app.species
    }


def _vlasov_time(app: System, solvers) -> float:
    """One step's worth (3 stages) of ``solvers``' RHS on the app's state."""
    state = app.state()
    t0 = time.process_time()
    for _ in range(3):
        for sp in app.species:
            solvers[sp.name].rhs(state[f"f/{sp.name}"], state["em"])
    return time.process_time() - t0


def _step_time(app: System, dt: float) -> float:
    t0 = time.process_time()
    app.step(dt)
    return time.process_time() - t0


def _time_steps(app: System, nodal, repeats: int = REPEATS):
    """The least CPU time of ``repeats`` full SSP-RK3 steps and of as many
    modal and nodal Vlasov solves on the same state, the three interleaved
    (one of each per repeat); the minimum drops calls slowed by cache
    eviction."""
    dt = app.suggested_dt()
    app.step(dt)  # warm-up (also builds caches)
    _vlasov_time(app, nodal)  # warm-up of the nodal scratch
    rows = [
        (_step_time(app, dt), _vlasov_time(app, app.solvers), _vlasov_time(app, nodal))
        for _ in range(repeats)
    ]
    return tuple(min(col) for col in zip(*rows))


def _time_steps_one_blas_thread():
    """:func:`_time_steps` of a fresh :func:`_make_app`, run by this file
    as a child process whose BLAS runs one thread."""
    import repro

    env = dict(os.environ, **{name: "1" for name in BLAS_PINS})
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.paper
def test_table1_modal_vs_nodal_cost(benchmark):
    t_modal, t_modal_vlasov, t_nodal_vlasov = benchmark.pedantic(
        _time_steps_one_blas_thread, iterations=1, rounds=1
    )
    # derived: both schemes share every non-Vlasov line of the step
    t_nodal = t_modal - t_modal_vlasov + t_nodal_vlasov

    total_reduction = t_nodal / t_modal
    vlasov_reduction = t_nodal_vlasov / t_modal_vlasov
    print("\n=== Table I: 2X3V p=2 Serendipity (112 DOF), two species, "
          "one BLAS thread ===")
    print(f"{'CPU time':18s} {'nodal':>12s} {'modal':>12s} {'reduction':>10s}")
    print(f"{'total s/step':18s} {t_nodal:12.3f} {t_modal:12.3f} "
          f"{total_reduction:9.1f}x   (nodal derived; paper: 1079.63 / 67.43 = ~16x)")
    print(f"{'Vlasov s/step':18s} {t_nodal_vlasov:12.3f} {t_modal_vlasov:12.3f} "
          f"{vlasov_reduction:9.1f}x   (paper: 1033.89 / 60.34 = ~17x)")
    # shape: modal must win by a sizable factor; Vlasov share dominates both
    assert total_reduction > 3.0
    assert vlasov_reduction > 3.0
    assert t_nodal_vlasov > 0.5 * t_nodal  # Vlasov solve dominates the step


@pytest.mark.paper
def test_table1_modal_step(benchmark):
    app = _make_app()
    dt = app.suggested_dt()
    benchmark.pedantic(app.step, args=(dt,), iterations=1, rounds=3)


@pytest.mark.paper
def test_table1_nodal_step(benchmark):
    """The nodal Vlasov solve of one step (the part of its step that differs
    from the modal one)."""
    app = _make_app()
    nodal = _nodal_solvers(app)
    benchmark.pedantic(_vlasov_time, args=(app, nodal), iterations=1, rounds=2)


if __name__ == "__main__":
    app = _make_app()
    assert app.solvers["elc"].num_basis == 112  # the paper's 112 DOF/cell
    print(json.dumps(_time_steps(app, _nodal_solvers(app))))

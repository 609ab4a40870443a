"""Sec. III efficiency metric — E_op = DOFs / (cores * t_wall).

The paper updates ~1.67e7 DOFs/s/core for the forward-Euler spatial
discretization at p=2 Serendipity in 5D (2X3V), vs ~1e7 for the
state-of-the-art nodal CFD solver of Fehn et al. [12], and ~8e6 once the
Fokker–Planck (LBO) collision operator is added (footnote 7: collisions
roughly double the cost).

Here the same two measurements run through the plan engine's compiled
sweep; the collisional one takes the path a ``System`` takes, the LBO's cell
table riding the solver's cell program after one refresh of its primitive
moments.  Both are read per core: DOFs over the least processor time of one
call (``time.process_time``, the threads of a split call included), the
collisionless and collisional calls interleaved.  On a 2-core Intel Xeon
box (2026-10-19, five idle readings) the collisionless update measured
2.1-2.4e7 DOFs/s/core on this grid against the paper's 1.67e7, and the
update with the LBO 1.0-1.2e7 against its ~8e6: a slowdown of 1.91-2.25x.
The *ratios* the paper argues from — collisions ~2x the collisionless cost
— are asserted.
"""

import time

import numpy as np
import pytest

from repro.collisions import LBOCollisions
from repro.grid import Grid, PhaseGrid
from repro.kernels import get_vlasov_kernels, modal_update_traffic
from repro.moments import MomentCalculator
from repro.vlasov import VlasovModalSolver

POLY_ORDER = 2
FAMILY = "serendipity"


@pytest.fixture(scope="module")
def setup(rng):
    conf = Grid([0.0, 0.0], [1.0, 1.0], [3, 3])
    vel = Grid([-4.0] * 3, [4.0] * 3, [6, 6, 6])
    pg = PhaseGrid(conf, vel)
    solver = VlasovModalSolver(pg, POLY_ORDER, FAMILY)
    f = rng.standard_normal(conf.cells + (solver.num_basis,) + vel.cells)
    em = 0.1 * rng.standard_normal(conf.cells + (8, solver.num_conf_basis))
    return pg, solver, f, em


def _rates(fns, dofs, budget=1.5):
    """DOFs per second of each function's fastest call, the calls of all of
    them interleaved (ABAB...) over ``budget`` seconds of wall time.  A call
    is read as its ``time.process_time`` — the processor time this process
    spent, its threads' included, which a competing process that takes the
    CPU away does not add to, as it does to wall time — and the minimum drops
    calls slowed by cache eviction; interleaving gives every function the
    same machine."""
    for fn in fns:
        fn()  # warm-up
    best, t0 = [float("inf")] * len(fns), time.perf_counter()
    while time.perf_counter() - t0 < budget:
        for i, fn in enumerate(fns):
            t1 = time.process_time()
            fn()
            best[i] = min(best[i], time.process_time() - t1)
    return [dofs / t for t in best]


def _gbytes_per_s(dofs_per_s, pg, num_basis):
    """Achieved traffic through state-sized arrays at ``dofs_per_s``, by the
    model of the compiled cell program (``modal_update_traffic``)."""
    traffic = modal_update_traffic(pg.cdim, pg.vdim, POLY_ORDER, FAMILY)
    read, written = traffic["cell_local"]["total"]
    return 8 * (read + written) * dofs_per_s / num_basis / 1e9


@pytest.mark.paper
def test_eop_collisionless_vs_collisional(benchmark, setup):
    pg, solver, f, em = setup
    out = np.zeros_like(f)
    dofs = f.size

    kern = get_vlasov_kernels(pg.cdim, pg.vdim, POLY_ORDER, FAMILY)
    lbo = LBOCollisions(pg, POLY_ORDER, FAMILY, nu=1.0)
    # the path a System takes: the LBO's cell table rides the solver's
    # cell program, after one refresh of its primitive moments
    collisional = VlasovModalSolver(pg, POLY_ORDER, FAMILY, collisions=lbo)
    mom = MomentCalculator(pg, kern, pool=collisional.pool)
    # use a positive-density state for the weak division inside LBO
    f_pos = np.zeros_like(f)
    f_pos[:, :, 0] = 1.0 + 0.01 * f[:, :, 0]  # basis axis = cdim = 2
    f_pos[:, :, 1:] = 0.01 * f[:, :, 1:]

    def full_update():
        lbo.refresh(f_pos, mom)
        collisional.rhs(f_pos, em, out, collide=True)

    eop_vlasov, eop_full = benchmark.pedantic(
        _rates,
        args=((lambda: solver.rhs(f, em, out), full_update), dofs),
        iterations=1,
        rounds=1,
    )
    slowdown = eop_vlasov / eop_full

    print("\n=== Sec. III: E_op = DOFs/(cores * t_wall), 2X3V p=2 (112 DOF) ===")
    print(f"collisionless Vlasov   : {eop_vlasov:,.0f} DOFs/s/core "
          "(paper: 1.67e7 on Xeon/C++), "
          f"{_gbytes_per_s(eop_vlasov, pg, solver.num_basis):.2f} GB/s "
          "through state-sized arrays")
    print(f"with LBO Fokker-Planck : {eop_full:,.0f} DOFs/s/core "
          "(paper: ~8e6)")
    print(f"collision slowdown     : {slowdown:.2f}x (paper: ~2x)")
    assert 1.3 < slowdown < 4.0  # 'roughly doubles the cost'
    assert eop_vlasov > 1e5      # sanity: NumPy path is in a usable range


@pytest.mark.paper
def test_eop_vlasov_rhs(benchmark, setup):
    pg, solver, f, em = setup
    out = np.zeros_like(f)
    benchmark(solver.rhs, f, em, out)
    (rate,) = _rates([lambda: solver.rhs(f, em, out)], f.size, budget=0.5)
    print(f"\ncollisionless Vlasov RHS: {rate:,.0f} DOFs/s/core, "
          f"{_gbytes_per_s(rate, pg, solver.num_basis):.2f} GB/s "
          "through state-sized arrays")

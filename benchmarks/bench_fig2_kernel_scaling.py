"""Fig. 2 — cost scaling of the full per-cell update with DOFs per cell.

The paper measures the time to evaluate the complete update (volume + all
surface kernels) of one phase-space cell as a function of the number of
basis functions N_p, across dimensionalities (1x1v .. 3x3v) and all three
basis families, and finds **sub-quadratic scaling, at worst ~O(N_p^2)** —
crucially, independent of dimensionality (no hidden N_q factor) and robust
to the basis family.

Here the same experiment runs over the generated kernels; the log-log slope
of per-cell time vs N_p is fitted and asserted < 2.3, and the per-DOF
efficiency is printed for the EXPERIMENTS.md record.
"""

import time
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.grid import Grid, PhaseGrid
from repro.vlasov import VlasovModalSolver

pytestmark = pytest.mark.paper

# (cdim, vdim, p) per family — chosen so kernel generation stays affordable
CONFIGS: Dict[str, List[Tuple[int, int, int]]] = {
    "serendipity": [
        (1, 1, 1), (1, 1, 2), (1, 1, 3),
        (1, 2, 1), (1, 2, 2),
        (2, 2, 1), (2, 2, 2),
        (1, 3, 1), (1, 3, 2),
        (2, 3, 1),
    ],
    "tensor": [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 1), (1, 3, 1)],
    "maximal-order": [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 3, 2)],
}

_RESULTS: Dict[str, List[Tuple[int, float, float]]] = {}


def _measure(cdim, vdim, p, family, rng, streaming_only=False) -> Tuple[int, float]:
    """Per-cell time of the full (or zero-field, streaming-only) update.

    Grid sizes are chosen so each measurement covers ~4k phase-space cells:
    enough to amortize fixed NumPy call overheads so the *per-cell* cost —
    the quantity Fig. 2 plots — dominates.
    """
    pdim = cdim + vdim
    n_per_dim = max(2, round(4096 ** (1.0 / pdim)))
    conf = Grid([0.0] * cdim, [1.0] * cdim, [n_per_dim] * cdim)
    n_vel = n_per_dim + (n_per_dim % 2)  # even: no v=0-straddling cells
    vel = Grid([-2.0] * vdim, [2.0] * vdim, [n_vel] * vdim)
    pg = PhaseGrid(conf, vel)
    solver = VlasovModalSolver(pg, p, family)
    f = rng.standard_normal(conf.cells + (solver.num_basis,) + vel.cells)
    em = rng.standard_normal(conf.cells + (8, solver.num_conf_basis))
    out = np.zeros_like(f)

    if streaming_only:
        # zero fields: the acceleration terms still run but contribute nothing
        em = np.zeros_like(em)

    def update():
        solver.rhs(f, em, out)

    update()  # warm up
    n_iter, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 0.25:
        update()
        n_iter += 1
    per_cell = (time.perf_counter() - t0) / (n_iter * pg.num_cells)
    return solver.num_basis, per_cell


@pytest.mark.parametrize("family", list(CONFIGS))
def test_fig2_full_update_subquadratic(benchmark, family, rng):
    """Fitted slope of per-cell update time vs N_p is sub-quadratic-ish
    (paper: 'at worst ~O(N_p^2)')."""

    def sweep():
        pts = []
        for cdim, vdim, p in CONFIGS[family]:
            np_, t_cell = _measure(cdim, vdim, p, family, rng)
            _, t_stream = _measure(cdim, vdim, p, family, rng, streaming_only=True)
            pts.append((np_, t_cell, t_stream))
        return pts

    points = benchmark.pedantic(sweep, iterations=1, rounds=1)
    points.sort()
    _RESULTS[family] = points
    print(f"\n=== Fig. 2 ({family}): per-cell update time vs N_p ===")
    print(f"{'Np':>5s} {'full [us]':>10s} {'stream [us]':>11s} {'DOF/s/core':>12s}")
    for np_, t_cell, t_stream in points:
        print(f"{np_:5d} {t_cell*1e6:10.2f} {t_stream*1e6:11.2f} "
              f"{np_/t_cell:12.3g}")
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    slope = np.polyfit(xs, ys, 1)[0]
    print(f"fitted slope: {slope:.2f}  (paper: <= ~2, sub-quadratic)")
    # the cost must grow with Np (work is real) yet stay sub-quadratic-ish,
    # far from the dense-tensor O(Np^3)
    assert 0.3 < slope < 2.3


def test_fig2_scaling_robust_to_family(benchmark, rng):
    """Paper: 'the computational complexity is robust to the basis type' —
    the same N_p costs about the same in any family."""
    def sweep():
        out = dict()
        for fam in ("serendipity", "tensor"):
            for cdim, vdim, p in CONFIGS[fam]:
                np_, t_cell = _measure(cdim, vdim, p, fam, rng)
                out.setdefault((fam, np_), t_cell)
        return out

    t_ser = benchmark.pedantic(sweep, iterations=1, rounds=1)
    # compare overlapping Np=8 points (1x1v p=2 ser? Np=8 / 1x2v p1 tensor Np=8)
    pairs = [
        (t_ser.get(("serendipity", 8)), t_ser.get(("tensor", 8))),
    ]
    for a, b in pairs:
        if a and b:
            assert 0.2 < a / b < 5.0


def test_fig2_surface_cost_dominates(benchmark, rng):
    """Paper footnote 4: the total cost is driven by the surface integrals;
    the volume integral is comparatively cheap."""
    from repro.kernels import four_sided_kernels, get_vlasov_kernels
    from repro.cas.codegen import count_multiplications

    k = benchmark.pedantic(
        get_vlasov_kernels, args=(1, 3, 1, "serendipity"), iterations=1, rounds=1
    )
    vol = sum(count_multiplications(ts) for ts in k.vol_stream + k.vol_accel)
    stream, accel = four_sided_kernels(k)
    surf = sum(
        count_multiplications(ts)
        for sides in stream + accel
        for ts in sides.values()
    )
    print(f"\n1X3V p=1: volume mults {vol}, surface mults {surf}")
    assert surf > 2 * vol


def test_fig2_rhs_timing(benchmark, rng):
    """pytest-benchmark record of a representative full RHS (1x2v p=2)."""
    conf = Grid([0.0], [1.0], [8])
    vel = Grid([-2.0, -2.0], [2.0, 2.0], [8, 8])
    pg = PhaseGrid(conf, vel)
    solver = VlasovModalSolver(pg, 2, "serendipity")
    f = rng.standard_normal(conf.cells + (solver.num_basis,) + vel.cells)
    em = rng.standard_normal(conf.cells + (8, solver.num_conf_basis))
    out = np.zeros_like(f)
    benchmark(solver.rhs, f, em, out)

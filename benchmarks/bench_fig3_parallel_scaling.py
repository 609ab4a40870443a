"""Fig. 3 — weak and strong scaling of the 6D kinetic solver.

The paper scales two-species 6D p=1 Vlasov–Maxwell on Theta:
* weak: base (8,8,8,16,16,16) on 1 node up to (128,128,128,16,16,16) on
  4096 nodes — near-ideal, with at worst ~25% of a step in halo exchange;
* strong: (32,32,32,8,8,8) from 8 to 4096 nodes — ~4x speedup per 8x nodes,
  ~60x total at 512x more nodes;
* the MPI-3 shared-memory velocity decomposition saves 2-3x node memory.

Without a cluster (documented substitution) the curves come from the
calibrated analytic model driven by (a) this machine's *measured* modal
kernel rate and (b) the *real* ghost-layer byte counts of the actual
decomposition; the decomposition itself runs for real as ``process:N``
sharding, validated bitwise against serial runs in the test suite, and here
once more with its measured halo traffic against the model's.
"""

import time

import numpy as np
import pytest

from repro.dist import (
    ClusterModel,
    ProblemSpec,
    ShardPlan,
    memory_report,
    strong_scaling_series,
    weak_scaling_series,
)
from repro.grid import Grid, PhaseGrid
from repro.runtime import build, build_app
from repro.vlasov import VlasovModalSolver

WEAK_NODES = [1, 8, 64, 512, 4096]
STRONG_NODES = [8, 64, 512, 4096]


@pytest.fixture(scope="module")
def measured_rate(rng):
    """Single-core cell-update rate of the real 6D p=1 modal kernels."""
    conf = Grid([0.0] * 3, [1.0] * 3, [2, 2, 2])
    vel = Grid([-2.0] * 3, [2.0] * 3, [4, 4, 4])
    pg = PhaseGrid(conf, vel)
    solver = VlasovModalSolver(pg, 1, "serendipity")
    f = rng.standard_normal(conf.cells + (solver.num_basis,) + vel.cells)
    em = rng.standard_normal(conf.cells + (8, solver.num_conf_basis))
    out = np.zeros_like(f)
    solver.rhs(f, em, out)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 1.0:
        solver.rhs(f, em, out)
        n += 1
    rate = n * pg.num_cells / (time.perf_counter() - t0)
    return rate, solver


# KNL-equivalent core rate derived from the paper's own efficiency metric:
# 1.67e7 DOFs/s/core at 112 DOF/cell => ~1.5e5 cell updates/s/core.
PAPER_CORE_RATE = 1.67e7 / 112


@pytest.mark.paper
def test_fig3_weak_scaling(benchmark, measured_rate):
    rate, solver = measured_rate
    base = ProblemSpec((8, 8, 8), (16, 16, 16), num_basis=solver.num_basis)

    def both_series():
        ours = weak_scaling_series(
            ClusterModel(cell_updates_per_second_core=rate), base, WEAK_NODES
        )
        knl = weak_scaling_series(
            ClusterModel(cell_updates_per_second_core=PAPER_CORE_RATE),
            base, WEAK_NODES,
        )
        return ours, knl

    ours, knl = benchmark.pedantic(both_series, iterations=1, rounds=1)
    print("\n=== Fig. 3 (left): weak scaling, 6D p=1 Np=64, two species ===")
    print("(measured-rate nodes = this machine's NumPy kernels; KNL-rate = "
          "core speed implied by the paper's 1.67e7 DOFs/s/core)")
    print(f"{'nodes':>6s} {'norm (ours)':>12s} {'halo (ours)':>11s} "
          f"{'norm (KNL)':>11s} {'halo (KNL)':>11s}   paper: <=25% halo at 4096")
    for a, b in zip(ours, knl):
        print(f"{a['nodes']:6d} {a['normalized']:12.2f} {a['halo_fraction']:11.0%} "
              f"{b['normalized']:11.2f} {b['halo_fraction']:11.0%}")
    # The finding, not an assertion: the model's network is Theta's whatever
    # the kernel rate, so every kernel speed-up on this box makes the same
    # halo exchange a larger share of the step.
    print(f"measured rate {rate:,.0f} cell updates/s/core "
          f"({rate / PAPER_CORE_RATE:.1f}x the paper's core): "
          f"{ours[-1]['halo_fraction']:.0%} of a step in halo exchange at "
          f"{ours[-1]['nodes']} nodes, normalised time {ours[-1]['normalized']:.2f}")
    # at the paper's core rate, its near-ideal curve and <=25% halo share
    assert knl[-1]["normalized"] < 1.8
    assert 0.10 < knl[-1]["halo_fraction"] < 0.35


@pytest.mark.paper
def test_fig3_strong_scaling(benchmark, measured_rate):
    rate, solver = measured_rate
    model = ClusterModel(cell_updates_per_second_core=rate)
    problem = ProblemSpec((32, 32, 32), (8, 8, 8), num_basis=solver.num_basis)
    series = benchmark.pedantic(
        strong_scaling_series, args=(model, problem, STRONG_NODES),
        iterations=1, rounds=1,
    )
    print("\n=== Fig. 3 (right): strong scaling, 6D p=1 ===")
    print(f"{'nodes':>6s} {'speedup':>8s} {'ideal':>6s} {'halo':>6s}   paper: ~60x at 512x nodes")
    for rec in series:
        print(f"{rec['nodes']:6d} {rec['speedup']:8.1f} {rec['ideal_speedup']:6.0f} "
              f"{rec['halo_fraction']:6.0%}")
    final = series[-1]["speedup"]
    assert 30 < final < 120  # the paper's ~60x, with model slack


@pytest.mark.paper
def test_fig3_memory_saving(benchmark):
    rep = benchmark.pedantic(
        memory_report,
        kwargs=dict(
            conf_cells=(64, 64, 64), vel_cells=(16, 16, 16),
            nodes=64, cores_per_node=64, num_basis=64, num_species=2,
        ),
        iterations=1, rounds=1,
    )
    print("\n=== Sec. IV: shared-memory node-memory saving ===")
    print(f"shared: {rep['shared_node_bytes']/2**30:.1f} GiB/node, "
          f"pure-MPI: {rep['pure_mpi_node_bytes']/2**30:.1f} GiB/node, "
          f"saving {rep['saving_factor']:.2f}x (paper: 2-3x)")
    assert 1.8 <= rep["saving_factor"] <= 3.5


@pytest.mark.paper
def test_fig3_decomposed_step(benchmark):
    """Time one ``process:2`` step (real shared-memory halo exchange); it
    must equal the serial step bitwise and move the Fig. 3 model's bytes."""
    spec = build("weibel_2x2v", nx=6, nv=10, poly_order=1, steps=1)
    serial = build_app(spec)
    dt = 0.5 * serial.suggested_dt()
    serial.step(dt)
    app = build_app(spec.with_overrides({"backend": "process:2"}))
    try:
        benchmark.pedantic(app.step, args=(dt,), iterations=1, rounds=1)
        measured = app.halo_stats["f"]["doubles"]
        for key, want in serial.state().items():
            assert np.array_equal(want, app.state()[key]), key
    finally:
        app.close()
    model = ShardPlan.create(spec.conf_grid.cells, 2).model_halo_doubles(
        app.solvers["elc"].num_basis, spec.species[0].velocity_grid.cells
    )
    assert measured == 3 * model  # ssp-rk3: one halo exchange per stage

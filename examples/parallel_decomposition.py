#!/usr/bin/env python
"""The two-level decomposition of Sec. IV, end to end.

1. Runs a full Weibel simulation through ``repro.dist``: configuration-cell
   blocks on **real worker processes** with shared-memory halo exchange,
   verified bit-identical to the serial run, with measured halo traffic
   compared against the analytic model for the same decomposition.
2. Reports the exact node-memory saving of the shared-memory velocity
   decomposition (the paper's 2-3x claim) for the paper's 6D problem size.
3. Produces the Fig. 3 weak/strong scaling curves from the calibrated
   cluster model driven by this machine's measured kernel rate.

Run:  PYTHONPATH=src python examples/parallel_decomposition.py
"""

import os
import time

import numpy as np

from repro import Grid, PhaseGrid, VlasovModalSolver
from repro.dist import (
    ClusterModel,
    ProblemSpec,
    ShardPlan,
    memory_report,
    strong_scaling_series,
    weak_scaling_series,
)
from repro.runtime import build
from repro.runtime.driver import build_app


def real_sharded_execution():
    """Section 1: actual concurrency through the ``process:N`` backend.
    Returns whether every bitwise and halo-vs-model check held."""
    print("=== real process-sharded execution (repro.dist) ===")
    spec = build("weibel_2x2v", nx=6, nv=10, poly_order=1, steps=4)
    serial = build_app(spec)
    dt = 0.5 * serial.suggested_dt()
    start = time.perf_counter()
    for _ in range(spec.steps):
        serial.step(dt)
    t_serial = (time.perf_counter() - start) / spec.steps
    ref = {k: np.array(v) for k, v in serial.state().items()}

    stages = 3  # ssp-rk3: one halo exchange per stage
    ok = True
    for n in (2, 4):
        app = build_app(spec.with_overrides({"backend": f"process:{n}"}))
        try:
            start = time.perf_counter()
            for _ in range(spec.steps):
                app.step(dt)
            t_shard = (time.perf_counter() - start) / spec.steps
            bitwise = all(
                np.array_equal(ref[k], v) for k, v in app.state().items()
            )
            measured = app.halo_stats["f"]["doubles"] / spec.steps
            plan = ShardPlan.create(spec.conf_grid.cells, n)
            npb = app.solvers["elc"].num_basis
            model = stages * plan.model_halo_doubles(
                npb, spec.species[0].velocity_grid.cells
            )
            halo_ok = measured == model
            ok = ok and bitwise and halo_ok
            print(
                f"  process:{n}: {1e3 * t_shard:7.2f} ms/step "
                f"(serial {1e3 * t_serial:.2f}; {t_serial / t_shard:.2f}x), "
                f"bitwise={'OK' if bitwise else 'FAIL'}, "
                f"halo {8 * measured / 1e6:.3f} MB/step measured "
                f"vs {8 * model / 1e6:.3f} model="
                f"{'OK' if halo_ok else 'FAIL'}"
            )
        finally:
            app.close()
    print("  (speedup needs real cores; this machine has "
          f"{os.cpu_count()} — the bitwise and traffic checks hold regardless)")
    return ok


def main():
    ok = real_sharded_execution()

    rng = np.random.default_rng(7)
    conf = Grid([0.0, 0.0], [1.0, 1.0], [6, 6])
    vel = Grid([-2.0, -2.0], [2.0, 2.0], [6, 6])
    pg = PhaseGrid(conf, vel)
    solver = VlasovModalSolver(pg, 1, "serendipity")
    f = rng.standard_normal(conf.cells + (solver.num_basis,) + vel.cells)
    em = rng.standard_normal(conf.cells + (8, solver.num_conf_basis))

    print("\n=== shared-memory node-memory saving (paper: 2-3x) ===")
    rep = memory_report(
        conf_cells=(64, 64, 64), vel_cells=(16, 16, 16),
        nodes=64, cores_per_node=64, num_basis=64, num_species=2,
    )
    print(f"  shared velocity decomposition : {rep['shared_node_bytes']/2**30:8.1f} GiB/node")
    print(f"  pure per-core decomposition   : {rep['pure_mpi_node_bytes']/2**30:8.1f} GiB/node")
    print(f"  saving factor                 : {rep['saving_factor']:.2f}x")

    print("\n=== measured single-core kernel rate on this machine ===")
    n_eval = 5
    t0 = time.perf_counter()
    for _ in range(n_eval):
        solver.rhs(f, em)
    rate = n_eval * pg.num_cells / (time.perf_counter() - t0)
    print(f"  {rate:,.0f} cell updates/s (full volume+surface update)")

    model = ClusterModel(cell_updates_per_second_core=rate)
    print("\n=== Fig. 3 (left): weak scaling, 6D p=1, base (8,8,8,16,16,16) ===")
    base = ProblemSpec((8, 8, 8), (16, 16, 16), num_basis=64)
    for rec in weak_scaling_series(model, base, [1, 8, 64, 512, 4096]):
        print(f"  {rec['nodes']:5d} nodes: normalized t/step "
              f"{rec['normalized']:.2f}  (halo {rec['halo_fraction']:.0%})")

    print("\n=== Fig. 3 (right): strong scaling, 6D p=1, (32^3, 8^3) ===")
    model2 = ClusterModel(cell_updates_per_second_core=rate)
    prob = ProblemSpec((32, 32, 32), (8, 8, 8), num_basis=64)
    for rec in strong_scaling_series(model2, prob, [8, 64, 512, 4096]):
        print(f"  {rec['nodes']:5d} nodes: speedup {rec['speedup']:6.1f} "
              f"(ideal {rec['ideal_speedup']:4.0f}, halo {rec['halo_fraction']:.0%})")
    print("  paper: ~60x at 512x more nodes, ~4x per 8x node step")
    if not ok:
        raise SystemExit("sharded run differs from serial or from the halo model")


if __name__ == "__main__":
    main()

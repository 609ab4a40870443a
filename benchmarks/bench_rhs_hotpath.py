"""RHS hot-path micro-benchmark: cell-major engine vs preserved baselines.

Measures the modal Vlasov–Maxwell right-hand side — the kernel the paper's
throughput claims live or die on — through three paths in one process (so
machine drift cancels):

* the current **cell-major** plan-cached engine (:mod:`repro.engine`);
* the PR 2 **mode-major** plan-cached engine preserved in
  :mod:`_modemajor_rhs` (same plan design, phase-major state with
  transform-assign shims and strided face gathers) — the ratio against it
  is the speedup attributable to the layout change alone;
* the seed reference preserved in :mod:`_legacy_rhs` (lazy single-plan
  grouped operators, per-call temporaries, allocating stage outputs).

Results are printed and optionally written as JSON for CI trend tracking.

The JSON also records the plan-compilation counters of the engine build
(compiles, disk-cache hits/misses, sweep kernels built/loaded, compile wall
seconds), so a CI pair of cold+warm runs against one ``--cache`` directory
can assert the warm run compiled nothing.

Usage::

    python benchmarks/bench_rhs_hotpath.py                  # weibel config
    python benchmarks/bench_rhs_hotpath.py --config two_stream
    python benchmarks/bench_rhs_hotpath.py --smoke --json bench.json
    python benchmarks/bench_rhs_hotpath.py --require-speedup 2.0
    python benchmarks/bench_rhs_hotpath.py --require-layout-speedup 1.15
    python benchmarks/bench_rhs_hotpath.py --cache /tmp/plans   # twice: cold, warm
    python benchmarks/bench_rhs_hotpath.py --require-obs-overhead 0.02

Not collected by pytest (no ``test_`` functions) — run it as a script.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _legacy_rhs import LegacyCoupledRhs, LegacyRhs  # noqa: E402
from _modemajor_rhs import ModeMajorCoupledRhs, ModeMajorSolverRhs  # noqa: E402

from repro.engine.layout import phase_to_mode_major  # noqa: E402
from repro.runtime import SimulationSpec, build, build_app  # noqa: E402
from repro.runtime.spec import FieldInitSpec, GridSpec, SpeciesSpec  # noqa: E402


def _two_stream_maxwell_spec(nx: int, nv: int) -> SimulationSpec:
    """The two-stream configuration as a Vlasov–Maxwell run (1X1V)."""
    k = 0.5
    length = 2.0 * math.pi / k
    return SimulationSpec(
        name="two_stream_maxwell",
        model="maxwell",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-8.0,), (8.0,), (nv,)),
                initial={
                    "kind": "counter_beams",
                    "drift": 2.0,
                    "vt": 0.5,
                    "perturbation": {"amp": 1e-4, "k": k},
                },
            ),
        ),
        field=FieldInitSpec(
            initial={"Ex": {"kind": "sine", "amp": 2e-4, "k": k}}
        ),
        poly_order=2,
        cfl=0.6,
        t_end=1.0,
    )


def _build(config: str, smoke: bool, cache: str):
    overrides = {"plan_cache": cache}
    if config == "weibel":
        nx, nv = (4, 8) if smoke else (6, 14)
        spec = build("weibel_2x2v", nx=nx, nv=nv).with_overrides(overrides)
    elif config == "two_stream":
        nx, nv = (8, 16) if smoke else (24, 48)
        spec = _two_stream_maxwell_spec(nx, nv).with_overrides(overrides)
    else:
        raise SystemExit(f"unknown config {config!r} (weibel, two_stream)")
    return spec, build_app(spec)


def _best(fn, repeats: int, iters: int) -> float:
    """Best-of mean seconds per call (min over repeats averages out noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def _best_pair(fn_a, fn_b, repeats: int, iters: int):
    """Interleaved best-of A/B timing: alternate the two callables within
    each repeat so clock drift and cache warmth hit both equally."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn_a()
        best_a = min(best_a, (time.perf_counter() - t0) / iters)
        t0 = time.perf_counter()
        for _ in range(iters):
            fn_b()
        best_b = min(best_b, (time.perf_counter() - t0) / iters)
    return best_a, best_b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="weibel", help="weibel | two_stream")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes / few reps (CI)")
    ap.add_argument("--json", default=None, metavar="PATH", help="write results as JSON")
    ap.add_argument(
        "--cache",
        default="off",
        help="plan disk cache: off (default — measure pure compiles), auto, "
        "or a directory; run twice against the same directory to measure "
        "cold vs warm compilation",
    )
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--iters", type=int, default=None)
    ap.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        help="exit nonzero unless the coupled-RHS speedup over the seed "
        "reference reaches this factor",
    )
    ap.add_argument(
        "--require-layout-speedup",
        type=float,
        default=None,
        help="exit nonzero unless the coupled-RHS speedup over the "
        "mode-major PR 2 engine reaches this factor",
    )
    ap.add_argument(
        "--require-obs-overhead",
        type=float,
        default=None,
        metavar="FRAC",
        help="exit nonzero if the observability-off coupled RHS (guarded "
        "wrapper, one flag check) is more than FRAC slower than the "
        "unwrapped body (e.g. 0.02 for 2%%)",
    )
    args = ap.parse_args(argv)

    from repro.cas.codegen import select_tier
    from repro.engine.compile import STATS

    repeats = args.repeats or (2 if args.smoke else 5)
    iters = args.iters or (3 if args.smoke else 8)

    stats0 = STATS.snapshot()
    spec, app = _build(args.config, args.smoke, args.cache)
    name = app.species[0].name
    solver = app.solvers[name]
    cdim = app.conf_grid.ndim
    f, em = app.f[name], app.em
    state = app.state()

    # mode-major copies of the same state for the preserved baselines
    # (conversion happens once here, outside every timed region)
    def to_mm(key, arr):
        if key == "em":  # (*cfg, comp, Npc) -> (comp, Npc, *cfg)
            return np.ascontiguousarray(np.moveaxis(arr, (-2, -1), (0, 1)))
        return phase_to_mode_major(arr, cdim)

    state_mm = {k: to_mm(k, v) for k, v in state.items()}
    f_mm, em_mm = state_mm[f"f/{name}"], state_mm["em"]

    legacy_solver = LegacyRhs(solver)
    legacy_coupled = LegacyCoupledRhs(app)
    mm_solver = ModeMajorSolverRhs(solver)
    mm_coupled = ModeMajorCoupledRhs(app)
    out = np.zeros_like(f)
    out_mm = np.zeros_like(f_mm)
    out_state = {k: np.empty_like(v) for k, v in state.items()}
    out_state_mm = {k: np.empty_like(v) for k, v in state_mm.items()}

    # correctness gates: all three paths must produce the same RHS
    ref = legacy_solver(f_mm, em_mm)
    got = phase_to_mode_major(solver.rhs(f, em), cdim)
    scale = max(float(np.max(np.abs(ref))), 1.0)
    rhs_err = float(np.max(np.abs(ref - got))) / scale
    if rhs_err > 1e-12:
        print(f"FATAL: engine RHS deviates from seed reference ({rhs_err:.2e})")
        return 1
    mm_err = float(np.max(np.abs(mm_solver(f_mm, em_mm) - ref))) / scale
    if mm_err > 1e-12:
        print(f"FATAL: mode-major baseline deviates from reference ({mm_err:.2e})")
        return 1

    # warm every plan cache before timing
    solver.rhs(f, em, out)
    app.rhs(state, out=out_state)
    mm_solver(f_mm, em_mm, out_mm)
    mm_coupled(state_mm, out_state_mm)
    legacy_coupled(state_mm)
    plans = STATS.delta(STATS.snapshot(), stats0)

    t_solver_new = _best(lambda: solver.rhs(f, em, out), repeats, iters)
    t_solver_mm = _best(lambda: mm_solver(f_mm, em_mm, out_mm), repeats, iters)
    t_solver_old = _best(lambda: legacy_solver(f_mm, em_mm, out_mm), repeats, iters)
    t_app_new = _best(lambda: app.rhs(state, out=out_state), repeats, iters)
    t_app_mm = _best(lambda: mm_coupled(state_mm, out_state_mm), repeats, iters)
    t_app_old = _best(lambda: legacy_coupled(state_mm), repeats, iters)
    dt = app.suggested_dt()
    t_step = _best(lambda: app.step(dt), max(repeats - 1, 1), max(iters // 2, 1))

    # observability-off overhead: System.rhs is the guarded wrapper (one
    # module-level flag check), _rhs_impl is the unwrapped body.  Interleaved
    # A/B with obs forced off isolates the cost of the instrumentation seam.
    from repro.obs import OBS

    OBS.configure("off")
    obs_repeats = max(repeats, 3)
    t_rhs_bare, t_rhs_wrapped = _best_pair(
        lambda: app._rhs_impl(state, out=out_state),
        lambda: app.rhs(state, out=out_state),
        obs_repeats,
        iters,
    )
    obs_overhead = t_rhs_wrapped / t_rhs_bare - 1.0

    result = {
        "config": args.config,
        "smoke": args.smoke,
        "cells": list(app.phase_grids[name].cells),
        "num_basis": solver.num_basis,
        "layout": "cell-major",
        "rhs_rel_err": rhs_err,
        "modemajor_rel_err": mm_err,
        "solver_rhs_ms": {
            "engine": 1e3 * t_solver_new,
            "modemajor": 1e3 * t_solver_mm,
            "legacy": 1e3 * t_solver_old,
        },
        "solver_rhs_speedup": t_solver_old / t_solver_new,
        "solver_layout_speedup": t_solver_mm / t_solver_new,
        "coupled_rhs_ms": {
            "engine": 1e3 * t_app_new,
            "modemajor": 1e3 * t_app_mm,
            "legacy": 1e3 * t_app_old,
        },
        "coupled_rhs_speedup": t_app_old / t_app_new,
        "coupled_layout_speedup": t_app_mm / t_app_new,
        "kernel_tier": select_tier("auto"),
        "plan_cache": args.cache,
        "plans": plans,
        "step_ms": 1e3 * t_step,
        "obs": {
            "bare_rhs_ms": 1e3 * t_rhs_bare,
            "wrapped_rhs_ms": 1e3 * t_rhs_wrapped,
            "off_overhead": obs_overhead,
        },
    }

    print(f"=== RHS hot path — {args.config} "
          f"(cells {result['cells']}, Np={solver.num_basis}"
          f"{', smoke' if args.smoke else ''}) ===")
    print(f"exactness: engine vs seed {rhs_err:.2e} | mode-major vs seed {mm_err:.2e}")
    print(f"solver RHS : engine {1e3*t_solver_new:8.2f} ms | "
          f"mode-major {1e3*t_solver_mm:8.2f} ms | "
          f"legacy {1e3*t_solver_old:8.2f} ms | "
          f"{result['solver_rhs_speedup']:.2f}x vs seed, "
          f"{result['solver_layout_speedup']:.2f}x vs mode-major")
    print(f"coupled RHS: engine {1e3*t_app_new:8.2f} ms | "
          f"mode-major {1e3*t_app_mm:8.2f} ms | "
          f"legacy {1e3*t_app_old:8.2f} ms | "
          f"{result['coupled_rhs_speedup']:.2f}x vs seed, "
          f"{result['coupled_layout_speedup']:.2f}x vs mode-major")
    print(f"plan builds: compiled {plans['compiled']} "
          f"hydrated {plans['hydrated']} "
          f"kernels built {plans['kernels_built']} "
          f"loaded {plans['kernels_loaded']} "
          f"({plans['compile_seconds']:.2f}s, tier={result['kernel_tier']})")
    print(f"full SSP-RK3 step: {1e3*t_step:.2f} ms")
    print(f"obs off-mode : bare {1e3*t_rhs_bare:8.2f} ms | "
          f"wrapped {1e3*t_rhs_wrapped:8.2f} ms | "
          f"overhead {100.0*obs_overhead:+.2f}%")

    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.json}")

    rc = 0
    if args.require_speedup is not None:
        if result["coupled_rhs_speedup"] < args.require_speedup:
            print(f"FAIL: speedup {result['coupled_rhs_speedup']:.2f}x "
                  f"< required {args.require_speedup}x")
            rc = 1
        else:
            print(f"OK: speedup >= {args.require_speedup}x")
    if args.require_layout_speedup is not None:
        if result["coupled_layout_speedup"] < args.require_layout_speedup:
            print(f"FAIL: layout speedup {result['coupled_layout_speedup']:.2f}x "
                  f"< required {args.require_layout_speedup}x")
            rc = 1
        else:
            print(f"OK: layout speedup >= {args.require_layout_speedup}x")
    if args.require_obs_overhead is not None:
        if obs_overhead > args.require_obs_overhead:
            print(f"FAIL: obs off-mode overhead {100.0*obs_overhead:.2f}% "
                  f"> allowed {100.0*args.require_obs_overhead:.2f}%")
            rc = 1
        else:
            print(f"OK: obs off-mode overhead <= "
                  f"{100.0*args.require_obs_overhead:.2f}%")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())

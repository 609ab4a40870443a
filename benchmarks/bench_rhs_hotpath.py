"""RHS hot-path micro-benchmark of the plan-cached engine.

Times the modal Vlasov–Maxwell right-hand side — the kernel the paper's
throughput claims live or die on — at three levels: one species'
``VlasovModalSolver.rhs``, the coupled ``System.rhs`` (species + current
coupling + Maxwell) and a full SSP-RK3 ``System.step``.  Results are printed
and optionally written as JSON.  (End-to-end numbers and their noise floor
come from the perf ledger, ``benchmarks/ledger/run.py``.)

The JSON also records the plan-compilation counters of the engine build
(compiles, disk-cache hits/misses, sweep kernels built/loaded, compile wall
seconds): run twice against one ``--cache`` directory to see a cold and a
warm build.

``--require-obs-overhead`` is the gate on the cost of the observability seam
in ``off`` mode — the one place it is gated.

Usage::

    python benchmarks/bench_rhs_hotpath.py                  # weibel_2x2v
    python benchmarks/bench_rhs_hotpath.py --config landau_damping   # 1X1V
    python benchmarks/bench_rhs_hotpath.py --smoke --json bench.json
    python benchmarks/bench_rhs_hotpath.py --cache /tmp/plans   # twice: cold, warm
    python benchmarks/bench_rhs_hotpath.py --require-obs-overhead 0.02

Not collected by pytest (no ``test_`` functions) — run it as a script.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.runtime import build, build_app


#: Vlasov–Maxwell scenarios of the registry -> (nx, nv) for (--smoke, full)
CONFIGS = {
    "weibel_2x2v": ((4, 8), (6, 14)),
    "landau_damping": ((8, 16), (24, 48)),
}


def _best(fn, repeats: int, iters: int) -> float:
    """Best-of mean seconds per call (min over repeats averages out noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def _paired(fn_a, fn_b, pairs: int = 200):
    """A/B timing of two near-equal callables: back-to-back calls, the order
    alternating from pair to pair, and the medians of A's time and of the
    paired difference B - A — drift cancels inside a pair, and a disturbed
    pair is an outlier the median ignores (for a 1 ms call on a shared 2-core
    box, best-of means of a few calls spread +-5 %, this under +-2 %)."""
    clock = time.perf_counter
    t_a, diff = [], []
    for i in range(pairs):
        first, second = (fn_a, fn_b) if i % 2 else (fn_b, fn_a)
        t0 = clock()
        first()
        t1 = clock()
        second()
        t2 = clock()
        a, b = (t1 - t0, t2 - t1) if i % 2 else (t2 - t1, t1 - t0)
        t_a.append(a)
        diff.append(b - a)
    return float(np.median(t_a)), float(np.median(diff))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="weibel_2x2v", choices=sorted(CONFIGS))
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
    from repro.engine.compile import plan_counts
    from repro.obs import OBS

    repeats = args.repeats or (2 if args.smoke else 5)
    iters = args.iters or (3 if args.smoke else 8)

    nx, nv = CONFIGS[args.config][0 if args.smoke else 1]
    # build_app starts the metrics window the plan counts are read from
    app = build_app(build(args.config, nx=nx, nv=nv, plan_cache=args.cache))
    name = app.species[0].name
    solver = app.solvers[name]
    f, em = app.f[name], app.em
    state = app.state()
    out = np.zeros_like(f)
    out_state = {k: np.empty_like(v) for k, v in state.items()}

    # compile (or hydrate) every plan before timing
    solver.rhs(f, em, out)
    app.rhs(state, out=out_state)
    plans = plan_counts(OBS.metrics.snapshot())

    t_solver = _best(lambda: solver.rhs(f, em, out), repeats, iters)
    t_app = _best(lambda: app.rhs(state, out=out_state), repeats, iters)
    dt = app.suggested_dt()
    t_step = _best(lambda: app.step(dt), max(repeats - 1, 1), max(iters // 2, 1))

    # observability-off overhead: System.rhs is the guarded wrapper (one
    # module-level flag check), _rhs_impl is the unwrapped body.  Paired A/B
    # with obs forced off isolates the cost of the instrumentation seam.
    OBS.configure("off")
    t_rhs_bare, t_seam = _paired(
        lambda: app._rhs_impl(state, out=out_state),
        lambda: app.rhs(state, out=out_state),
    )
    t_rhs_wrapped = t_rhs_bare + t_seam
    obs_overhead = t_seam / t_rhs_bare

    result = {
        "config": args.config,
        "smoke": args.smoke,
        "cells": list(app.phase_grids[name].cells),
        "num_basis": solver.num_basis,
        "solver_rhs_ms": 1e3 * t_solver,
        "coupled_rhs_ms": 1e3 * t_app,
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
    print(f"solver RHS : {1e3*t_solver:8.2f} ms")
    print(f"coupled RHS: {1e3*t_app:8.2f} ms")
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

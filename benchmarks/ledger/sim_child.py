"""One fresh process of a simulation workload's end-to-end pass.

set-up (import -> build -> Driver -> first step) -> one ``Driver.run()`` ->
timed steady-state step segments -> close -> further ``Driver.run()`` blocks
on fresh Drivers -> untimed verification.  Reports
raw samples and ``perf_counter`` stamps; the harness turns them into metrics.
"""

import time

T_ENTER = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import Checks, report, sha256_file  # noqa: E402

WARMUP_STEPS = 5
STAGES = {"ssp-rk3": 3, "ssp-rk2": 2, "forward-euler": 1}


def state_digest(state) -> str:
    h = hashlib.sha256()
    for key in sorted(state):
        h.update(key.encode())
        h.update(state[key].tobytes())
    return h.hexdigest()


def timed_segments(app, seg_steps: int, budget_s: float):
    """Segments of consecutive individually-timed steps, at least two, until
    the budget would be overrun by one more."""
    out = []
    begin = time.perf_counter()
    while True:
        seg = []
        for _ in range(seg_steps):
            t = time.perf_counter()
            app.step(app.suggested_dt())
            seg.append(time.perf_counter() - t)
        out.append(seg)
        elapsed = time.perf_counter() - begin
        if len(out) >= 2 and elapsed * (1 + 1 / len(out)) > budget_s:
            return out


def halo_model_doubles(spec, app) -> int:
    """Fig. 3-model distribution-function halo doubles per step of a
    sharded app: ``ShardPlan.model_halo_doubles`` per exchange, one
    exchange per RK stage."""
    from repro.dist import ShardPlan

    sp = spec.species[0]
    plan = ShardPlan.create(spec.conf_grid.cells, app.nshards)
    return (
        plan.model_halo_doubles(app.solvers[sp.name].num_basis, sp.velocity_grid.cells)
        * STAGES[spec.stepper]
    )


def rss_mib() -> float:
    """Peak RSS of this process plus its reaped children (shard workers)."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def main(cfg: dict) -> dict:
    t_import0 = time.perf_counter()
    import numpy as np
    import repro.runtime as rt
    from repro.cas.codegen import select_tier

    t_imported = time.perf_counter()
    checks = Checks(cfg["workload"])
    run_steps = cfg["run_steps"]
    overrides = dict(cfg["overrides"])
    overrides.update(
        {
            "steps": run_steps,
            "plan_cache": cfg["cache"],
            "diagnostics.energy_interval": 1,
            "diagnostics.checkpoint_interval": cfg["checkpoint_interval"],
        }
    )
    spec = rt.build(cfg["scenario"], **overrides)
    outdir = Path(cfg["outdir"])
    out = {
        "import_s": t_imported - t_import0,
        "t_enter": T_ENTER,
        "kernel_tier": select_tier(),
    }

    drv = rt.Driver(spec, outdir=outdir)
    try:
        app = drv.app
        numbers0 = app.observables()
        app.step(app.suggested_dt())
        out["t_ready"] = time.perf_counter()
        summary = drv.run()
        out["t_done"] = time.perf_counter()
        out["run_walls_s"] = [out["t_done"] - out["t_ready"]]
        out["plans"] = summary["plans"]
        out["diag_sha"] = sha256_file(outdir / "diagnostics.jsonl")
        checks.ok(summary["steps"])
        checks.check("run reached the step cap", summary["steps"] == run_steps,
                     f"{summary['steps']} != {run_steps}")
        drift = summary.get("energy_drift", float("inf"))
        checks.check("total-energy drift", drift <= cfg["energy_tol"],
                     f"{drift:.3e} > {cfg['energy_tol']:.1e}")
        for key, n0 in numbers0.items():
            n1 = app.observables()[key]
            checks.check(f"{key} drift", abs(n1 - n0) <= 1e-10 * abs(n0),
                         f"{abs(n1 - n0) / abs(n0):.3e}")

        # the uninterrupted continuation the resume check compares against;
        # these raw steps double as the segments' warm-up
        resume_steps = cfg["resume_steps"]
        for _ in range(max(resume_steps, WARMUP_STEPS)):
            app.step(app.suggested_dt())
            if app.step_count == run_steps + resume_steps:
                reference = state_digest(app.state())
        halo0 = app.halo_stats["f"]["doubles"] if cfg["sharded"] else 0
        steps0 = app.step_count
        segs = timed_segments(app, cfg["segment_steps"], cfg["segment_seconds"])
        out["segments_ms"] = [[1e3 * s for s in seg] for seg in segs]
        nseg_steps = app.step_count - steps0
        checks.ok(max(resume_steps, WARMUP_STEPS) + nseg_steps)
        if cfg["sharded"]:
            model = halo_model_doubles(spec, app)
            measured = (app.halo_stats["f"]["doubles"] - halo0) / nseg_steps
            out["halo_doubles_per_step"] = measured
            out["halo_model_doubles_per_step"] = model
            checks.check("measured halo doubles == ShardPlan model",
                         measured == model, f"{measured} != {model}")
        final = app.state()
        checks.check("state finite after every step",
                     all(bool(np.isfinite(v).all()) for v in final.values()))
    finally:
        drv.close()
    out["peak_rss_mb"] = rss_mib()

    # more run-wall blocks from this process, where another process would
    # cost a whole set-up: a fresh Driver on the kernels already generated
    for i in range(cfg["extra_runs"]):
        extra = rt.Driver(spec, outdir=outdir / f"extra-{i}")
        try:
            extra.app.step(extra.app.suggested_dt())
            t = time.perf_counter()
            extra.run()
            out["run_walls_s"].append(time.perf_counter() - t)
        finally:
            extra.close()
        checks.ok(run_steps)
        checks.check("repeated run diagnostics byte-identical",
                     sha256_file(outdir / f"extra-{i}" / "diagnostics.jsonl") == out["diag_sha"])

    if resume_steps:
        resumed = rt.Driver.from_checkpoint(
            outdir / "checkpoint.npz",
            outdir=outdir / "resumed",
            overrides={"steps": run_steps + resume_steps},
        )
        try:
            resumed.run()
            checks.check("checkpoint-resume final state bitwise equal",
                         state_digest(resumed.app.state()) == reference)
        finally:
            resumed.close()
    if cfg["serial_reference"]:
        # process:N must reproduce the serial diagnostics stream byte for byte
        serial = rt.Driver(
            spec.with_overrides({"backend": "numpy"}), outdir=outdir / "serial"
        )
        try:
            serial.app.step(serial.app.suggested_dt())
            serial.run()
        finally:
            serial.close()
        out["serial_diag_sha"] = sha256_file(outdir / "serial" / "diagnostics.jsonl")
    out["checks"] = checks.child_payload()
    return out


if __name__ == "__main__":
    report(main(json.loads(sys.argv[1])))

"""One fresh process of a workload's traced pass: per-layer numbers.

Every layer is timed from outside, around its public call on the workload's
own spec, inside the harness's own spans (the calls of one step in place:
see ``_probe_layers``); the same ``Driver.run()`` then runs with
observability off and under the program's existing
``observability.mode="trace"``, for the numbers outside timing cannot reach
(plan apply inside workers, halo and barrier wait, ``rhs`` self time).
``cold_only`` stops after set-up and reports what an empty plan cache cost.
"""

import json
import sys
from pathlib import Path

from harness import (
    Checks,
    Spans,
    median,
    quietest,
    report,
    shm_segments,
    tail,
)
from sim_child import STAGES, WARMUP_STEPS, halo_model_doubles, timed_segments


def ms(seconds) -> float:
    return 1e3 * median(seconds)


def shm_bytes(names) -> int:
    total = 0
    for name in names:
        try:
            total += Path("/dev/shm", name).stat().st_size
        except OSError:
            pass
    return total


def main(cfg: dict) -> dict:
    spans = Spans(cfg["pass_id"])
    checks = Checks(cfg["workload"])
    m = {}
    detail = {}
    with spans.span(f"pass:{cfg['workload']}"):
        _measure(cfg, spans, checks, m, detail)
    detail["self_seconds"] = spans.self_seconds()
    return {
        "metrics": m,
        "t_ready": detail.pop("t_ready"),
        "detail": detail,
        "spans": spans.export(),
        "checks": checks.child_payload(),
    }


def _measure(cfg, spans, checks, m, detail) -> None:
    with spans.span("runtime.import") as ev:
        import numpy as np
        import repro.runtime as rt
        from repro.io import load_checkpoint, save_checkpoint
        from repro.kernels import (
            get_vlasov_kernels,
            modal_update_multiplications,
            registry_stats,
        )
        from repro.obs.report import load_trace, phase_breakdown
        from repro.serve import spec_digest
    m["runtime.import_s"] = ev["t1"] - ev["t0"]

    out = Path(cfg["outdir"])
    overrides = dict(cfg["overrides"], plan_cache=cfg["cache"])

    def build_spec():
        return rt.build(cfg["scenario"], **overrides)

    m["runtime.spec_build_ms"] = ms(spans.timed("runtime.build", build_spec, 5))
    spec = build_spec()
    m["serve.hash_ms"] = ms(spans.timed("serve.spec_digest", lambda: spec_digest(spec), 20))

    sp0 = spec.species[0]
    with spans.span("kernels.get_vlasov_kernels") as ev:
        kernels = get_vlasov_kernels(
            len(spec.conf_grid.cells), len(sp0.velocity_grid.cells),
            spec.poly_order, spec.family,
        )
    m["kernels.generate_s"] = ev["t1"] - ev["t0"]
    mults = modal_update_multiplications(kernels)["total"]
    m["kernels.mults_per_cell"] = mults
    m["kernels.nnz"] = registry_stats()["total_nnz"]

    sharded = cfg["sharded"]
    serial_spec = spec.with_overrides({"backend": "numpy"}) if sharded else spec
    with spans.span("systems.build_app") as ev:
        drv = rt.Driver(serial_spec, outdir=out / "probe")
    m["systems.build_s"] = ev["t1"] - ev["t0"]
    serial_drv = drv
    try:
        shm0 = shm_segments()
        if sharded:
            with spans.span("dist.build_sharded") as ev:
                drv = rt.Driver(spec, outdir=out / "probe-sharded")
            m["dist.shard_start_s"] = ev["t1"] - ev["t0"] - m["systems.build_s"]
            m["dist.shm_bytes"] = shm_bytes(shm_segments() - shm0)
        app = drv.app
        with spans.span("engine.first_step") as ev:
            app.step(app.suggested_dt())
        detail["t_ready"] = ev["t1"]
        plans = drv.summary()["plans"]
        if cfg["cold_only"]:
            m["engine.plan_compile_s"] = plans["compile_seconds"]
            m["engine.plans_compiled"] = plans["compiled"]
            m["cas.kernels_built"] = plans["kernels_built"]
            return
        m["engine.plan_hydrate_s"] = plans["compile_seconds"]
        m["engine.plans_hydrated"] = plans["hydrated"]
        m["cas.kernels_loaded"] = plans["kernels_loaded"]
        lookups = plans["cache_hits"] + plans["cache_misses"]
        m["engine.cache_hit_ratio"] = plans["cache_hits"] / lookups if lookups else 0.0
        checks.check("warm set-up compiles no plan", plans["compiled"] == 0,
                     f"compiled {plans['compiled']}")

        probe_step_ms = _probe_layers(cfg, spans, checks, m, serial_drv.app, np)
        if sharded:
            serial_drv.close()
        for _ in range(WARMUP_STEPS):
            app.step(app.suggested_dt())
        with spans.span("runtime.step_segments"):
            segs = timed_segments(app, cfg["segment_steps"], cfg["segment_seconds"])
        samples = [1e3 * s for seg in segs for s in seg]
        untraced_ms, _ = quietest([1e3 * median(seg) for seg in segs])
        m["runtime.step_ms_p50"] = median(samples)
        detail["step_tail_pct"], m["runtime.step_ms_tail"] = tail(samples)
        detail["step_samples"] = len(samples)
        if sharded:
            m["dist.scaling_efficiency"] = probe_step_ms / median(samples) / app.nshards
            probe_step_ms = median(samples)

        ckpt = out / "probe.npz"
        meta = {"spec": spec.to_dict(), "time": app.time, "step_count": app.step_count}
        state = app.state()
        m["io.checkpoint_write_ms"] = ms(
            spans.timed("io.save_checkpoint", lambda: save_checkpoint(ckpt, state, meta), 3)
        )
        m["io.checkpoint_bytes"] = ckpt.stat().st_size
        m["io.checkpoint_read_ms"] = ms(
            spans.timed("io.load_checkpoint", lambda: load_checkpoint(ckpt), 3)
        )
        drv.checkpoint(out / "resume.npz")
    finally:
        drv.close()
        serial_drv.close()
    if sharded:
        m["dist.shm_leaked"] = len(shm_segments() - shm0)

    with spans.span("io.resume") as ev:
        resumed = rt.Driver.from_checkpoint(out / "resume.npz", outdir=out / "resumed")
    resumed.close()
    m["io.resume_s"] = ev["t1"] - ev["t0"]

    steps = cfg["run_steps"]
    run_overrides = {
        "steps": steps,
        "diagnostics.checkpoint_interval": cfg["checkpoint_interval"],
    }
    # the same Driver.run() twice: observability off, then the program's
    # own trace mode
    plain = rt.Driver(spec.with_overrides(run_overrides), outdir=out / "untraced")
    try:
        plain.app.step(plain.app.suggested_dt())  # plans hydrate outside the run
        with spans.span("runtime.driver_run"):
            plain_wall = plain.run()["wall_time"]
    finally:
        plain.close()
    tdrv = rt.Driver(
        spec.with_overrides(dict(run_overrides, **{"observability.mode": "trace"})),
        outdir=out / "traced",
    )
    try:
        tdrv.app.step(tdrv.app.suggested_dt())
        base = tdrv.summary()["obs"]["metrics"]
        with spans.span("runtime.driver_run_traced"):
            summary = tdrv.run()
        final = summary["obs"]["metrics"]
        # counters of the run alone; gauges and losses as they ended
        obs = {k: final[k] - base[k] for k in final}
        obs["scratch_bytes"] = final["scratch_bytes"]
        obs["spans_dropped"] = final["spans_dropped"]
        checks.ok(2 * summary["steps"])
        steps -= 1  # the run itself, without the set-up step before it
        for _ in range(WARMUP_STEPS):
            tdrv.app.step(tdrv.app.suggested_dt())
        with spans.span("runtime.step_segments_traced"):
            tsegs = timed_segments(tdrv.app, cfg["segment_steps"], cfg["segment_seconds"])
        if sharded:
            halo_doubles = tdrv.app.halo_stats["f"]["doubles"]
            halo_model = halo_model_doubles(spec, tdrv.app)
    finally:
        tdrv.close()
    traced_ms, _ = quietest([1e3 * median(seg) for seg in tsegs])
    m["obs.trace_overhead"] = traced_ms / untraced_ms - 1.0
    events = load_trace(out / "traced" / "trace.json")
    phases = phase_breakdown(events)
    m["obs.spans_recorded"] = len(events)
    m["obs.spans_dropped"] = obs["spans_dropped"]
    m["engine.plan_apply_ms_per_step"] = obs["plan_apply_ms"] / steps
    m["engine.plan_applies_per_step"] = obs["plan_applies"] / steps
    m["engine.scratch_bytes"] = obs["scratch_bytes"]
    m["engine.model_gmults_per_s"] = (
        mults * cfg["cells"] * STAGES[spec.stepper] * steps
        / (obs["plan_apply_ms"] * 1e-3) / 1e9
    )
    m["diagnostics.record_ms"] = obs["diag_ms"] / obs["diag_records"]
    diag_bytes = (out / "traced" / "diagnostics.jsonl").stat().st_size
    m["diagnostics.bytes_per_record"] = diag_bytes / obs["diag_records"]
    # what the untraced Driver.run() spends per step outside app.step, the
    # diagnostics records and the checkpoints (unit costs of the latter two
    # come from the traced run's counters)
    interval = cfg["checkpoint_interval"]
    periodic = cfg["run_steps"] // interval if interval else 0
    m["runtime.driver_overhead_ms_per_step"] = (
        1e3 * plain_wall - obs["diag_ms"]
        - periodic * obs["checkpoint_ms"] / obs["checkpoints"]
    ) / steps - probe_step_ms
    rhs_count, _, rhs_self = phases.get("rhs", (0, 0.0, 0.0))
    detail["rhs_self_ms_traced"] = 1e3 * rhs_self / max(rhs_count, 1)
    detail["traced_phases_self_ms"] = {k: 1e3 * v[2] for k, v in phases.items()}
    if sharded:
        m["dist.halo_wait_ms_per_step"] = obs["halo_wait_ms"] / steps
        m["dist.barrier_wait_ms_per_step"] = obs["barrier_wait_ms"] / steps
        total_steps = steps + 1 + WARMUP_STEPS + sum(len(seg) for seg in tsegs)
        m["dist.halo_bytes_per_step"] = 8 * halo_doubles / total_steps
        m["dist.halo_model_bytes_per_step"] = 8 * halo_model
        checks.check(
            "measured halo bytes == Fig. 3 model",
            m["dist.halo_bytes_per_step"] == m["dist.halo_model_bytes_per_step"],
            f"{m['dist.halo_bytes_per_step']} != {m['dist.halo_model_bytes_per_step']}",
        )


def _probe_layers(cfg, spans, checks, m, app, np) -> float:
    """Per-layer times of the (serial) system, measured in place: the
    harness drives the system's own stepper with an RHS it composes from the
    system's blocks — the calls ``System.rhs`` makes, each inside a span —
    so every layer sees the cache state of a real step.  Self time (a span
    minus the interval its children cover) is the RHS glue for ``systems.rhs``
    and the stage arithmetic for the step.  Returns the real step time in ms.
    """
    reps = cfg["reps"]

    def rhs_into(state, out):
        with spans.span("systems.rhs"):
            with spans.span("fields.em_for_species"):
                em = app.field.em_for_species(app, state)
            for blk in app.blocks:
                f, df = state[f"f/{blk.name}"], out[f"f/{blk.name}"]
                with spans.span("vlasov.solver_rhs"):
                    blk.solver.rhs(f, em, out=df)
                if blk.collisions is not None:
                    with spans.span("collisions.rhs"):
                        blk.collisions.rhs(f, blk.moments, out=df, accumulate=True)
            with spans.span("fields.accumulate_rhs"):
                app.field.accumulate_rhs(app, state, out)

    def composed_step(dt):
        state = app.state()
        if app.field.in_state and not app.field.evolves:
            state.pop("em")
        with spans.span("timestepping.step"):
            app.stepper.step_inplace(state, rhs_into, dt)
        app.time += dt
        app.step_count += 1

    # the composition must be the system's own step, bit for bit
    dt = app.suggested_dt()
    start = {k: v.copy() for k, v in app.state().items()}
    clock = (app.time, app.step_count)
    composed_step(dt)
    composed = {k: v.copy() for k, v in app.state().items()}
    app.set_state(start)
    app.time, app.step_count = clock
    app.step(dt)
    checks.check(
        "harness-composed step bitwise equals System.step",
        all(np.array_equal(composed[k], v) for k, v in app.state().items()),
    )

    first = len(spans.events)
    for _ in range(WARMUP_STEPS):
        app.step(app.suggested_dt())
    real = []
    for _ in range(reps):  # interleaved, so both see the same machine
        composed_step(app.suggested_dt())
        real += spans.timed("systems.step", lambda: app.step(app.suggested_dt()), 1)
    total, self_ = spans.durations(first)
    m["systems.rhs_ms"] = ms(total["systems.rhs"])
    m["systems.rhs_glue_ms"] = ms(self_["systems.rhs"])
    m["fields.em_for_species_ms"] = ms(total["fields.em_for_species"])
    m["vlasov.solver_rhs_ms"] = ms(total["vlasov.solver_rhs"])
    if "collisions.rhs" in total:
        m["collisions.rhs_ms"] = ms(total["collisions.rhs"])
    m["fields.accumulate_rhs_ms"] = ms(total["fields.accumulate_rhs"])
    m["timestepping.stage_arith_ms"] = ms(self_["timestepping.step"])
    # every layer self time of a step is inside the composed step's span
    m["obs.layer_coverage"] = median(total["timestepping.step"]) / median(real)

    state = app.state()
    em = app.field.em_for_species(app, state)

    def frequencies():
        for blk in app.blocks:
            blk.solver.max_frequency(em)

    def currents():
        for blk in app.blocks:
            blk.moments.current_density(state[f"f/{blk.name}"], blk.decl.charge)

    m["systems.suggested_dt_ms"] = ms(spans.timed("systems.suggested_dt", app.suggested_dt, reps))
    m["vlasov.max_frequency_ms"] = ms(spans.timed("vlasov.max_frequency", frequencies, reps))
    m["moments.current_ms"] = ms(spans.timed("moments.current_density", currents, reps))
    return ms(real)


if __name__ == "__main__":
    report(main(json.loads(sys.argv[1])))

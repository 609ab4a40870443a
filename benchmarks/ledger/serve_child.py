"""The ``collisional_scan_serve`` workload: one process that hosts the
daemons (and their forked workers) and is the single closed-loop client.

Phases: set-ups (fresh daemon on a fresh store each, warm plan cache) -> on
the last daemon: burst blocks for the time budget, one interactive closed
loop, duplicate blocks, one diagnostics stream, drain.  The traced pass runs
the same phases with ``observability.mode="trace"`` in every job spec.
"""

import json
import os
import random
import sys
import time
from pathlib import Path

from harness import Checks, Spans, median, quietest, report
from sim_child import rss_mib

CLIENT_POLL_S = 0.02
DUP_BLOCKS = 3
DUP_BLOCK = 64
JOB_TIMEOUT_S = 120.0


def main(cfg: dict) -> dict:
    import repro.runtime as rt
    from repro.serve import ServeClient, ServeDaemon

    spans = Spans(cfg["pass_id"])
    checks = Checks(cfg["workload"])
    rng = random.Random(cfg["seed"])
    burst_jobs = cfg["burst_jobs"]
    n_setups = cfg["setups"]
    # seeded distinct collision frequencies, in seeded order; far more than
    # the longest run can submit
    nus = [0.3 + 1e-4 * k for k in rng.sample(range(20000), 2000)]
    overrides = dict(cfg["overrides"], steps=cfg["run_steps"], plan_cache=cfg["cache"])
    if cfg["traced"]:
        overrides["observability.mode"] = "trace"
    workers = max(1, (os.cpu_count() or 2) - 1)
    roots = Path(cfg["root"])

    def next_spec():
        return rt.build(cfg["scenario"], nu=nus.pop(), **overrides)

    def check_result(res):
        checks.check("served job ran every step", res["steps"] == overrides["steps"],
                     f"{res['steps']} steps")
        drift = res.get("energy_drift", float("inf"))
        checks.check("served job total-energy drift", drift <= cfg["energy_tol"],
                     f"{drift:.3e} > {cfg['energy_tol']:.1e}")
        results.append(res)

    results = []
    setups, drains = [], []
    from repro.cas.codegen import select_tier

    out = {"workers": workers, "kernel_tier": select_tier()}

    def start(index):
        """daemon start -> warm-up job's result served."""
        with spans.span("serve.setup") as ev:
            daemon = ServeDaemon(roots / f"store-{index}", workers=workers).start()
            try:
                client = ServeClient.from_dir(daemon.store.root)
                job = client.submit(spec=next_spec())
                res = client.result(job["job"], wait=True, timeout=JOB_TIMEOUT_S,
                                    poll=CLIENT_POLL_S)
            except BaseException:
                daemon.drain(timeout=JOB_TIMEOUT_S)
                raise
        check_result(res)
        setups.append(ev["t1"] - ev["t0"])
        return daemon, client, res

    def drain(daemon):
        with spans.span("serve.drain") as ev:
            clean = daemon.drain(timeout=JOB_TIMEOUT_S)
        drains.append(ev["t1"] - ev["t0"])
        checks.check("drain joined every worker", clean and daemon.pool.alive() == 0)

    with spans.span(f"pass:{cfg['workload']}"):
        for index in range(n_setups - 1):
            drain(start(index)[0])
        daemon, client, res = start(n_setups - 1)
        try:
            out["warm_plans"] = res["plans"]
            checks.check("warm job compiles no plan", res["plans"]["compiled"] == 0,
                         f"compiled {res['plans']['compiled']}")
            submits = []
            finished = []  # (job id, spec) of every job computed on this daemon

            def submit_new():
                spec = next_spec()
                with spans.span("serve.submit") as ev:
                    job = client.submit(spec=spec)
                submits.append(ev["t1"] - ev["t0"])
                checks.check("new spec is scheduled", job["compute"] == "scheduled",
                             job["compute"])
                finished.append((job["job"], spec))
                return job["job"]

            def wait(job_id):
                with spans.span("serve.result_wait"):
                    res = client.result(job_id, wait=True, timeout=JOB_TIMEOUT_S,
                                        poll=CLIENT_POLL_S)
                check_result(res)
                return res

            # at least three burst blocks, then as many as the budget holds
            burst_walls = []
            begin = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - begin
                n = len(burst_walls)
                if n >= 3 and elapsed * (1 + 1 / n) > cfg["burst_seconds"]:
                    break
                with spans.span("serve.burst") as ev:
                    ids = [submit_new() for _ in range(burst_jobs)]
                    for job_id in ids:
                        wait(job_id)
                burst_walls.append(ev["t1"] - ev["t0"])

            ttfr, queue_wait, overhead = [], [], []
            for _ in range(cfg["loop_jobs"]):
                with spans.span("serve.interactive") as ev:
                    job_id = submit_new()
                    res = wait(job_id)
                ttfr.append(1e3 * (ev["t1"] - ev["t0"]))
                rec = client.job(job_id)
                queue_wait.append(1e3 * (rec["started"] - rec["submitted"]))
                overhead.append(ttfr[-1] - 1e3 * res["wall_time"])

            dup_blocks = []
            duplicates = 0
            for b in range(DUP_BLOCKS):
                hits = []
                for i in range(DUP_BLOCK):
                    job_id, spec = finished[(b * DUP_BLOCK + i) % len(finished)]
                    with spans.span("serve.cached_hit") as ev:
                        again = client.submit(spec=spec)
                        client.result(again["job"])
                    hits.append(1e3 * (ev["t1"] - ev["t0"]))
                    duplicates += 1
                    checks.check("duplicate answered cached",
                                 again["compute"] == "cached" and again["job"] == job_id,
                                 again["compute"])
                dup_blocks.append(median(hits))

            job_id = finished[0][0]
            with spans.span("serve.stream") as ev:
                body = b"".join(client.stream_diagnostics(job_id))
            on_disk = daemon.store.diagnostics_path(job_id).read_bytes()
            checks.check("stream byte-identical to the on-disk file",
                         body == on_disk and len(on_disk) > 0)
            stream_s = ev["t1"] - ev["t0"]
        finally:
            drain(daemon)
    snap = daemon.metrics.snapshot()
    computed = 1 + len(finished)
    checks.check("no job failed", snap["jobs_failed"] == 0, f"{snap['jobs_failed']}")
    checks.check("every new job completed once", snap["jobs_completed"] == computed,
                 f"{snap['jobs_completed']} != {computed}")
    checks.check("every duplicate deduplicated", snap["jobs_deduped"] == duplicates,
                 f"{snap['jobs_deduped']} != {duplicates}")
    out["peak_rss_mb"] = rss_mib()

    # every job shares one initial condition: its particle number is the
    # reference the served results must have kept (built last, so neither
    # the daemons' RSS nor their workers' forked state see this app)
    app = rt.build_app(rt.build(cfg["scenario"], **overrides))
    for key, n0 in app.observables().items():
        name = key.split("/", 1)[1]
        worst = max(abs(r["particle_number"][name] - n0) / abs(n0) for r in results)
        checks.check(f"served {key} drift", worst <= 1e-10, f"{worst:.3e}")

    best_burst, _ = quietest(burst_walls)
    out.update(
        setup_s=setups,
        burst_walls_s=burst_walls,
        job_step_ms=[1e3 * r["wall_per_step"] for r in results],
        layers={
            "serve.submit_ms": 1e3 * median(submits),
            "serve.queue_wait_ms": median(queue_wait),
            "serve.job_overhead_ms": median(overhead),
            "serve.ttfr_ms": median(ttfr),
            "serve.scan_jobs_per_s": burst_jobs / best_burst,
            "serve.cached_hit_ms": quietest(dup_blocks)[0],
            "serve.stream_mb_per_s": len(body) / stream_s / 1e6,
            "serve.jobs_completed": snap["jobs_completed"],
            "serve.jobs_deduped": snap["jobs_deduped"],
            "serve.jobs_failed": snap["jobs_failed"],
            "serve.drain_s": median(drains),
        },
        detail={
            "ttfr_ms": ttfr,
            "cached_hit_blocks_ms": dup_blocks,
            "stream_bytes": len(body),
            "self_seconds": spans.self_seconds(),
        },
        spans=spans.export(),
        checks=checks.child_payload(),
    )
    return out


if __name__ == "__main__":
    report(main(json.loads(sys.argv[1])))

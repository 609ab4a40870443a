"""Command-line entry point: ``python -m repro`` / the ``repro`` script.

Subcommands::

    repro list                         # catalogue of registered scenarios
    repro systems                      # catalogue of registered system kinds
    repro show <scenario>              # the scenario's spec as JSON
    repro run <scenario> [--set k=v]   # build + run one simulation
    repro resume <checkpoint.npz>      # continue an interrupted run
    repro campaign <file.json>         # submit a parameter scan + drain it
    repro worker <store-dir>           # drain a job store (campaign or serve dir)
    repro plans list|clear|warm        # inspect/manage the compiled-plan cache
    repro report <outdir>              # render a run's observability output
    repro serve <dir>                  # job-service daemon (HTTP, dedup, workers)
    repro submit <scenario|spec.json>  # submit a job to a serve daemon
    repro jobs                         # list a serve daemon's jobs

There is one queue.  ``repro campaign`` submits every scan point to the
job store in its ``--outdir`` (jobs keyed by a canonical content hash of
the spec, so a rerun finds finished points ``cached``) and drains it with
``--workers`` lease-heartbeated worker processes; ``--prepare-only`` stops
after the submit.  ``repro worker <dir>`` drains any store directory from
any host sharing the filesystem, and ``repro serve <dir>`` serves the same
directory over HTTP with persistent workers: an identical resubmission
returns the finished result with zero compute, and
``GET /jobs/<id>/diagnostics`` streams the running job's
``diagnostics.jsonl`` incrementally.  SIGTERM drains gracefully.
``repro submit`` and ``repro jobs`` talk to a daemon via ``--url`` or
``--dir <store-dir>`` (the daemon drops a ``serve.json`` rendezvous file).

``repro run ... --trace`` turns on full observability for the run
(``observability.mode=trace``): a Chrome-trace ``trace.json`` (loadable in
Perfetto, one row per sharded worker) and a ``metrics.jsonl`` counter
stream land in the outdir, and ``repro report <outdir>`` renders the
per-phase time breakdown and the top plans by self-time from them.

The compiled-plan disk cache (``~/.cache/repro`` or ``$REPRO_CACHE_DIR``)
is controlled per run through the spec: ``--set plan_cache=off`` disables
it and ``--set plan_cache=/some/dir`` redirects it; ``$REPRO_KERNEL_TIER=numpy``
runs the plans' sparse sweeps without the C compiler (same bits).
``repro plans warm <scenario>`` pre-compiles and stores a scenario's plans
so subsequent runs (including sharded workers) start warm.

``--set key=val`` accepts scenario parameters (``drift=1.5``), spec fields
(``cfl=0.5``, ``steps=10``) and dotted spec paths
(``species.elc.initial.vt=0.4``); values parse as JSON with a plain-string
fallback, so ``--set cells=[8,8]`` and ``--set family=serendipity`` both work.

``--backend process:4`` runs a simulation across four real worker processes
(shared-memory halo exchange, bit-identical to serial).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from ..io.checkpoint import CheckpointError
from .campaign import CampaignSpec, run_campaign
from .driver import Driver
from .errors import SpecError
from .scenarios import build, get_scenario, list_scenarios

__all__ = ["main"]


def _parse_set(pairs: List[str]) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SpecError("--set", f"expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        if not key:
            raise SpecError("--set", f"empty key in {pair!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _print_summary(result: Dict[str, object], as_json: bool) -> None:
    if as_json:
        print(json.dumps(result, indent=2))
        return
    print(f"scenario      : {result['scenario']}")
    print(f"status        : {result['status']}")
    print(f"steps         : {result['steps']}")
    print(f"final time    : {result['time']:.6g}")
    print(f"field energy  : {result['field_energy']:.6e}")
    print(f"total energy  : {result['total_energy']:.6e}")
    if "energy_drift" in result:
        print(f"energy drift  : {result['energy_drift']:.3e}")
    print(f"wall/step     : {1e3 * result['wall_per_step']:.2f} ms")


def _cmd_list(args) -> int:
    scenarios = list_scenarios()
    width = max(len(sc.name) for sc in scenarios)
    for sc in scenarios:
        print(f"{sc.name:<{width}}  {sc.description}")
        if args.verbose:
            for key, default in sc.params.items():
                print(f"{'':<{width}}    {key} = {default}")
    return 0


def _cmd_systems(args) -> int:
    from ..systems.registry import list_system_kinds

    kinds = list_system_kinds()
    width = max(len(k.name) for k in kinds)
    for kind in kinds:
        shard = "" if kind.shardable else "  [no process:N sharding]"
        print(f"{kind.name:<{width}}  {kind.description}{shard}")
    return 0


def _cmd_show(args) -> int:
    spec = build(args.scenario, **_parse_set(args.set))
    print(spec.to_json())
    return 0


def _cmd_run(args) -> int:
    overrides = _parse_set(args.set)
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.trace:
        overrides["observability.mode"] = "trace"
    spec = build(args.scenario, **overrides)
    driver = Driver(spec, outdir=args.outdir, wall_clock_budget=args.budget)
    try:
        result = driver.run()
    finally:
        driver.close()
    _print_summary(result, args.json)
    if not args.json:
        if driver.checkpoint_path is not None:
            print(f"checkpoint    : {driver.checkpoint_path}")
        if args.trace and driver.trace_path is not None:
            print(f"trace         : {driver.trace_path}")
    return 0


def _cmd_resume(args) -> int:
    overrides = _parse_set(args.set)
    if args.backend is not None:
        overrides["backend"] = args.backend
    driver = Driver.from_checkpoint(
        args.checkpoint,
        outdir=args.outdir,
        wall_clock_budget=args.budget,
        overrides=overrides,
    )
    try:
        result = driver.run()
    finally:
        driver.close()
    _print_summary(result, args.json)
    return 0


def _job_progress(record) -> None:
    detail = record.get("error") or ""
    if record["status"] == "done" and record["result"]:
        detail = f"t={record['result']['time']:.4g} steps={record['result']['steps']}"
    print(f"[{record['id'][:16]}] {record['status']} {detail}", flush=True)


def _cmd_campaign(args) -> int:
    campaign = CampaignSpec.from_file(args.file)
    outdir = args.outdir or f"{campaign.name}_out"
    manifest = run_campaign(
        campaign,
        outdir,
        workers=args.workers,
        lease_timeout=_checked_lease_timeout(args.lease_timeout),
        progress=_job_progress,
        drain=not args.prepare_only,
    )
    statuses = [e["status"] for e in manifest["points"].values()]
    # after a drain: points another live worker still holds (or a crashed
    # one's lease still covers)
    unfinished = sum(s in ("queued", "running") for s in statuses)
    if args.prepare_only:
        print(
            f"campaign {campaign.name!r}: {len(statuses)} points "
            f"({unfinished} claimable) submitted to {outdir}; drain with "
            f"`repro worker {outdir}` or `repro serve {outdir}`"
        )
        return 1 if "failed" in statuses else 0
    summary = manifest["summary"]
    print(
        f"campaign {campaign.name!r}: {summary['total']} points — "
        f"{summary['ran']} ran, {summary['skipped']} skipped, "
        f"{summary['failed']} failed"
        + (f", {unfinished} unfinished" if unfinished else "")
        + f" (manifest: {outdir}/manifest.json)"
    )
    return 1 if summary["failed"] or unfinished else 0


def _checked_lease_timeout(value) -> float:
    """Validate ``--lease-timeout`` eagerly so a bad value is a usage
    error (exit 2 with the field named), not a mid-run traceback."""
    from ..dist.lease import validate_lease_timeout

    try:
        return validate_lease_timeout(value)
    except ValueError as exc:
        raise SpecError("--lease-timeout", str(exc)) from exc


def _cmd_worker(args) -> int:
    from ..serve.scheduler import worker_loop
    from ..serve.store import JOBS_DIR

    lease_timeout = _checked_lease_timeout(args.lease_timeout)
    # FileJobStore creates its root; a mistyped directory must stay an error
    if not (Path(args.dir) / JOBS_DIR).is_dir():
        raise SpecError(
            "dir",
            f"{args.dir} is not a job store (no {JOBS_DIR}/ directory); create "
            f"one with `repro campaign <file> --prepare-only --outdir {args.dir}` "
            f"or `repro serve {args.dir}`",
        )
    summary = worker_loop(
        args.dir,
        lease_timeout=lease_timeout,
        exit_when_idle=True,
        max_jobs=args.max_points,
        on_finish=_job_progress,
    )
    print(
        f"worker done: {len(summary['ran'])} points ran, "
        f"{len(summary['failed'])} failed"
    )
    return 1 if summary["failed"] else 0


def _plans_cache(setting: str):
    from ..engine.plancache import PlanCache, resolve_cache_root

    root = resolve_cache_root(setting)
    if root is None:
        raise SpecError("--cache", "the plan cache is disabled ('off')")
    return PlanCache(root)


def _cmd_plans_list(args) -> int:
    cache = _plans_cache(args.cache)
    entries = cache.entries()
    kernels = cache.kernels()
    if args.json:
        print(json.dumps({
            "root": str(cache.root),
            "plans": entries,
            "kernels": [str(p) for p in kernels],
        }, indent=2))
        return 0
    from ._fmt import render_table

    print(f"cache root : {cache.root}")
    total = sum(e.get("bytes", 0) for e in entries)
    print(f"plans      : {len(entries)} entries, {total} bytes")
    rows = []
    for e in entries:
        if e["status"] == "ok":
            detail = f"{e['nout']}x{e['nin']}  cells={e['cell_shape']}"
        else:
            detail = e["status"]
        rows.append((e["digest"][:16], e.get("bytes", 0), detail))
    if rows:
        print(render_table(rows, indent="  ", align=("<", ">", "<")))
    print(f"kernels    : {len(kernels)} compiled objects")
    for p in kernels:
        print(f"  {p.name}")
    return 0


def _cmd_report(args) -> int:
    from ..obs.report import render_report

    print(render_report(args.outdir, top=args.top))
    return 0


def _cmd_serve(args) -> int:
    from ..serve import ServeDaemon

    daemon = ServeDaemon(
        args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        lease_timeout=_checked_lease_timeout(args.lease_timeout),
        poll=args.poll,
    )
    daemon.start()
    print(
        f"serving {args.dir} on {daemon.url} "
        f"({daemon.pool.workers} workers, lease timeout "
        f"{daemon.lease_timeout:g}s); SIGTERM drains",
        flush=True,
    )
    # start() already ran; run() reuses the live listener and blocks
    return daemon.run()


def _serve_client(args):
    from ..serve import ServeClient

    if args.url:
        return ServeClient(args.url)
    return ServeClient.from_dir(args.dir or ".")


def _cmd_submit(args) -> int:
    import os

    from ..serve import ServeError
    from .spec import SimulationSpec

    overrides = _parse_set(args.set)
    try:
        client = _serve_client(args)
        if os.path.isfile(args.scenario):
            spec = SimulationSpec.from_json(Path(args.scenario).read_text())
            if overrides:
                spec = spec.with_overrides(overrides)
            resp = client.submit(spec=spec)
        else:
            resp = client.submit(scenario=args.scenario, overrides=overrides)
        job_id = resp["job"]
        if args.stream:
            for chunk in client.stream_diagnostics(job_id):
                sys.stdout.buffer.write(chunk)
                sys.stdout.buffer.flush()
            final = client.job(job_id)
            return 0 if final["status"] == "done" else 1
        if args.wait:
            result = client.result(job_id, wait=True, timeout=args.timeout)
            if args.json:
                print(json.dumps({**resp, "result": result}, indent=2))
            else:
                print(f"job           : {job_id[:16]} ({resp['compute']})")
                _print_summary(result, as_json=False)
            return 0
        if args.json:
            print(json.dumps(resp, indent=2))
        else:
            print(
                f"job {job_id[:16]} {resp['compute']} "
                f"(status: {resp['status']}, submits: {resp['submits']})"
            )
        return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_jobs(args) -> int:
    from ..serve import ServeError

    try:
        jobs = _serve_client(args).jobs()
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(jobs, indent=2))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    from ._fmt import render_table

    rows = [
        (
            rec["id"][:16],
            rec.get("name") or "?",
            rec["status"],
            rec.get("submits", 0),
            rec.get("attempts", 0),
            rec.get("worker") or "-",
        )
        for rec in jobs
    ]
    print(
        render_table(
            rows,
            header=("job", "scenario", "status", "submits", "attempts", "worker"),
        )
    )
    return 0


def _cmd_plans_clear(args) -> int:
    cache = _plans_cache(args.cache)
    removed = cache.clear()
    print(f"removed {removed} plan entries from {cache.root}")
    return 0


def _cmd_plans_warm(args) -> int:
    """Compile (and store) every plan a scenario's RHS needs, so later runs
    — serial drivers, sharded parents — hydrate instead of compiling."""
    import numpy as np

    from ..engine.compile import STATS
    from .driver import build_app

    cache = _plans_cache(args.cache)
    overrides = _parse_set(args.set)
    # plans only exist per cell shape, so warm with the serial (numpy)
    # backend: that is the shape drivers and sharded parents compile for
    overrides["backend"] = "numpy"
    overrides["plan_cache"] = str(cache.root)
    spec = build(args.scenario, **overrides)
    before = STATS.snapshot()
    app = build_app(spec)
    state = app.state()
    out = {k: np.empty_like(v) for k, v in state.items()}
    app.rhs(state, out=out)
    delta = STATS.delta(STATS.snapshot(), before)
    print(
        f"warmed {args.scenario!r}: compiled {delta['compiled']}, "
        f"hydrated {delta['hydrated']}, stored {delta['cache_stores']}, "
        f"kernels built {delta['kernels_built']}, "
        f"failed {delta['kernels_failed']} (cache: {cache.root})"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    from ..dist.lease import DEFAULT_LEASE_TIMEOUT

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative runtime for the alias-free modal DG kinetic solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("-v", "--verbose", action="store_true", help="show parameters")
    p_list.set_defaults(func=_cmd_list)

    p_systems = sub.add_parser(
        "systems", help="list registered system kinds (SimulationSpec models)"
    )
    p_systems.set_defaults(func=_cmd_systems)

    p_show = sub.add_parser("show", help="print a scenario's spec as JSON")
    p_show.add_argument("scenario")
    p_show.add_argument("--set", action="append", default=[], metavar="KEY=VAL")
    p_show.set_defaults(func=_cmd_show)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VAL")
    p_run.add_argument("--outdir", default=None, help="output/checkpoint directory")
    p_run.add_argument("--budget", type=float, default=None, help="wall-clock budget [s]")
    p_run.add_argument(
        "--backend",
        default=None,
        help="where the cells run: numpy (serial) or process[:N] (N shard processes)",
    )
    p_run.add_argument("--json", action="store_true", help="print the summary as JSON")
    p_run.add_argument(
        "--trace",
        action="store_true",
        help="full observability: write Chrome-trace trace.json + "
        "metrics.jsonl to the outdir (same as --set observability.mode=trace)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_resume = sub.add_parser("resume", help="resume from a checkpoint")
    p_resume.add_argument("checkpoint")
    p_resume.add_argument("--set", action="append", default=[], metavar="KEY=VAL")
    p_resume.add_argument("--outdir", default=None)
    p_resume.add_argument("--budget", type=float, default=None)
    p_resume.add_argument(
        "--backend",
        default=None,
        help="where the cells run: numpy (serial) or process[:N] (N shard processes)",
    )
    p_resume.add_argument("--json", action="store_true")
    p_resume.set_defaults(func=_cmd_resume)

    p_camp = sub.add_parser("campaign", help="run a parameter-scan campaign")
    p_camp.add_argument("file", help="campaign JSON file")
    p_camp.add_argument("--outdir", default=None, help="job store directory")
    p_camp.add_argument("--workers", type=int, default=None)
    p_camp.add_argument(
        "--prepare-only",
        action="store_true",
        help="submit the points and exit without running anything (drain "
        "with `repro worker` or `repro serve` on the same directory)",
    )
    p_camp.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        help="seconds before an unheartbeated claim lease counts as stale",
    )
    p_camp.set_defaults(func=_cmd_campaign)

    p_worker = sub.add_parser(
        "worker", help="claim and run queued jobs from a store directory until idle"
    )
    p_worker.add_argument("dir", help="campaign --outdir or serve directory")
    p_worker.add_argument(
        "--lease-timeout", type=float, default=DEFAULT_LEASE_TIMEOUT
    )
    p_worker.add_argument(
        "--max-points", type=int, default=None, help="stop after N claims"
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_serve = sub.add_parser(
        "serve", help="run the job-service daemon over a store directory"
    )
    p_serve.add_argument("dir", help="job store directory (created if missing)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free one)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="persistent worker processes"
    )
    p_serve.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        help="seconds before a crashed worker's job lease counts as stale",
    )
    p_serve.add_argument(
        "--poll", type=float, default=0.2, help="worker/stream poll interval [s]"
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a job to a running serve daemon"
    )
    p_submit.add_argument(
        "scenario", help="registered scenario name, or a spec JSON file"
    )
    p_submit.add_argument("--set", action="append", default=[], metavar="KEY=VAL")
    p_submit.add_argument("--url", default=None, help="daemon URL (http://host:port)")
    p_submit.add_argument(
        "--dir", default=None,
        help="job store directory (reads the daemon's serve.json)",
    )
    p_submit.add_argument(
        "--wait", action="store_true", help="block until the result is ready"
    )
    p_submit.add_argument(
        "--stream",
        action="store_true",
        help="stream the job's diagnostics.jsonl to stdout until it finishes",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0, help="--wait timeout [s]"
    )
    p_submit.add_argument("--json", action="store_true")
    p_submit.set_defaults(func=_cmd_submit)

    p_jobs = sub.add_parser("jobs", help="list a serve daemon's jobs")
    p_jobs.add_argument("--url", default=None, help="daemon URL (http://host:port)")
    p_jobs.add_argument(
        "--dir", default=None,
        help="job store directory (reads the daemon's serve.json)",
    )
    p_jobs.add_argument("--json", action="store_true")
    p_jobs.set_defaults(func=_cmd_jobs)

    p_plans = sub.add_parser(
        "plans", help="inspect or manage the compiled-plan disk cache"
    )
    plans_sub = p_plans.add_subparsers(dest="action", required=True)
    pp_list = plans_sub.add_parser("list", help="inventory the cache")
    pp_list.add_argument(
        "--cache", default="auto",
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    pp_list.add_argument("--json", action="store_true")
    pp_list.set_defaults(func=_cmd_plans_list)
    pp_clear = plans_sub.add_parser(
        "clear", help="remove every cached plan and compiled kernel"
    )
    pp_clear.add_argument("--cache", default="auto")
    pp_clear.set_defaults(func=_cmd_plans_clear)
    pp_warm = plans_sub.add_parser(
        "warm", help="pre-compile and store a scenario's plans"
    )
    pp_warm.add_argument("scenario")
    pp_warm.add_argument("--set", action="append", default=[], metavar="KEY=VAL")
    pp_warm.add_argument("--cache", default="auto")
    pp_warm.set_defaults(func=_cmd_plans_warm)

    p_report = sub.add_parser(
        "report",
        help="render a run's observability output (trace.json/metrics.jsonl)",
    )
    p_report.add_argument("outdir", help="a Driver output directory")
    p_report.add_argument(
        "--top", type=int, default=10, help="plans to show in the self-time table"
    )
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. `repro list | head`); exit quietly
        # instead of tracebacking, and stop Python's shutdown flush from
        # printing a secondary error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

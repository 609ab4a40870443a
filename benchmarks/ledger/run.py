#!/usr/bin/env python3
"""The repo's perf ledger: one harness, four named workloads, end-to-end
and per-layer metrics (declared in the root ``BENCHMARK.json``).

    python3 benchmarks/ledger/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--json PATH] [--aa]
    python3 benchmarks/ledger/run.py --list
    python3 benchmarks/ledger/run.py --compare A.json B.json

Without ``--trace`` both passes run (end-to-end, then the traced pass) and
both tables print.  ``--trace 0`` runs the end-to-end pass only, ``--trace
1`` the traced pass only, and either prints, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` per
workload.  See README.md beside this file for every definition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import passes  # noqa: E402
from registry import (  # noqa: E402
    END_TO_END,
    END_TO_END_BY_NAME,
    PER_LAYER,
    WORKLOAD_BY_NAME,
    WORKLOADS,
)

DEFAULT_SECONDS = 12
TRACE_FILE = "ledger_trace.json"


# ---------------------------------------------------------------------- #
def environment(seed: int, seconds: float, tiers) -> dict:
    def capture(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
            return out.stdout.splitlines()[0].strip() if out.returncode == 0 else "unknown"
        except (OSError, subprocess.SubprocessError, IndexError):
            return "unknown"

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "kernel_tier": sorted(tiers),
        "cc": capture(["cc", "--version"]),
        "blas_thread_pins": {k: "1" for k in harness.BLAS_PINS},
        "seed": seed,
        "seconds": seconds,
        "git_commit": capture(["git", "-C", str(harness.REPO_ROOT), "rev-parse", "HEAD"]),
    }


def run_workload(w, args) -> dict:
    """Both (or the selected) passes of one workload, inside a private temp
    root that is removed — with any leaked shared-memory segment — on every
    exit path."""
    checks = harness.Checks(w.name)
    out = {"end_to_end": {}, "per_layer": {}, "detail": {}, "spans": []}
    shm0 = harness.shm_segments()
    began = time.perf_counter()
    try:
        with harness.temp_root() as root:
            if args.trace in (None, 0):
                out["end_to_end"], out["detail"] = passes.end_to_end(
                    w, args.seconds, args.seed, root, checks
                )
            if args.trace in (None, 1):
                out["per_layer"], detail, out["spans"] = passes.layers(
                    w, args.seconds, args.seed, root, checks
                )
                out["detail"]["layers"] = detail
    finally:
        leaked = sorted(harness.shm_segments() - shm0)
        for name in leaked:
            if name.startswith("psm_"):  # multiprocessing.shared_memory's own
                try:
                    os.unlink(os.path.join("/dev/shm", name))
                except OSError:
                    pass
        checks.check("no /dev/shm segment left behind", not leaked, ", ".join(leaked))
    out.update(
        attempted=checks.attempted,
        failed=checks.failed,
        failed_share=checks.failed / max(checks.attempted, 1),
        failures=checks.messages,
        wall_s=time.perf_counter() - began,
    )
    return out


def run_all(args) -> dict:
    results = {}
    for name in args.workload:
        results[name] = run_workload(WORKLOAD_BY_NAME[name], args)
        print_workload(name, results[name])
    tiers = {r["detail"].get("kernel_tier") for r in results.values()} - {None}
    return {
        "schema": "repro-ledger/1",
        "environment": environment(args.seed, args.seconds, tiers),
        "workloads": results,
    }


# ---------------------------------------------------------------------- #
def print_workload(name: str, res: dict) -> None:
    say(f"\n== {name}  ({res['wall_s']:.1f} s, {res['attempted']} operations, "
        f"failed_share {res['failed_share']:.3g})")
    for metric, m in res["end_to_end"].items():
        say(f"  {metric:<38s} {m['value']:>14.6g} {m['unit']:<6s} "
            f"spread {100 * m['spread']:5.1f}%  n={m['n']}")
    for metric, m in res["per_layer"].items():
        note = "" if m["applies"] else "  (layer not used here)"
        say(f"  {metric:<38s} {m['value']:>14.6g} {m['unit']:<6s}{note}")
    for msg in res["failures"]:
        say(f"  {msg}")


def say(text: str) -> None:
    print(text, flush=True)


def result_line(res: dict, trace: int) -> str:
    table = res["per_layer"] if trace else res["end_to_end"]
    return json.dumps(
        {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]} for k, m in table.items()
            },
        }
    )


def print_list() -> None:
    print("workloads")
    for w in WORKLOADS:
        print(f"  {w.name:<24s} share {w.share:g}  {w.why}")
    print("end-to-end metrics (every workload)")
    for m in END_TO_END:
        print(f"  {m.name:<24s} {m.unit:<6s} {m.better:<7s} bound {m.bound:g}  {m.what}")
    print("per-layer metrics")
    for m in PER_LAYER:
        print(f"  {m.name:<40s} {m.unit:<6s} {m.better:<7s} layer {m.layer:<13s} "
              f"moves {m.moves} on {', '.join(m.on)}")


# ---------------------------------------------------------------------- #
def _worse_by(metric, base: float, new: float) -> float:
    """Relative change of ``new`` against ``base``, positive = worse."""
    change = (new - base) / base
    return change if metric.better == "lower" else -change


def aa_rows(first: dict, second: dict):
    rows, exceeded = [], False
    for name, res in first["workloads"].items():
        for metric, a in res["end_to_end"].items():
            b = second["workloads"][name]["end_to_end"][metric]
            bound = END_TO_END_BY_NAME[metric].bound
            diff = abs(b["value"] - a["value"]) / a["value"]
            verdict = "ok" if diff <= bound else "exceeds"
            exceeded |= verdict == "exceeds"
            rows.append((name, metric, a["value"], b["value"], diff, bound, verdict))
    return rows, exceeded


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    print(f"base = {path_a}   new = {path_b}   ratio = new / base")
    print(f"{'workload':<24s} {'metric':<22s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>7s} {'bound':>6s}  verdict")
    worse = False
    for name in a:
        if name not in b:
            continue
        for metric, ma in a[name]["end_to_end"].items():
            mb = b[name]["end_to_end"].get(metric)
            if mb is None:
                continue
            spec = END_TO_END_BY_NAME[metric]
            change = _worse_by(spec, ma["value"], mb["value"])
            if max(ma["spread"], mb["spread"]) > spec.bound:
                verdict = "unresolved"
            elif change > spec.bound:
                verdict = "worse"
            elif change < -spec.bound:
                verdict = "better"
            else:
                verdict = "same"
            worse |= verdict == "worse"
            print(f"{name:<24s} {metric:<22s} {ma['value']:>12.6g} {mb['value']:>12.6g} "
                  f"{mb['value'] / ma['value']:>7.3f} {spec.bound:>6g}  {verdict}")
    print("\nper-layer (ungated)")
    for name in a:
        for metric, ma in a[name].get("per_layer", {}).items():
            mb = b.get(name, {}).get("per_layer", {}).get(metric)
            if mb is None or not ma["applies"]:
                continue
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            print(f"{name:<24s} {metric:<40s} {ma['value']:>12.6g} {mb['value']:>12.6g} "
                  f"{ratio:>7.3f}")
    return 1 if worse else 0


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOAD_BY_NAME),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the serve scan's parameter values and order")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="steady-state measuring time per pass, of which each "
                        "workload takes its share (see --list)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass only; 1: traced pass only; "
                        "unset: both")
    parser.add_argument("--json", type=Path, help="write the full report here")
    parser.add_argument("--aa", action="store_true",
                        help="run twice back to back and gate the difference")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.list:
        print_list()
        return 0
    if args.compare:
        return compare(*args.compare)
    if not (harness.SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {harness.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    args.workload = args.workload or [w.name for w in WORKLOADS]

    report = run_all(args)
    status = 0
    if args.aa:
        second = run_all(args)
        rows, exceeded = aa_rows(report, second)
        print(f"\nA/A: two back-to-back runs of the same code\n{'workload':<24s} "
              f"{'metric':<22s} {'first':>12s} {'second':>12s} {'diff':>7s} {'bound':>6s}")
        for name, metric, a, b, diff, bound, verdict in rows:
            print(f"{name:<24s} {metric:<22s} {a:>12.6g} {b:>12.6g} "
                  f"{100 * diff:>6.1f}% {100 * bound:>5.0f}%  {verdict}")
        report["aa"] = {"second": second["workloads"], "exceeded": exceeded}
        status = 1 if exceeded else 0

    spans = [ev for res in report["workloads"].values() for ev in res.pop("spans")]
    if args.aa:
        spans += [ev for res in report["aa"]["second"].values() for ev in res.pop("spans")]
    if spans:
        harness.write_chrome_trace(Path(TRACE_FILE), spans)
        print(f"wrote {len(spans)} harness spans to {TRACE_FILE}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1))
    if any(res["failed"] for res in report["workloads"].values()):
        status = 1
    if args.trace is not None:
        for res in report["workloads"].values():
            print(result_line(res, args.trace), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

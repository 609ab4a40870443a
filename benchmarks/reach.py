#!/usr/bin/env python3
"""Reach map: which ``src/repro`` functions CI's own smoke commands call.

Runs the commands below (CLI smoke, every scenario, tracing + report, the
``process:2`` runs of CI's obs-trace and shard legs, the numpy tier, the
plan cache, campaign + worker, checkpoint + resume, serve + submit + drain,
and the four examples CI runs) in a private temp directory, every Python
process of them under a ``sys.setprofile`` hook: the parent, each forked
``process:N`` shard and each serve / campaign worker.  Writes
``module:qualname`` -> the commands that reached it.

    PYTHONPATH=src python benchmarks/reach.py --out reach.json
    PYTHONPATH=src python benchmarks/reach.py --check

``--check`` exits 1 when a function is neither reached nor named in
``benchmarks/reach_keep.json`` (``module:qualname`` -> one-line reason),
when a keep-list entry is reached, when a keep-list entry no longer
exists, or when a reason does not begin with one of :data:`CATEGORIES`:
a test oracle (the exact or term-by-term reference a named comparison
reads), the Table I comparator, a paper figure, the numpy tier, a Model
protocol or field-block or Grid interface declaration, a frozen-ledger
import, public API, a CLI or spec surface, a runtime path or error path
these commands do not take, or a safety valve.  "test reference" — a test
calls it — is not one: such a function is deleted, moved into ``tests/``,
or its test reads the same fact through the runtime path.  Stdlib only;
nothing is written outside the temp directory and the ``--out`` path.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"
KEEP = Path(__file__).resolve().parent / "reach_keep.json"
EXAMPLES = ROOT / "examples"

SCENARIOS = (
    "advection_1d", "bump_on_tail", "collisional_relaxation", "driven_landau",
    "free_streaming", "ion_acoustic", "landau_damping", "multispecies_shock",
    "two_stream", "weibel_2x2v",
)
SMALL = ["--set", "steps=3", "--set", "nx=6", "--set", "nv=6",
         "--set", "poly_order=1"]
SCAN = {"name": "reach_scan", "scenario": "collisional_relaxation",
        "base": {"steps": 3}, "scan": {"nu": [0.6, 0.7]}}
TIMEOUT = 600.0
#: what a keep-list reason begins with
CATEGORIES = (
    "test oracle", "Table I comparator", "paper figure", "numpy tier",
    "Model protocol", "field-block interface", "Grid interface",
    "frozen ledger", "public API", "CLI", "spec surface", "runtime path",
    "error path", "safety valve",
)

# Written as sitecustomize.py into a directory put first on PYTHONPATH, so
# every interpreter a command starts imports it.  A forked multiprocessing
# child leaves through os._exit, which skips atexit: its bootstrap is
# wrapped to write its own set before that.
HOOK = '''\
import atexit, json, multiprocessing.process, os, sys, threading

_PKG = {pkg!r}
_OUT = {out!r}
_codes = {{}}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _codes:
            _codes[id(code)] = code


def _dump():
    hits = sorted({{
        (c.co_filename, c.co_qualname) for c in list(_codes.values())
        if c.co_filename.startswith(_PKG)
    }})
    path = os.path.join(_OUT, "%d.json" % os.getpid())
    with open(path, "w") as fh:
        json.dump(hits, fh)


def _start():
    sys.setprofile(_profile)
    threading.setprofile(_profile)


_bootstrap = multiprocessing.process.BaseProcess._bootstrap


def _traced_bootstrap(self, *args, **kwargs):
    try:
        return _bootstrap(self, *args, **kwargs)
    finally:
        _dump()


multiprocessing.process.BaseProcess._bootstrap = _traced_bootstrap
os.register_at_fork(after_in_child=_start)
atexit.register(_dump)
_start()
'''


def all_functions() -> Set[str]:
    """Every ``def`` under ``src/repro`` as ``module:qualname`` (the
    ``co_qualname`` a call reports, nested functions included)."""
    found: Set[str] = set()
    for path in sorted(PKG.rglob("*.py")):
        module = _module(path)
        tree = ast.parse(path.read_text(), str(path))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    found.add(f"{module}:{qual}")
                    walk(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def _module(path: Path) -> str:
    parts = list(path.relative_to(PKG.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Runner:
    """Runs one command at a time under the hook; collects what it reached."""

    def __init__(self, work: Path):
        self.work = work
        self.hook = work / "hook"
        self.hook.mkdir()
        (work / "tmp").mkdir()
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(self.hook), str(PKG.parent)]),
            PYTHONPYCACHEPREFIX=str(work / "pycache"),
            REPRO_CACHE_DIR=str(work / "cache"),
            TMPDIR=str(work / "tmp"),
        )
        for name in ("REPRO_KERNEL_TIER", "REPRO_OBS"):
            self.env.pop(name, None)
        self.reached: Dict[str, List[str]] = {}
        #: (command label, the directory its processes dump their sets in)
        self.runs: List[Tuple[str, Path]] = []
        self.daemon: Optional[subprocess.Popen] = None

    def _arm(self, label: str) -> Dict[str, str]:
        out = self.work / "hits" / str(len(self.runs))
        out.mkdir(parents=True)
        self.runs.append((label, out))
        (self.hook / "sitecustomize.py").write_text(
            HOOK.format(pkg=str(PKG) + os.sep, out=str(out))
        )
        return dict(self.env)

    def run(self, label: str, args: Sequence[str], **env: str) -> str:
        full = self._arm(label)
        full.update(env)
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=self.work, env=full,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=TIMEOUT)
        finally:
            _kill_group(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"{label}: exit {proc.returncode}\n{out}")
        print(f"  ok  {label}", flush=True)
        return out

    def start_daemon(self, label: str, args: Sequence[str], ready: Path) -> None:
        self.daemon = subprocess.Popen(
            [sys.executable, *args], cwd=self.work, env=self._arm(label),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"{label}: daemon did not come up")
            time.sleep(0.1)

    def drain_daemon(self) -> None:
        self.daemon.send_signal(signal.SIGTERM)
        code = self.daemon.wait(timeout=TIMEOUT)
        if code != 0:
            raise RuntimeError(f"daemon drain: exit {code}")
        print("  ok  SIGTERM drain", flush=True)

    def close(self) -> None:
        if self.daemon is not None:
            _kill_group(self.daemon)

    def collect(self) -> None:
        for label, out in self.runs:
            for dump in out.glob("*.json"):
                for filename, qual in json.loads(dump.read_text()):
                    key = f"{_module(Path(filename))}:{qual}"
                    labels = self.reached.setdefault(key, [])
                    if label not in labels:
                        labels.append(label)


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a command and everything it forked (its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_commands(r: Runner) -> None:
    repro = ["-m", "repro"]
    r.run("list", repro + ["list"])
    r.run("systems", repro + ["systems"])
    r.run("show", repro + ["show", "two_stream"])
    for name in SCENARIOS:
        r.run(f"run {name}", repro + ["run", name, "--set", "steps=3"])
    r.run("run --trace", repro + ["run", "two_stream", "--trace", "--outdir",
                                  "obs-out", "--set", "steps=3"])
    r.run("report", repro + ["report", "obs-out"])
    r.run("run process:2", repro + ["run", "landau_damping", "--backend",
                                    "process:2", "--outdir", "obs-shard-out",
                                    "--set", "steps=3"], REPRO_OBS="trace")
    r.run("report process:2", repro + ["report", "obs-shard-out"])
    for name in ("ion_acoustic", "driven_landau", "multispecies_shock"):
        r.run(f"run {name} process:2", repro + [
            "run", name, "--backend", "process:2", "--set", "steps=2",
            "--set", "nx=8", "--set", "nv=10", "--set", "poly_order=1"])
    r.run("numpy tier 1x1v", repro + ["run", "two_stream", "--set", "steps=3",
                                      "--set", "nx=4", "--set", "nv=8"],
          REPRO_KERNEL_TIER="numpy")
    r.run("numpy tier 2x2v", repro + ["run", "weibel_2x2v", "--set", "steps=2",
                                      "--set", "nx=4", "--set", "nv=6",
                                      "--set", "poly_order=1"],
          REPRO_KERNEL_TIER="numpy")
    r.run("plans warm", repro + ["plans", "warm", "two_stream", "--cache", "pc"])
    r.run("plans list", repro + ["plans", "list", "--cache", "pc"])
    r.run("plans clear", repro + ["plans", "clear", "--cache", "pc"])
    (r.work / "scan.json").write_text(json.dumps(SCAN))
    r.run("campaign --prepare-only", repro + [
        "campaign", "scan.json", "--prepare-only", "--outdir", "q"])
    r.run("worker", repro + ["worker", "q"])
    rerun = r.run("campaign rerun", repro + ["campaign", "scan.json",
                                             "--outdir", "q"])
    if "0 ran, 2 skipped" not in rerun:
        raise RuntimeError(f"campaign rerun ran jobs:\n{rerun}")
    r.run("run --outdir", repro + [
        "run", "two_stream", "--outdir", "ck", "--set", "steps=3",
        "--set", "diagnostics.checkpoint_interval=1"])
    r.run("resume", repro + ["resume", "ck/checkpoint.npz", "--outdir", "ck",
                              "--set", "steps=6"])
    r.start_daemon("serve", repro + ["serve", "srv", "--workers", "1"],
                   r.work / "srv" / "serve.json")
    submit = repro + ["submit", "free_streaming", "--dir", "srv"] + SMALL
    first = json.loads(r.run("submit", submit + ["--wait", "--json"]))
    second = json.loads(r.run("submit cached", submit + ["--json"]))
    if (first["compute"], second["compute"]) != ("scheduled", "cached"):
        raise RuntimeError(f"serve dedup: {first} then {second}")
    r.run("submit --stream", submit + ["--stream"])
    r.run("jobs", repro + ["jobs", "--dir", "srv"])
    r.drain_daemon()
    r.run("report serve", repro + ["report", "srv"])
    for example in ("quickstart", "kernel_explorer", "custom_system",
                    "parallel_decomposition"):
        r.run(f"examples/{example}.py", [str(EXAMPLES / f"{example}.py")])


def reach_map() -> Tuple[List[str], Dict[str, List[str]]]:
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        runner = Runner(Path(tmp))
        try:
            run_commands(runner)
        finally:
            runner.close()
        runner.collect()
        return [label for label, _ in runner.runs], runner.reached


def check(defined: Set[str], reached: Dict[str, List[str]],
          keep: Dict[str, str]) -> List[str]:
    """The keep-list's four failures, one line each."""
    problems = [
        f"unreached and not in the keep-list: {key}"
        for key in sorted(defined - set(reached) - set(keep))
    ]
    problems += [f"kept but reached: {key}" for key in sorted(keep)
                 if key in reached]
    problems += [f"kept but gone: {key}" for key in sorted(keep)
                 if key not in defined]
    problems += [f"kept for no category of CATEGORIES: {key}: {reason}"
                 for key, reason in sorted(keep.items())
                 if not reason.startswith(CATEGORIES)]
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write the reach map here (JSON)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 unless reached + keep-list == every function "
                    "and each kept one has a listed reason")
    args = ap.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the daemon is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    defined = all_functions()
    commands, reached = reach_map()
    reached = {k: v for k, v in sorted(reached.items()) if k in defined}
    unreached = sorted(defined - set(reached))
    print(f"{len(reached)} of {len(defined)} functions reached by "
          f"{len(commands)} commands; {len(unreached)} unreached")
    if args.out:
        args.out.write_text(json.dumps(
            {"commands": commands, "reached": reached, "unreached": unreached},
            indent=1) + "\n")
    if not args.check:
        return 0
    problems = check(defined, reached, json.loads(KEEP.read_text()))
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Shared plumbing of the ledger: isolation, fresh-process children,
counted correctness checks, the quietest-block estimator, harness spans.

Nothing here imports ``repro`` — the harness process stays light, and every
measured phase runs in a child that pays its own set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"

#: everything the benchmark writes lives under this directory of the
#: checkout (never /tmp, never ~/.cache/repro); each run removes its own
WORK_DIR = ".ledger_work"

#: what the benchmark builds once per checkout and keeps between runs: each
#: workload's warm plan cache (compiled plans, cc kernels) and the reference
#: digests its outputs are checked against
BUILD_DIR = ".bench_build"

RESULT_TAG = "LEDGER-RESULT "
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_UNSET = ("REPRO_OBS", "REPRO_PLAN_MODE", "REPRO_PLAN_CACHE")

#: a child that has not answered by then is killed and counted as failed
CHILD_TIMEOUT_S = 170.0


def isolated_env(cache_dir: Path) -> Dict[str, str]:
    """The environment every child runs in: BLAS pinned to one thread, no
    inherited observability/plan switches, caches in ``cache_dir`` (the
    workload's build, or a directory of the temp root)."""
    env = dict(os.environ)
    for key in BLAS_PINS:
        env[key] = "1"
    for key in _UNSET:
        env.pop(key, None)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@contextmanager
def temp_root():
    """A private directory under the checkout, removed on every exit path."""
    base = Path.cwd() / WORK_DIR
    base.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            base.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def build_root() -> Path:
    """Where this checkout's build products live, keyed by a digest of the
    program's source and the benchmark's own (which fixes what a workload
    runs), so that neither, once edited, meets a stale build; builds of other
    sources are removed."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(REPO_ROOT)).encode())
        h.update(path.read_bytes())
    base = Path.cwd() / BUILD_DIR / "ledger"
    root = base / h.hexdigest()[:16]
    if not root.is_dir():
        shutil.rmtree(base, ignore_errors=True)
        root.mkdir(parents=True)
    return root


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class ChildFailed(RuntimeError):
    pass


def run_child(script: str, config: dict, env: Dict[str, str]) -> dict:
    """Run ``script`` (a file beside this one) in a fresh interpreter and
    return the JSON it reports.  ``t_spawn`` (a ``perf_counter`` reading —
    CLOCK_MONOTONIC is system-wide, so the child's own readings compare
    with it) is added so set-up can be timed from before the fork."""
    cmd = [sys.executable, str(HERE / script), json.dumps(config)]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise ChildFailed(f"{script} exceeded {CHILD_TIMEOUT_S:.0f}s")
    finally:
        if proc.poll() is None:  # interrupted: leave no process behind
            kill_group(proc)
    payload = None
    for line in out.splitlines():
        if line.startswith(RESULT_TAG):
            payload = json.loads(line[len(RESULT_TAG):])
    if proc.returncode != 0 or payload is None:
        raise ChildFailed(f"{script} exited {proc.returncode}: {out[-2000:]}")
    payload["t_spawn"] = t_spawn
    return payload


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a child and everything it forked (shard workers, serve
    workers), then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def report(payload: dict) -> None:
    """Child side of :func:`run_child`."""
    sys.stdout.write(RESULT_TAG + json.dumps(payload) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------- #
class Checks:
    """Counted operations: every step, job and correctness check is one
    attempt; ``failed / attempted`` is the workload's ``failed_share``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            msg = f"FAIL {self.workload}: {name}" + (f" ({detail})" if detail else "")
            self.messages.append(msg)
            print(msg, file=sys.stderr, flush=True)
        return bool(passed)

    def absorb(self, payload: dict) -> None:
        """Fold in the checks a child counted."""
        self.attempted += payload["attempted"]
        for msg in payload["failures"]:
            self.failed += 1
            self.messages.append(msg)
            print(msg, file=sys.stderr, flush=True)

    def child_payload(self) -> dict:
        return {"attempted": self.attempted, "failures": self.messages}


# ---------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quietest(blocks: Sequence[float]) -> Tuple[float, float]:
    """The quietest-block estimate: best block, and how far the median
    block sits above it (the noise floor printed beside every timing)."""
    best = min(blocks)
    return float(best), float((median(blocks) - best) / best) if best > 0 else 0.0


_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 50.0)


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile of the ladder with
    at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in _LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(ordered[min(int(n * pct / 100.0), n - 1)])
    return 50.0, median(ordered)


def timer_floor(scale: float = 1.0) -> float:
    """Measured wall of zero calls: what a layer the workload never enters
    reports for a timing, in units of ``1/scale`` seconds."""
    t0 = time.perf_counter()
    return (time.perf_counter() - t0) * scale


# ---------------------------------------------------------------------- #
class Spans:
    """The harness's own spans: name, start, end, parent; kept in memory
    and written as one Chrome trace when the benchmark ends."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.events: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        ident = len(self.events)
        event = {
            "id": ident,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "t0": time.perf_counter(),
            "t1": None,
        }
        self.events.append(event)
        self._stack.append(ident)
        try:
            yield event
        finally:
            event["t1"] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn, reps: int) -> List[float]:
        """Call ``fn`` ``reps`` times, one span each; returns seconds."""
        out = []
        for _ in range(reps):
            with self.span(name) as ev:
                fn()
            out.append(ev["t1"] - ev["t0"])
        return out

    def durations(self, first: int = 0):
        """``(total, self)``: per name, the durations of every span from
        event ``first`` on, and the same minus the interval each span's
        children cover."""
        covered: Dict[int, float] = {}
        for ev in self.events[first:]:
            if ev["parent"] is not None:
                covered[ev["parent"]] = covered.get(ev["parent"], 0.0) + ev["t1"] - ev["t0"]
        total: Dict[str, List[float]] = {}
        self_: Dict[str, List[float]] = {}
        for ev in self.events[first:]:
            if ev["t1"] is None:  # still open: an enclosing span
                continue
            dur = ev["t1"] - ev["t0"]
            total.setdefault(ev["name"], []).append(dur)
            self_.setdefault(ev["name"], []).append(max(dur - covered.get(ev["id"], 0.0), 0.0))
        return total, self_

    def self_seconds(self) -> Dict[str, float]:
        """Per name: total self time."""
        return {name: sum(vals) for name, vals in self.durations()[1].items()}

    def export(self) -> List[dict]:
        pid = os.getpid()
        return [dict(ev, pid=pid, **{"pass": self.pass_id}) for ev in self.events]


def write_chrome_trace(path: Path, events: Iterable[dict]) -> int:
    events = list(events)
    origin = min((ev["t0"] for ev in events), default=0.0)
    doc = {
        "traceEvents": [
            {
                "name": ev["name"],
                "ph": "X",
                "pid": ev["pid"],
                "tid": 0,
                "ts": (ev["t0"] - origin) * 1e6,
                "dur": (ev["t1"] - ev["t0"]) * 1e6,
                "args": {"id": ev["id"], "parent": ev["parent"], "pass": ev["pass"]},
            }
            for ev in events
        ]
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(events)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def sha256_file(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None

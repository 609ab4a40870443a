"""Job scheduler: persistent worker processes draining a job store.

Workers are real processes (forked when the platform allows, so they
inherit the parent's warm plan cache and generated-kernel registry) each
running :func:`worker_loop`: scan the store for runnable jobs, claim one
through the store's heartbeated lease (:meth:`FileJobStore.try_claim`),
run it with the ordinary :class:`~repro.runtime.driver.Driver` into the
job's own output directory, record the outcome, release the lease.

Crash recovery is the lease-file semantics of :mod:`repro.dist.lease`: a
SIGKILLed worker's heartbeat stops, its lease goes stale after
``lease_timeout`` seconds, and the next scanning worker breaks it and
re-runs the job — exactly once, because breaking a stale lease re-races
through an exclusive create.  The re-run starts from a fresh
Driver, which truncates any partial ``diagnostics.jsonl``, so the
recovered job's output is byte-identical to an uninterrupted run.

Graceful drain: the daemon touches the store's ``STOP`` sentinel; workers
finish the job they currently hold, claim nothing further, and exit.
Queued-but-unclaimed jobs stay queued in the store and run when the
service next starts.

Batch drain: ``exit_when_idle`` workers leave once nothing is claimable —
``repro campaign`` (submit every scan point, then drain) and ``repro
worker <dir>`` (join any store directory from any host sharing it).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import socket
import time
from typing import Callable, List, Optional

from ..dist.lease import DEFAULT_LEASE_TIMEOUT, validate_lease_timeout
from ..io.atomic import publish_text
from .store import FileJobStore, PathLike

__all__ = ["run_job", "worker_loop", "WorkerPool", "DEFAULT_POLL"]

DEFAULT_POLL = 0.2


def _worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def run_job(store: FileJobStore, record: dict) -> dict:
    """Execute one claimed job: build the spec, run the Driver into the
    job's output directory, persist ``result.json``.  Returns the run
    summary.  (Import of the Driver is local so worker processes pay for
    the runtime stack only when they actually run something.)"""
    from ..runtime.driver import Driver
    from ..runtime.spec import SimulationSpec

    spec = SimulationSpec.from_dict(record["spec"])
    outdir = store.outdir(record["id"])
    # a re-run after a crash must not leave a stale result next to a
    # fresh diagnostics stream; the Driver itself truncates the stream
    try:
        store.result_path(record["id"]).unlink()
    except FileNotFoundError:
        pass
    driver = Driver(spec, outdir=outdir)
    try:
        result = driver.run()
    finally:
        driver.close()
    publish_text(store.result_path(record["id"]), json.dumps(result, indent=2))
    return result


def worker_loop(
    root: PathLike,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    poll: float = DEFAULT_POLL,
    exit_when_idle: bool = False,
    max_jobs: Optional[int] = None,
    on_finish: Optional[Callable[[dict], None]] = None,
) -> dict:
    """Claim and run jobs until drained (``STOP`` sentinel), idle (when
    ``exit_when_idle``), or ``max_jobs`` have been attempted.

    Runnable jobs are those ``queued``, plus ``running`` jobs whose lease
    went stale (crashed claimant).  A live claimant's lease never yields,
    so no job runs twice concurrently.  ``on_finish`` receives each job's
    final record (the CLI's progress line).  Returns ``{"ran": [...],
    "failed": [...]}`` for this worker.
    """
    store = FileJobStore(root, validate_lease_timeout(lease_timeout))
    me = _worker_id()
    ran: List[str] = []
    failed: List[str] = []
    while max_jobs is None or len(ran) + len(failed) < max_jobs:
        if store.draining:
            break
        claimed: Optional[dict] = None
        lock = None
        for rec in store.list_jobs():
            if rec["status"] not in ("queued", "running"):
                continue
            lock = store.try_claim(rec["id"], me)
            if lock is None:
                continue
            claimed = store.get(rec["id"])
            break
        if claimed is None:
            if exit_when_idle:
                break
            time.sleep(poll)
            continue
        try:
            try:
                result = run_job(store, claimed)
                record = store.finish(claimed["id"], result, None)
                ran.append(claimed["id"])
            except Exception as exc:  # noqa: BLE001
                # broad on purpose (per-job isolation): whatever one job
                # raises is recorded on that job and the worker goes on to
                # the next; KeyboardInterrupt / SystemExit still stop it
                record = store.finish(
                    claimed["id"], None, f"{type(exc).__name__}: {exc}"
                )
                failed.append(claimed["id"])
            if on_finish is not None:
                on_finish(record)
        finally:
            lock.release()
    return {"ran": ran, "failed": failed}


def _worker_main(
    root: str, lease_timeout: float, poll: float, exit_when_idle: bool, on_finish
) -> None:
    """Entry point of a pool worker process.

    A persistent worker ignores SIGINT: an interactive Ctrl-C lands on the
    whole process group, and drain must stay the parent's decision (it
    writes the STOP sentinel and joins).  A batch-drain worker has no such
    parent, so Ctrl-C stops it — ``worker_loop`` releases its lease on the
    way out and the job is claimable again at once.  SIGTERM keeps its
    default (kill) so an operator can still shoot an individual worker —
    its job is then recovered via the stale-lease takeover.
    """
    if not exit_when_idle:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker_loop(root, lease_timeout, poll, exit_when_idle, on_finish=on_finish)


class WorkerPool:
    """A fixed pool of worker processes over one store root: persistent
    (until the STOP sentinel) or, with ``exit_when_idle``, a batch drain."""

    def __init__(
        self,
        root: PathLike,
        workers: int = 2,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll: float = DEFAULT_POLL,
        exit_when_idle: bool = False,
        on_finish: Optional[Callable[[dict], None]] = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.root = str(root)
        self.workers = int(workers)
        self.lease_timeout = validate_lease_timeout(lease_timeout)
        self.poll = float(poll)
        self.exit_when_idle = bool(exit_when_idle)
        self.on_finish = on_finish
        self._procs: List[mp.Process] = []

    def start(self) -> "WorkerPool":
        if self._procs:
            return self
        ctx = (
            mp.get_context("fork")
            if "fork" in mp.get_all_start_methods()
            else mp.get_context()
        )
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(
                    self.root, self.lease_timeout, self.poll,
                    self.exit_when_idle, self.on_finish,
                ),
                daemon=False,
                name=f"repro-serve-worker-{i}",
            )
            for i in range(self.workers)
        ]
        for p in self._procs:
            p.start()
        return self

    def alive(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    def pids(self) -> List[int]:
        return [p.pid for p in self._procs if p.pid is not None]

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every worker to exit (persistent workers want to only
        once the STOP sentinel is in place).  Returns True when all exited."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for p in self._procs:
            remaining = (
                None if deadline is None else max(deadline - time.monotonic(), 0.0)
            )
            p.join(remaining)
        done = all(not p.is_alive() for p in self._procs)
        if done:
            self._procs = []
        return done

    def terminate(self) -> None:
        """Hard-stop every worker (their in-flight jobs become stale leases
        and will be recovered by the next pool)."""
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        self.join(timeout=5.0)
        self._procs = []

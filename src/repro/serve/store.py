"""Job store: content-addressed job records in one directory.

A **job** is one simulation keyed by the canonical content hash of its
spec (:func:`repro.serve.hash.spec_digest`).  The store holds the job's
normalized spec, lifecycle status (``queued -> running -> done|failed``),
timestamps, and result summary, and owns the directory where the run's
outputs (``diagnostics.jsonl``, ``checkpoint.npz``, ``result.json``) land.

:class:`FileJobStore` is the one queue ``repro campaign``, ``repro
worker`` and ``repro serve`` all run on:

* job metadata is a ``job.json`` per job, published through
  :mod:`repro.io.atomic` so readers never see a torn record;
* read-modify-write of metadata serializes through one short-lived
  :class:`~repro.dist.lease.LeaseLock` (``locks/store.lock``);
* the *run* claim is a per-job heartbeated lease
  (``locks/<digest>.lock``) with stale takeover, so a SIGKILLed worker's
  job returns to the claimable pool after ``lease_timeout`` seconds;
* every successful claim appends one line to ``claims.log`` (O_APPEND),
  the exact audit record of who ran what, how many times.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from ..dist.lease import (
    CLAIMS_LOG,
    DEFAULT_LEASE_TIMEOUT,
    LOCK_DIR,
    LeaseLock,
    validate_lease_timeout,
)
from ..io.atomic import publish_text
from ..runtime.spec import SimulationSpec
from .hash import normalized_spec_dict, spec_digest

__all__ = [
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    "STOP_FILE",
    "FileJobStore",
]

PathLike = Union[str, Path]

JOB_STATUSES = ("queued", "running", "done", "failed")
TERMINAL_STATUSES = ("done", "failed")
#: drain sentinel: workers stop claiming new jobs once this file exists
STOP_FILE = "STOP"
#: what makes a directory a job store: ``jobs/<digest>/job.json`` records
JOBS_DIR = "jobs"
_META = "job.json"
_OUT = "out"


class FileJobStore:
    """Filesystem job store (see module docstring for the layout)."""

    def __init__(
        self, root: PathLike, lease_timeout: float = DEFAULT_LEASE_TIMEOUT
    ):
        self.root = Path(root)
        self.lease_timeout = validate_lease_timeout(lease_timeout)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / JOBS_DIR).mkdir(exist_ok=True)
        (self.root / LOCK_DIR).mkdir(exist_ok=True)

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def job_dir(self, job_id: str) -> Path:
        return self.root / JOBS_DIR / job_id

    def outdir(self, job_id: str) -> Path:
        """Where the job's Driver writes its outputs."""
        return self.job_dir(job_id) / _OUT

    def diagnostics_path(self, job_id: str) -> Path:
        return self.outdir(job_id) / "diagnostics.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.outdir(job_id) / "result.json"

    @property
    def claims_log(self) -> Path:
        return self.root / CLAIMS_LOG

    @property
    def stop_path(self) -> Path:
        return self.root / STOP_FILE

    # ------------------------------------------------------------------ #
    # drain sentinel
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        return self.stop_path.exists()

    def request_stop(self) -> None:
        self.stop_path.touch()

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------ #
    # metadata (atomic job.json; mutations under the store lock)
    # ------------------------------------------------------------------ #
    def _meta_lock(self) -> LeaseLock:
        return LeaseLock(self.root / LOCK_DIR / "store.lock", self.lease_timeout)

    def _read(self, job_id: str) -> Optional[dict]:
        path = self.job_dir(job_id) / _META
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None

    def _write(self, record: dict) -> None:
        publish_text(self.job_dir(record["id"]) / _META, json.dumps(record, indent=2))

    def resolve(self, job_id: str) -> Optional[str]:
        """Resolve a full digest or an unambiguous prefix (>= 8 chars) to
        a stored job id; ``None`` when unknown, ``ValueError`` when the
        prefix matches more than one job."""
        if (self.root / JOBS_DIR / job_id / _META).exists():
            return job_id
        if len(job_id) < 8:
            return None
        matches = [
            p.name
            for p in (self.root / JOBS_DIR).iterdir()
            if p.name.startswith(job_id)
        ]
        if len(matches) > 1:
            raise ValueError(f"job id prefix {job_id!r} is ambiguous")
        return matches[0] if matches else None

    def get(self, job_id: str) -> Optional[dict]:
        resolved = self.resolve(job_id)
        return self._read(resolved) if resolved else None

    def list_jobs(self) -> List[dict]:
        jobs = []
        for path in sorted((self.root / JOBS_DIR).iterdir()):
            rec = self._read(path.name)
            if rec is not None:
                jobs.append(rec)
        jobs.sort(key=lambda r: (r.get("submitted") or 0.0, r["id"]))
        return jobs

    def update(self, job_id: str, mutate: Callable[[dict], None]) -> dict:
        """Read-modify-write one job record under the store lock."""
        with self._meta_lock():
            rec = self._read(job_id)
            if rec is None:
                raise KeyError(f"no job {job_id!r} in {self.root}")
            mutate(rec)
            self._write(rec)
        return rec

    # ------------------------------------------------------------------ #
    # submission (dedup by content hash)
    # ------------------------------------------------------------------ #
    def submit(self, spec: Union[SimulationSpec, dict]) -> Tuple[dict, str]:
        """Register a spec; returns ``(record, compute)`` where ``compute``
        describes what the submission cost:

        * ``"scheduled"`` — new job, queued for a worker;
        * ``"attached"``  — an identical job is already queued/running;
          the caller shares its id (and, eventually, its result);
        * ``"cached"``    — an identical job already finished; the result
          is served with zero compute;
        * ``"requeued"``  — an identical job failed earlier; this
          submission re-queues it for another attempt.
        """
        digest = spec_digest(spec)
        normalized = normalized_spec_dict(spec)
        now = time.time()
        with self._meta_lock():
            rec = self._read(digest)
            if rec is None:
                rec = {
                    "id": digest,
                    "name": normalized.get("name"),
                    "spec": normalized,
                    "status": "queued",
                    "submitted": now,
                    "started": None,
                    "finished": None,
                    "worker": None,
                    "attempts": 0,
                    "submits": 1,
                    "result": None,
                    "error": None,
                }
                self.job_dir(digest).mkdir(parents=True, exist_ok=True)
                self._write(rec)
                return rec, "scheduled"
            rec["submits"] = int(rec.get("submits", 0)) + 1
            if rec["status"] == "done":
                compute = "cached"
            elif rec["status"] == "failed":
                # resubmission of a failed job is an explicit retry request
                rec.update(
                    status="queued",
                    submitted=now,
                    started=None,
                    finished=None,
                    worker=None,
                    result=None,
                    last_error=rec.get("error"),
                    error=None,
                )
                compute = "requeued"
            else:
                compute = "attached"
            self._write(rec)
        return rec, compute

    # ------------------------------------------------------------------ #
    # run claims (exclusive, heartbeated, crash-recoverable)
    # ------------------------------------------------------------------ #
    def try_claim(self, job_id: str, worker: str) -> Optional[LeaseLock]:
        """Attempt an exclusive run claim on ``job_id``.

        Returns a *held* :class:`LeaseLock` (heartbeating) and transitions
        the job to ``running``, or ``None`` when the job is already claimed
        by a live worker or no longer runnable.  A stale lease (crashed
        claimant) is broken by the acquire, so its job is re-run — the
        lease's exclusivity guarantees by exactly one new claimant.
        """
        lock = LeaseLock(
            self.root / LOCK_DIR / f"{job_id}.lock", self.lease_timeout
        )
        if not lock.try_acquire():
            return None
        rec = self._read(job_id)
        if rec is None or rec["status"] not in ("queued", "running"):
            lock.release()
            return None
        self.update(
            job_id,
            lambda r: r.update(
                status="running",
                worker=worker,
                started=time.time(),
                attempts=int(r.get("attempts", 0)) + 1,
            ),
        )
        with open(self.claims_log, "a") as fh:
            fh.write(f"{job_id} {worker}\n")
        return lock

    def finish(self, job_id: str, result: Optional[dict], error: Optional[str]) -> dict:
        """Record a run outcome (``done`` with a result summary, or
        ``failed`` with an error string)."""
        status = "done" if error is None else "failed"
        return self.update(
            job_id,
            lambda r: r.update(
                status=status,
                result=result,
                error=error,
                finished=time.time(),
            ),
        )

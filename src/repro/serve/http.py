"""The ``repro serve`` daemon: HTTP job service over a job store.

Zero-dependency (stdlib ``http.server`` threading) serving layer:

* ``POST /jobs``                 — submit a spec (full ``SimulationSpec``
  JSON, or ``{"scenario": name, "overrides": {...}}``); responds with the
  content-hash job id and ``compute`` ∈ ``scheduled | attached | cached |
  requeued`` (dedup semantics live in :meth:`FileJobStore.submit`);
* ``GET /jobs``                  — job listing;
* ``GET /jobs/<id>``             — one job's record (id or >= 8-char prefix);
* ``GET /jobs/<id>/result``      — the finished run summary (409 + status
  while queued/running, the recorded error when failed);
* ``GET /jobs/<id>/diagnostics`` — **chunked incremental tail** of the
  job's ``diagnostics.jsonl``: bytes stream as the per-record-flushed
  writer appends them, and the response ends when the job reaches a
  terminal state — the streamed body is byte-identical to the on-disk
  file;
* ``GET /healthz``, ``GET /metrics`` — liveness + the service's own
  :mod:`repro.obs` metrics (jobs submitted/deduped/completed/failed,
  queue-depth gauge, time-to-first-result histogram).

Graceful drain: SIGTERM (or :meth:`ServeDaemon.drain`) stops accepting
submissions (503), touches the store's STOP sentinel so workers finish
exactly the jobs they hold, joins the pool, flushes a final metrics
snapshot to ``<root>/metrics.jsonl`` (readable by ``repro report``), and
shuts the listener down.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional

from ..dist.lease import DEFAULT_LEASE_TIMEOUT, validate_lease_timeout
from ..io.atomic import publish_text
from ..obs.metrics import MetricsRegistry
from ..runtime.errors import SpecError
from ..runtime.spec import SimulationSpec
from .scheduler import DEFAULT_POLL, WorkerPool
from .store import TERMINAL_STATUSES, FileJobStore, PathLike

__all__ = ["ServeDaemon", "SERVE_INFO"]

#: daemon rendezvous file in the store root: host/port/pid of the live
#: server, so clients can find it knowing only the directory
SERVE_INFO = "serve.json"


class ServeDaemon:
    """One serving instance: HTTP listener + worker pool + telemetry."""

    def __init__(
        self,
        root: PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll: float = DEFAULT_POLL,
    ):
        self.host = host
        self.port = int(port)
        self.poll = float(poll)
        self.lease_timeout = validate_lease_timeout(lease_timeout)
        self.store = FileJobStore(root, self.lease_timeout)
        self.pool = WorkerPool(
            root, workers=workers, lease_timeout=self.lease_timeout, poll=poll
        )
        self.metrics = MetricsRegistry()
        self.draining = False
        self._metrics_mu = threading.Lock()
        self._seen: Dict[str, str] = {}
        self._server: Optional[ThreadingHTTPServer] = None
        self._threads: list = []
        self._stop = threading.Event()
        self._started = None

    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def info_path(self) -> Path:
        return self.store.root / SERVE_INFO

    def start(self) -> "ServeDaemon":
        """Bind, spawn workers, start the monitor; returns immediately."""
        if self._server is not None:
            return self
        # a daemon restarting over a previously drained store must accept
        # work again: clear the drain sentinel before workers start
        self.store.clear_stop()
        server = ThreadingHTTPServer((self.host, self.port), _Handler)
        server.daemon_threads = True
        server.repro_daemon = self  # type: ignore[attr-defined]
        self.port = server.server_address[1]
        self._server = server
        self._started = time.monotonic()
        self.pool.start()
        t_http = threading.Thread(
            target=server.serve_forever, name="repro-serve-http", daemon=True
        )
        t_mon = threading.Thread(
            target=self._monitor, name="repro-serve-monitor", daemon=True
        )
        t_http.start()
        t_mon.start()
        self._threads = [t_http, t_mon]
        publish_text(
            self.info_path,
            json.dumps(
                {
                    "host": self.host,
                    "port": self.port,
                    "url": self.url,
                    "pid": os.getpid(),
                    "workers": self.pool.workers,
                }
            ),
        )
        return self

    def drain(self, timeout: Optional[float] = 60.0) -> bool:
        """Graceful shutdown: refuse new submissions, let workers finish
        the jobs they hold, flush telemetry, stop the listener.  Returns
        True when every worker exited within ``timeout``."""
        if self._server is None:
            return True
        self.draining = True
        self.store.request_stop()
        clean = self.pool.join(timeout)
        if not clean:  # pragma: no cover - stuck worker safety valve
            self.pool.terminate()
        self._stop.set()
        # jobs that finished after the monitor's last tick (typical during
        # the join above) must still land in the final snapshot
        self._observe()
        self._flush_metrics(final=True)
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        try:
            self.info_path.unlink()
        except FileNotFoundError:
            pass
        return clean

    close = drain

    def run(self) -> int:
        """Blocking entry point for the CLI: install signal handlers,
        serve until SIGTERM/SIGINT, drain.  Returns an exit code."""
        done = threading.Event()

        def _request_drain(signum, frame):
            done.set()

        previous = {
            sig: signal.signal(sig, _request_drain)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            self.start()
            done.wait()
            return 0 if self.drain() else 1
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    # ------------------------------------------------------------------ #
    # submissions (called from HTTP handler threads)
    # ------------------------------------------------------------------ #
    def submit(self, payload: dict):
        """Build a spec from a request payload and register it."""
        if not isinstance(payload, dict):
            raise SpecError("body", f"expected a JSON object, got {payload!r}")
        if "scenario" in payload:
            from ..runtime.scenarios import build

            overrides = payload.get("overrides") or {}
            if not isinstance(overrides, dict):
                raise SpecError(
                    "body.overrides", f"expected an object, got {overrides!r}"
                )
            spec = build(payload["scenario"], **overrides)
        else:
            spec = SimulationSpec.from_dict(payload)
        record, compute = self.store.submit(spec)
        with self._metrics_mu:
            self.metrics.add("jobs_submitted")
            if compute in ("cached", "attached"):
                self.metrics.add("jobs_deduped")
        return record, compute

    # ------------------------------------------------------------------ #
    # telemetry (monitor thread)
    # ------------------------------------------------------------------ #
    def _monitor(self) -> None:
        last_flushed: Optional[dict] = None
        while not self._stop.wait(self.poll):
            snap = self._observe()
            if snap != last_flushed:
                self._flush_metrics(snapshot=snap)
                last_flushed = snap

    def _observe(self) -> dict:
        """Fold the store's current state into the service metrics."""
        jobs = self.store.list_jobs()
        with self._metrics_mu:
            self.metrics.gauge_set(
                "queue_depth",
                sum(1 for r in jobs if r["status"] == "queued"),
            )
            for rec in jobs:
                status = rec["status"]
                if (
                    status in TERMINAL_STATUSES
                    and self._seen.get(rec["id"]) != status
                ):
                    if status == "done":
                        self.metrics.add("jobs_completed")
                        if rec.get("finished") and rec.get("submitted"):
                            self.metrics.observe_ttfr_ms(
                                (rec["finished"] - rec["submitted"]) * 1e3
                            )
                    else:
                        self.metrics.add("jobs_failed")
                self._seen[rec["id"]] = status
            return self.metrics.snapshot()

    def _flush_metrics(self, snapshot: Optional[dict] = None, final: bool = False) -> None:
        if snapshot is None:
            with self._metrics_mu:
                snapshot = self.metrics.snapshot()
        rec = {
            "time": (
                0.0 if self._started is None
                else time.monotonic() - self._started
            ),
            "jobs": self.store.counts(),
            "metrics": snapshot,
        }
        if final:
            rec["final"] = True
        with open(self.store.root / "metrics.jsonl", "a") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()
            if final:
                os.fsync(fh.fileno())


# ---------------------------------------------------------------------- #
class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def daemon(self) -> ServeDaemon:
        return self.server.repro_daemon  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service is quiet; telemetry goes to metrics.jsonl

    # ------------------------------------------------------------------ #
    def _send_json(self, code: int, payload: dict) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecError("body", "empty request body (expected JSON)")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SpecError("body", f"invalid JSON: {exc}") from exc

    def _job_or_404(self, job_id: str) -> Optional[dict]:
        try:
            rec = self.daemon.store.get(job_id)
        except ValueError as exc:  # ambiguous prefix
            self._send_json(400, {"error": str(exc)})
            return None
        if rec is None:
            self._send_json(404, {"error": f"no job {job_id!r}"})
            return None
        return rec

    # ------------------------------------------------------------------ #
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path.rstrip("/") != "/jobs":
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        if self.daemon.draining:
            self._send_json(503, {"error": "draining: not accepting jobs"})
            return
        try:
            payload = self._read_body()
            record, compute = self.daemon.submit(payload)
        except SpecError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(
            201 if compute == "scheduled" else 200,
            {
                "job": record["id"],
                "compute": compute,
                "status": record["status"],
                "submits": record["submits"],
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            self._send_json(
                200,
                {
                    "status": "draining" if self.daemon.draining else "ok",
                    "workers_alive": self.daemon.pool.alive(),
                },
            )
        elif parts == ["metrics"]:
            with self.daemon._metrics_mu:
                snap = self.daemon.metrics.snapshot()
            self._send_json(
                200, {"jobs": self.daemon.store.counts(), "metrics": snap}
            )
        elif parts == ["jobs"]:
            jobs = [
                {k: v for k, v in rec.items() if k != "spec"}
                for rec in self.daemon.store.list_jobs()
            ]
            self._send_json(200, {"jobs": jobs})
        elif len(parts) == 2 and parts[0] == "jobs":
            rec = self._job_or_404(parts[1])
            if rec is not None:
                self._send_json(200, rec)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            rec = self._job_or_404(parts[1])
            if rec is None:
                return
            if rec["status"] == "done":
                self._send_json(200, rec["result"])
            elif rec["status"] == "failed":
                self._send_json(
                    409, {"status": "failed", "error": rec.get("error")}
                )
            else:
                self._send_json(409, {"status": rec["status"]})
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "diagnostics":
            rec = self._job_or_404(parts[1])
            if rec is not None:
                self._stream_diagnostics(rec)
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    # ------------------------------------------------------------------ #
    def _stream_diagnostics(self, rec: dict) -> None:
        """Chunked tail of the job's diagnostics.jsonl until it is both
        fully sent and the job is terminal.  Byte-identical to the file:
        the loop only ever forwards raw bytes, in order."""
        daemon = self.daemon
        store = daemon.store
        job_id = rec["id"]
        path = store.diagnostics_path(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        pos = 0
        try:
            while True:
                # status *before* the read: anything written before the
                # terminal status was recorded is caught by this read
                current = store.get(job_id) or rec
                terminal = current["status"] in TERMINAL_STATUSES
                chunk = b""
                if path.exists():
                    with open(path, "rb") as fh:
                        fh.seek(pos)
                        chunk = fh.read(1 << 20)
                if chunk:
                    pos += len(chunk)
                    self.wfile.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                    self.wfile.flush()
                    continue
                if terminal:
                    break
                if daemon.draining and current["status"] == "queued":
                    break  # this job will not start during a drain
                time.sleep(daemon.poll)
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream

"""Stdlib HTTP client for a ``repro serve`` daemon.

Used by the ``repro submit`` / ``repro jobs`` CLI verbs and by tests; a
thin ``http.client`` wrapper (no third-party deps) that knows the job
API's dedup semantics and can stream a job's diagnostics incrementally.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union
from urllib.parse import urlsplit

from ..runtime.spec import SimulationSpec

__all__ = ["ServeError", "ServeClient"]

PathLike = Union[str, Path]


class ServeError(RuntimeError):
    """The serve daemon is unreachable or answered with an error."""


class ServeClient:
    """Client for one daemon, addressed by URL or by store directory."""

    def __init__(self, url: str, timeout: float = 30.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", ""):
            raise ServeError(f"unsupported scheme in {url!r} (http only)")
        if not parts.hostname:
            raise ServeError(f"no host in serve url {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    @classmethod
    def from_dir(cls, root: PathLike, timeout: float = 30.0) -> "ServeClient":
        """Connect to the daemon serving ``root`` via its rendezvous file."""
        from .http import SERVE_INFO

        info_path = Path(root) / SERVE_INFO
        try:
            info = json.loads(info_path.read_text())
        except FileNotFoundError:
            raise ServeError(
                f"no running daemon for {root} (missing {info_path}; "
                "start one with `repro serve <dir>`)"
            )
        return cls(info["url"], timeout=timeout)

    # ------------------------------------------------------------------ #
    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if payload is None else {"Content-Type": "application/json"}
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
                raw = resp.read()
            except (ConnectionError, OSError) as exc:
                raise ServeError(
                    f"cannot reach serve daemon at http://{self.host}:{self.port}: {exc}"
                ) from exc
            try:
                data = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                data = {"error": raw.decode(errors="replace")}
            return resp.status, data
        finally:
            conn.close()

    @staticmethod
    def _check(status: int, data: dict, what: str) -> dict:
        if status >= 400:
            raise ServeError(
                f"{what} failed ({status}): {data.get('error', data)}"
            )
        return data

    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: Optional[Union[SimulationSpec, dict]] = None,
        scenario: Optional[str] = None,
        overrides: Optional[Dict[str, object]] = None,
    ) -> dict:
        """Submit a spec (or a registered scenario + overrides).  Returns
        the response dict: ``job`` (content-hash id), ``compute``
        (``scheduled|attached|cached|requeued``), ``status``, ``submits``."""
        if (spec is None) == (scenario is None):
            raise ValueError("pass exactly one of spec= or scenario=")
        if scenario is not None:
            body: dict = {"scenario": scenario, "overrides": overrides or {}}
        elif isinstance(spec, SimulationSpec):
            body = spec.to_dict()
        else:
            body = dict(spec)
        status, data = self._request("POST", "/jobs", body)
        return self._check(status, data, "submit")

    def job(self, job_id: str) -> dict:
        status, data = self._request("GET", f"/jobs/{job_id}")
        return self._check(status, data, f"job {job_id}")

    def jobs(self) -> list:
        status, data = self._request("GET", "/jobs")
        return self._check(status, data, "jobs")["jobs"]

    def metrics(self) -> dict:
        status, data = self._request("GET", "/metrics")
        return self._check(status, data, "metrics")

    def result(
        self,
        job_id: str,
        wait: bool = False,
        timeout: float = 300.0,
        poll: float = 0.2,
    ) -> dict:
        """The finished run summary; with ``wait`` polls until the job
        leaves the queue (raising on failure or timeout).  Without ``wait``
        a queued/running job yields its ``{"status": ...}`` dict instead."""
        deadline = time.monotonic() + timeout
        while True:
            status, data = self._request("GET", f"/jobs/{job_id}/result")
            if status < 400 and "status" not in data:
                return data
            if status == 409 and data.get("status") == "failed":
                raise ServeError(
                    f"job {job_id} failed: {data.get('error', 'unknown error')}"
                )
            if status == 409:
                if not wait:
                    return data
                if time.monotonic() > deadline:
                    raise ServeError(
                        f"timed out after {timeout:g}s waiting for job {job_id} "
                        f"(status: {data.get('status')})"
                    )
                time.sleep(poll)
                continue
            return self._check(status, data, f"result of {job_id}")

    def stream_diagnostics(self, job_id: str) -> Iterator[bytes]:
        """Yield the job's ``diagnostics.jsonl`` bytes as they are written;
        the iterator ends when the job reaches a terminal state.  The
        concatenation of the yielded chunks is byte-identical to the
        on-disk file."""
        conn = HTTPConnection(self.host, self.port, timeout=max(self.timeout, 600.0))
        try:
            try:
                conn.request("GET", f"/jobs/{job_id}/diagnostics")
                resp = conn.getresponse()
            except (ConnectionError, OSError) as exc:
                raise ServeError(
                    f"cannot reach serve daemon at http://{self.host}:{self.port}: {exc}"
                ) from exc
            if resp.status >= 400:
                raw = resp.read()
                try:
                    detail = json.loads(raw).get("error", "")
                except json.JSONDecodeError:
                    detail = raw.decode(errors="replace")
                raise ServeError(
                    f"diagnostics of {job_id} failed ({resp.status}): {detail}"
                )
            while True:
                chunk = resp.read(65536)
                if not chunk:
                    break
                yield chunk
        finally:
            conn.close()

"""Lock-file leases: the claim primitive of the job queue.

:class:`repro.serve.store.FileJobStore` — the one queue behind
``repro campaign``, ``repro worker`` and ``repro serve`` — hands out run
claims and serializes its metadata writes through :class:`LeaseLock`:

* a lease is an ``O_CREAT | O_EXCL`` file (atomic on POSIX filesystems, no
  server needed) holding the claimant's host/pid/timestamp;
* a held lease is heartbeated by a daemon thread, so a *live* holder's
  lease never expires mid-run; a lease whose mtime stops advancing for
  ``timeout`` seconds is stale (crashed holder) and may be broken by any
  contender — exactly one of them wins the re-race.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Optional, Union

__all__ = ["LeaseLock", "validate_lease_timeout"]

PathLike = Union[str, Path]
LOCK_DIR = "locks"
CLAIMS_LOG = "claims.log"
DEFAULT_LEASE_TIMEOUT = 900.0
#: the heartbeat refreshes a held lease every ``max(timeout / 4, MIN_
#: HEARTBEAT_INTERVAL)`` seconds; a timeout below ``MIN_LEASE_TIMEOUT``
#: would leave the heartbeat interval too close to the staleness cutoff,
#: so a *live* worker's lease could be stolen between two beats.
MIN_HEARTBEAT_INTERVAL = 0.05
MIN_LEASE_TIMEOUT = 0.2


def validate_lease_timeout(timeout: float) -> float:
    """Validate a lease timeout: the heartbeat interval (``timeout / 4``,
    floored at :data:`MIN_HEARTBEAT_INTERVAL`) must stay well under the
    staleness cutoff, or a live claimant could be taken over mid-run.
    Raises ``ValueError`` with an actionable message otherwise."""
    try:
        t = float(timeout)
    except (TypeError, ValueError):
        raise ValueError(f"lease timeout must be a number, got {timeout!r}")
    if not t > 0 or t != t or t == float("inf"):
        raise ValueError(f"lease timeout must be a positive finite number, got {t!r}")
    if t < MIN_LEASE_TIMEOUT:
        interval = max(t / 4.0, MIN_HEARTBEAT_INTERVAL)
        raise ValueError(
            f"lease timeout {t} s is too small: the heartbeat refreshes every "
            f"{interval:g} s and must stay well under the staleness cutoff "
            f"(minimum timeout: {MIN_LEASE_TIMEOUT} s)"
        )
    return t


class LeaseLock:
    """An exclusive-create lock file with heartbeat and stale takeover.

    ``try_acquire`` atomically creates the file (``O_CREAT | O_EXCL``); a
    lock whose mtime is older than ``timeout`` is considered abandoned and
    may be broken by any contender (unlink + re-race; exactly one of the
    racers wins the subsequent exclusive create).  While held, a daemon
    thread refreshes the mtime at ``timeout / 4``.
    """

    def __init__(self, path: PathLike, timeout: float = DEFAULT_LEASE_TIMEOUT):
        self.path = Path(path)
        self.timeout = validate_lease_timeout(timeout)
        self._held = False
        self._beat: Optional[threading.Event] = None

    @property
    def held(self) -> bool:
        return self._held

    def _payload(self) -> str:
        return json.dumps(
            {"host": socket.gethostname(), "pid": os.getpid(), "time": time.time()}
        )

    def is_stale(self) -> bool:
        try:
            age = time.time() - self.path.stat().st_mtime
        except FileNotFoundError:
            return False
        return age > self.timeout

    def try_acquire(self) -> bool:
        if self._held:
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.is_stale():
            # break the abandoned lock by atomic rename: exactly one
            # contender's rename succeeds, so a rival's *fresh* replacement
            # lock can never be deleted out from under it (the unlink-then-
            # create scheme had that TOCTOU race); losers simply retry
            grave = self.path.with_name(
                f"{self.path.name}.stale-{os.getpid()}-{time.time_ns()}"
            )
            try:
                os.rename(self.path, grave)
            except FileNotFoundError:
                return False  # another contender broke it first; re-race later
            try:
                grave.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(self._payload())
        self._held = True
        self._start_heartbeat()
        return True

    def _start_heartbeat(self) -> None:
        stop = threading.Event()
        interval = max(self.timeout / 4.0, MIN_HEARTBEAT_INTERVAL)

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    os.utime(self.path)
                except FileNotFoundError:  # pragma: no cover - stolen lock
                    return

        t = threading.Thread(target=beat, daemon=True, name=f"lease-{self.path.name}")
        t.start()
        self._beat = stop

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        if self._beat is not None:
            self._beat.set()
            self._beat = None
        try:
            self.path.unlink()
        except FileNotFoundError:  # pragma: no cover - stolen stale lock
            pass

    def __enter__(self) -> "LeaseLock":
        # blocking acquire with stale takeover (store metadata critical sections)
        deadline = time.time() + max(self.timeout, 30.0)
        while not self.try_acquire():
            if time.time() > deadline:
                raise TimeoutError(f"could not acquire {self.path}")
            time.sleep(0.02)
        return self

    def __exit__(self, *exc) -> None:
        self.release()

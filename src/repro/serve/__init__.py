"""``repro.serve``: the job queue — one store, batch submits and a daemon.

The paper's workload is large parameter scans, and at serving scale
"millions of users mostly re-run the same scans": the highest-leverage
layer is a queue that **content-hashes every submitted spec for result
dedup** and schedules only the genuinely new ones onto workers.  There is
one such queue: ``repro campaign`` batch-submits a scan to a store
directory and drains it, ``repro worker <dir>`` joins any store directory,
and ``repro serve <dir>`` puts an HTTP daemon with persistent workers in
front of the same directory.  The pieces:

* :mod:`repro.serve.hash`      — canonical content hash of a
  JSON-round-trippable :class:`~repro.runtime.spec.SimulationSpec` (PR 1);
* :mod:`repro.serve.store`     — :class:`FileJobStore`, one directory of
  job records keyed by that hash, built on atomic writes + the O_EXCL
  lease of :mod:`repro.dist.lease`;
* :mod:`repro.serve.scheduler` — worker processes (persistent, woken by a
  submission, or exit-when-idle for a batch drain) with
  heartbeat/stale-takeover lease semantics, so a SIGKILLed worker's job is
  re-run exactly once;
* :mod:`repro.serve.http`      — the ``repro serve`` daemon: submit /
  status / result endpoints plus a chunked incremental tail of the
  per-record-flushed ``diagnostics.jsonl`` (PR 2/PR 8), graceful SIGTERM
  drain, and :mod:`repro.obs` service metrics;
* :mod:`repro.serve.client`    — the stdlib client behind ``repro
  submit`` / ``repro jobs``.

Dedup contract (the acceptance invariant): submitting the same spec twice
runs **exactly one** simulation — the second response carries
``compute: "cached"`` (finished) or ``"attached"`` (in flight), and the
streamed diagnostics body is byte-identical to the on-disk file.
"""

from .client import ServeClient, ServeError  # noqa: F401
from .hash import canonical_spec_dict, normalized_spec_dict, spec_digest  # noqa: F401
from .http import ServeDaemon  # noqa: F401
from .scheduler import WorkerPool, run_job, worker_loop  # noqa: F401
from .store import FileJobStore  # noqa: F401

__all__ = [
    "spec_digest",
    "canonical_spec_dict",
    "normalized_spec_dict",
    "FileJobStore",
    "WorkerPool",
    "worker_loop",
    "run_job",
    "ServeDaemon",
    "ServeClient",
    "ServeError",
]

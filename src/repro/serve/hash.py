"""Canonical content hashing of simulation specs (result dedup keys).

The serving layer keys every job by a **canonical content hash** of the
submitted :class:`~repro.runtime.spec.SimulationSpec`: two submissions
that describe the same *physics and outputs* map to the same job, so the
second (and millionth) submission of a scan point returns the finished
result with zero compute.

What the hash deliberately ignores:

* ``backend`` / ``plan_cache`` — the repo-wide invariant
  (tested since PR 3/PR 6) is that every backend and kernel tier produces
  **bit-identical** results, so execution strategy is not part of the
  result's identity;
* ``observability`` — tracing never changes results (the CI obs-trace leg
  runs the whole suite under ``REPRO_OBS=trace``);
* output *paths* (``diagnostics.checkpoint_path`` / ``stream_path``) —
  the job store owns where results land.

Everything else — model, grids, species, initial conditions, collision
operators, ``poly_order``, CFL, stepper, ``t_end``/``steps``, diagnostics
*scheduling* — is part of the identity: changing any of it changes the
result stream, so it must produce a different job.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Union

from ..runtime.spec import SimulationSpec

__all__ = ["normalized_spec_dict", "canonical_spec_dict", "spec_digest"]

#: execution-strategy fields excluded from the content hash (results are
#: bit-identical across them by construction)
NONSEMANTIC_FIELDS = ("backend", "plan_cache", "observability")

SpecLike = Union[SimulationSpec, Mapping]


def _as_dict(spec: SpecLike) -> Dict:
    if isinstance(spec, SimulationSpec):
        return spec.to_dict()
    return SimulationSpec.from_dict(spec).to_dict()


def normalized_spec_dict(spec: SpecLike) -> Dict:
    """The spec dict a serve worker actually runs: output paths cleared so
    diagnostics/checkpoints land in the job's own directory (the store owns
    placement, not the submitter)."""
    data = _as_dict(spec)
    diag = dict(data.get("diagnostics") or {})
    diag["checkpoint_path"] = None
    diag["stream_path"] = None
    data["diagnostics"] = diag
    obs = dict(data.get("observability") or {})
    obs["trace_path"] = None
    obs["metrics_path"] = None
    data["observability"] = obs
    return data


def canonical_spec_dict(spec: SpecLike) -> Dict:
    """The semantic content of a spec: normalized, with execution-strategy
    fields dropped.  This is the dict the digest is computed over."""
    data = normalized_spec_dict(spec)
    for key in NONSEMANTIC_FIELDS:
        data.pop(key, None)
    return data


def spec_digest(spec: SpecLike) -> str:
    """SHA-256 over the canonical JSON encoding (sorted keys, compact
    separators) of the spec's semantic content.  Submissions that differ
    only in key order, backend, kernel tier, or observability settings
    produce the same digest."""
    payload = json.dumps(
        canonical_spec_dict(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()

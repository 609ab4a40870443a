"""Campaigns: a parameter scan is a batch submit to the job store.

A campaign is a JSON file naming a scenario, a set of base overrides, and a
scan — either a ``scan`` object (grid product over per-key value lists) or
an explicit ``points`` list.  :func:`run_campaign` builds every point's
spec, submits it to the :class:`~repro.serve.store.FileJobStore` rooted at
the campaign directory (jobs are keyed by the spec's content hash), drains
the store with the ordinary serve workers, and writes ``manifest.json`` — a
report derived from the store's job records, never read back as state.
Resume, "only the changed points re-run" and retry-of-failed are therefore
the store's dedup: a finished job is ``cached``, a new digest is
``scheduled``, a failed one is ``requeued``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Union

from ..io.atomic import publish_text
from .errors import SpecError
from .scenarios import build
from .spec import _reject_unknown

__all__ = [
    "CampaignSpec",
    "expand_points",
    "run_campaign",
    "load_manifest",
]

PathLike = Union[str, Path]
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative parameter-scan description."""

    scenario: str
    name: str = "campaign"
    base: Dict[str, object] = field(default_factory=dict)
    scan: Dict[str, List[object]] = field(default_factory=dict)
    points: Optional[List[Dict[str, object]]] = None
    workers: int = 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "base": dict(self.base),
            "scan": {k: list(v) for k, v in self.scan.items()},
            "points": None if self.points is None else [dict(p) for p in self.points],
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: Mapping, path: str = "campaign") -> "CampaignSpec":
        _reject_unknown(data, path, ("name", "scenario", "base", "scan", "points", "workers"))
        if "scenario" not in data:
            raise SpecError(f"{path}.scenario", "missing required field")
        for key in ("scenario", "name"):
            if not isinstance(data.get(key, ""), str):
                raise SpecError(f"{path}.{key}", f"expected a string, got {data[key]!r}")
        scan = data.get("scan", {})
        if not isinstance(scan, Mapping):
            raise SpecError(f"{path}.scan", f"expected an object, got {scan!r}")
        for key, vals in scan.items():
            if not isinstance(vals, (list, tuple)) or not vals:
                raise SpecError(
                    f"{path}.scan.{key}", f"expected a non-empty list of values, got {vals!r}"
                )
        points = data.get("points")
        if points is not None:
            if not isinstance(points, (list, tuple)):
                raise SpecError(f"{path}.points", f"expected a list, got {points!r}")
            for i, p in enumerate(points):
                if not isinstance(p, Mapping):
                    raise SpecError(f"{path}.points[{i}]", f"expected an object, got {p!r}")
            if scan:
                raise SpecError(
                    f"{path}.points",
                    "give either `scan` or `points`, not both (an explicit "
                    "point list would silently replace the scan grid)",
                )
        base = data.get("base", {})
        if not isinstance(base, Mapping):
            raise SpecError(f"{path}.base", f"expected an object, got {base!r}")
        workers = data.get("workers", 1)
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise SpecError(f"{path}.workers", f"expected a positive integer, got {workers!r}")
        return cls(
            scenario=data["scenario"],
            name=data.get("name", "campaign"),
            base=dict(base),
            scan={k: list(v) for k, v in scan.items()},
            points=None if points is None else [dict(p) for p in points],
            workers=workers,
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError("campaign", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: PathLike) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())


def expand_points(campaign: CampaignSpec) -> List[Dict[str, object]]:
    """Enumerate override dicts: base ∪ (scan grid product or explicit points)."""
    if campaign.points is not None:
        variations: List[Dict[str, object]] = [dict(p) for p in campaign.points]
    elif campaign.scan:
        keys = list(campaign.scan)
        variations = [
            dict(zip(keys, combo))
            for combo in itertools.product(*(campaign.scan[k] for k in keys))
        ]
    else:
        variations = [{}]
    return [{**campaign.base, **var} for var in variations]


def load_manifest(outdir: PathLike) -> Optional[dict]:
    path = Path(outdir) / MANIFEST_NAME
    if not path.exists():
        return None
    return json.loads(path.read_text())


def run_campaign(
    campaign: CampaignSpec,
    outdir: PathLike,
    workers: Optional[int] = None,
    lease_timeout: Optional[float] = None,
    progress: Optional[Callable[[dict], None]] = None,
    drain: bool = True,
) -> dict:
    """Submit every point of ``campaign`` to the job store in ``outdir``,
    drain it (unless ``drain`` is false: submit only, for ``repro worker``
    / ``repro serve`` to pick up), and return the manifest.

    The manifest maps ``pNNNN`` to the point's overrides, its job digest,
    the job's output directory relative to ``outdir``, what the submission
    cost (``scheduled | attached | cached | requeued``) and the job
    record's status, result and error.  Points whose specs hash alike
    share one job.  A point whose spec does not build never becomes a job:
    it is recorded ``failed`` with ``job: null`` and the others still run.
    ``progress`` receives each finished job's record.
    """
    # function-local: `import repro.runtime` must not pull in http.server
    from ..serve.scheduler import WorkerPool, worker_loop
    from ..serve.store import DEFAULT_LEASE_TIMEOUT, FileJobStore

    outdir = Path(outdir)
    if lease_timeout is None:
        lease_timeout = DEFAULT_LEASE_TIMEOUT
    store = FileJobStore(outdir, lease_timeout)
    points: Dict[str, dict] = {}
    for i, overrides in enumerate(expand_points(campaign)):
        entry = {"overrides": overrides, "job": None, "outdir": None, "compute": None}
        try:
            spec = build(campaign.scenario, **overrides)
        except (SpecError, TypeError, ValueError) as exc:
            # TypeError/ValueError: a scenario factory computing with a
            # mistyped parameter before the spec validators see it
            error = f"{type(exc).__name__}: {exc}"
            entry.update(status="failed", result=None, error=error)
        else:
            record, entry["compute"] = store.submit(spec)
            entry["job"] = record["id"]
            entry["outdir"] = str(store.outdir(record["id"]).relative_to(outdir))
        points[f"p{i:04d}"] = entry
    manifest = {"name": campaign.name, "campaign": campaign.to_dict(), "points": points}

    def refresh() -> None:
        for entry in points.values():
            if entry["job"] is not None:
                record = store.get(entry["job"])
                entry.update({k: record[k] for k in ("status", "result", "error")})

    # written at submit too: the index exists while workers (here, or
    # `repro worker` on another host) are still running
    refresh()
    publish_text(outdir / MANIFEST_NAME, json.dumps(manifest, indent=2))
    if not drain:
        return manifest
    # a daemon that drained this directory left its STOP sentinel behind
    store.clear_stop()
    skipped = sum(e["compute"] == "cached" for e in points.values())
    runnable = sum(e["job"] is not None for e in points.values()) - skipped
    workers = min(campaign.workers if workers is None else int(workers), runnable)
    if workers <= 1:
        worker_loop(outdir, lease_timeout, exit_when_idle=True, on_finish=progress)
    else:
        WorkerPool(
            outdir, workers, lease_timeout, exit_when_idle=True, on_finish=progress
        ).start().join()
    refresh()
    manifest["summary"] = {
        "total": len(points),
        "ran": len(points) - skipped,
        "skipped": skipped,
        "failed": sum(e["status"] == "failed" for e in points.values()),
    }
    publish_text(outdir / MANIFEST_NAME, json.dumps(manifest, indent=2))
    return manifest

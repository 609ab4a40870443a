"""Content-addressed on-disk store for compiled execution plans.

Plan compilation is deterministic: the operator blocks an
:class:`~repro.engine.plan.ExecutionPlan` freezes are a pure function of
the generated :class:`~repro.kernels.termset.TermSet`, the aux
*signature* (symbol classification), and the cell shape.  That triple is
hashed into a content digest (:func:`plan_digest`) and the compiled
artifacts — per sweep group the merged per-cell pattern with its entries
or, for per-cell rows, the term stack on the union of the terms' non-zeros
— are serialized to one ``.npz`` file per digest under a cache
root (default ``~/.cache/repro``, redirected by ``$REPRO_CACHE_DIR``).

The store is safe under concurrent writers (sharded workers and campaign
fleets compile the same plans at the same time): payloads are published
through :mod:`repro.io.atomic`, and two racing writers produce
byte-identical content, so last-write-wins is harmless.  Readers treat a
missing file, a truncated zip, a member failing its CRC, a wrong version or
a malformed metadata record as a cache miss: a corrupted cache can cost a
recompile, never a crash or a wrong answer.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..io.atomic import publish

__all__ = [
    "ARTIFACT_VERSION",
    "default_cache_dir",
    "resolve_cache_root",
    "PlanCache",
]

#: bumped whenever the artifact layout changes; part of every digest, so a
#: version bump invalidates the whole cache without any migration logic
ARTIFACT_VERSION = 3

_META_KEY = "__meta__"


def default_cache_dir() -> Path:
    """The cache root used by the ``"auto"`` setting: ``$REPRO_CACHE_DIR``
    when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def resolve_cache_root(setting: Optional[str]) -> Optional[Path]:
    """Map a cache setting string to a root directory (or None = disabled).

    ``None``/``"off"``/``""`` disable the disk cache; ``"auto"`` selects
    :func:`default_cache_dir`; anything else is taken as a path.
    """
    if setting is None or setting in ("off", ""):
        return None
    if setting == "auto":
        return default_cache_dir()
    return Path(setting).expanduser()


class PlanCache:
    """One content-addressed plan store rooted at a directory.

    Every entry is a single ``.npz`` holding the artifact arrays plus a
    JSON metadata record under ``__meta__``.  The digest in the filename
    *is* the cache key — there is no index to corrupt or lock.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    def path_for(self, digest: str) -> Path:
        return self.root / f"plan-{digest}.npz"

    def load(self, digest: str) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
        """The ``(meta, arrays)`` payload for ``digest``, or None when the
        entry is missing, truncated, corrupted or version-mismatched."""
        path = self.path_for(digest)
        try:
            with np.load(path, allow_pickle=False) as z:
                meta = json.loads(str(z[_META_KEY]))
                if meta.get("format") != ARTIFACT_VERSION:
                    return None
                arrays = {k: z[k] for k in z.files if k != _META_KEY}
            return meta, arrays
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
            return None

    def store(self, digest: str, meta: dict, arrays: Dict[str, np.ndarray]) -> bool:
        """Publish a payload; returns False on an I/O failure (a read-only
        or full cache dir degrades to compile-every-time)."""
        payload = dict(arrays)
        payload[_META_KEY] = np.asarray(
            json.dumps({**meta, "format": ARTIFACT_VERSION})
        )
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with publish(self.path_for(digest)) as tmp, open(tmp, "wb") as fh:
                np.savez(fh, **payload)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------ #
    def entries(self) -> List[dict]:
        """Inventory of the store (for ``repro plans list``): one record per
        entry with digest, size, mtime, and whatever metadata loads."""
        out: List[dict] = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob("plan-*.npz")):
            digest = path.stem[len("plan-"):]
            rec: dict = {"digest": digest, "path": str(path)}
            try:
                st = path.stat()
                rec["bytes"] = st.st_size
                rec["mtime"] = st.st_mtime
            except OSError:
                continue
            payload = self.load(digest)
            if payload is None:
                rec["status"] = "corrupt"
            else:
                meta = payload[0]
                rec["status"] = "ok"
                rec["nout"] = meta.get("nout")
                rec["nin"] = meta.get("nin")
                rec["cell_shape"] = meta.get("cell_shape")
            out.append(rec)
        return out

    def kernels(self) -> List[Path]:
        """Compiled kernel objects sharing this root (``ccsweep-*.so``,
        written by :mod:`repro.cas.codegen`)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("ccsweep-*.so"))

    def clear(self) -> int:
        """Remove every entry, compiled kernel object, and stale tmp file;
        returns the count of plan entries removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in list(self.root.glob("plan-*.npz")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for extra in ("ccsweep-*.so", "ccsweep-*.c", ".*.tmp"):
            for path in list(self.root.glob(extra)):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

"""Checkpoint/restart I/O (the ADIOS role in Gkeyll, via ``.npz``).

A kinetic checkpoint is the full set of species distribution functions plus
the EM field state and the simulation clock.  There is one format: an
``.npz`` whose members are ``state_<i>`` (the arrays, cell-major),
``state_keys_json`` (their true keys, in order) and ``meta_json`` (scalar
metadata, with ``meta["layout"] == "cell-major"``).  It is published through
:mod:`repro.io.atomic`, so the file under a checkpoint's name is always a
complete one.  :func:`load_checkpoint` returns exactly what was saved or
raises :class:`CheckpointError`; the zip container checksums every member, so
a truncated or bit-flipped file is an error, never a wrong state.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Union

import numpy as np

from .atomic import publish

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_roundtrip_equal",
    "CheckpointError",
    "CANONICAL_LAYOUT",
]

PathLike = Union[str, Path]

CANONICAL_LAYOUT = "cell-major"


class CheckpointError(Exception):
    """``path`` is not a checkpoint :func:`load_checkpoint` can serve."""

    def __init__(self, path: PathLike, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = Path(path)
        self.reason = reason


def save_checkpoint(path: PathLike, state: Dict[str, np.ndarray], meta: Dict) -> None:
    """Publish a checkpoint; ``meta`` must be JSON-serializable.  The true
    keys travel in the JSON manifest, so any key round-trips exactly; the
    payload is stored uncompressed (float64 state does not compress)."""
    path = Path(path)
    meta = {**meta, "layout": CANONICAL_LAYOUT}
    keys = list(state)
    payload = {f"state_{i}": state[k] for i, k in enumerate(keys)}
    payload["state_keys_json"] = np.frombuffer(
        json.dumps(keys).encode(), dtype=np.uint8
    )
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with publish(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path: PathLike):
    """Read back ``(state, meta)`` from :func:`save_checkpoint`.

    Anything else under ``path`` — not a zip, truncated, a member failing its
    CRC, a missing member, a layout other than cell-major — raises
    :class:`CheckpointError` (a missing file stays ``FileNotFoundError``).
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta_json"]).decode())
            keys = json.loads(bytes(data["state_keys_json"]).decode())
            state = {name: data[f"state_{i}"] for i, name in enumerate(keys)}
    except FileNotFoundError:
        raise
    except (
        OSError, EOFError, ValueError, KeyError, TypeError,
        zipfile.BadZipFile, zlib.error,
    ) as exc:
        raise CheckpointError(
            path, f"not a readable checkpoint ({type(exc).__name__}: {exc})"
        ) from exc
    if meta.get("layout") != CANONICAL_LAYOUT:
        raise CheckpointError(
            path,
            f"layout {meta.get('layout')!r} predates the cell-major layout; the "
            "converter is in the git history of src/repro/io/checkpoint.py",
        )
    return state, meta


def checkpoint_roundtrip_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    if set(a) != set(b):
        return False
    return all(np.array_equal(a[k], b[k]) for k in a)


def save_app(path: PathLike, app) -> None:
    """Checkpoint a :class:`~repro.systems.system.System` (or any Model
    exposing the discretization attributes recorded below)."""
    meta = {
        "time": app.time,
        "step_count": app.step_count,
        "poly_order": app.poly_order,
        "family": app.family,
        "scheme": app.scheme,
        "species": [s.name for s in app.species],
    }
    save_checkpoint(path, app.state(), meta)


def restore_app(path: PathLike, app) -> Dict:
    """Restore Model state in place through the protocol
    (``set_state``/``time``/``step_count``); returns the checkpoint
    metadata."""
    state, meta = load_checkpoint(path)
    app.set_state({k: np.array(v) for k, v in state.items()})
    app.time = float(meta["time"])
    app.step_count = int(meta["step_count"])
    return meta

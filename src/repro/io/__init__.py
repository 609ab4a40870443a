"""Checkpoint/restart I/O and the atomic artifact writer (a leaf package:
numpy + stdlib, importable from every layer)."""

from .checkpoint import (
    CANONICAL_LAYOUT,
    CheckpointError,
    checkpoint_roundtrip_equal,
    load_checkpoint,
    restore_app,
    save_app,
    save_checkpoint,
)

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_app",
    "restore_app",
    "checkpoint_roundtrip_equal",
    "CheckpointError",
    "CANONICAL_LAYOUT",
]

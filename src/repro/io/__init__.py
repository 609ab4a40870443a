"""Checkpoint/restart I/O and the atomic artifact writer (a leaf package:
numpy + stdlib, importable from every layer)."""

from .checkpoint import (
    CANONICAL_LAYOUT,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "CANONICAL_LAYOUT",
]

"""The one way a whole-file artifact becomes visible: write, fsync, rename.

Checkpoints, plan-cache entries, kernel objects, ``job.json``,
``result.json``, manifests, ``serve.json`` and traces are written under a
temporary name in the target's directory and renamed over the target once
their bytes are on disk: a reader sees the previous complete file or the new
one, never a partial one, and a killed writer leaves the previous file.  The
temporary name is dot-prefixed and ``.tmp``-suffixed, so the globs that
enumerate artifacts (``plan-*.npz``, ``ccsweep-*.so``) never match it.
Append-only streams and lock files are not published this way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

__all__ = ["publish", "publish_text"]


@contextmanager
def publish(target: Union[str, Path]) -> Iterator[Path]:
    """Yield a fresh temporary path beside ``target`` for the block (or a
    child process it waits for) to write and close.  On clean exit the file
    is fsynced and renamed over ``target``; on any exception it is removed,
    ``target`` is untouched, and the exception propagates."""
    target = Path(target)
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        yield tmp
        fd = os.open(tmp, os.O_RDWR)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def publish_text(target: Union[str, Path], text: str) -> None:
    with publish(target) as tmp:
        tmp.write_text(text)

"""Preallocated scratch-buffer pool.

Kernel application needs a handful of temporaries (coefficient rows,
face-sized buffers, velocity-weighted states on the compiler-less tier).
Allocating them per call costs more than the arithmetic on the small grids
the paper benchmarks, so plans draw them from a :class:`ScratchPool`: one persistent array per
``(tag, shape)``, reused across every plan and RK stage that shares the
pool.  Pools are not thread-safe by design — one pool per solver instance,
applied sequentially.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT

__all__ = ["ScratchPool"]

_S_SCRATCH = _OBS_SLOT["scratch_bytes"]


class ScratchPool:
    """Dictionary of reusable float64 work arrays keyed by (tag, shape).

    The pool also audits *layout-normalizing copies*: code that is forced to
    copy a full state array into scratch just to fix its memory layout (a
    non-contiguous input where the cell-major hot path expects contiguous
    state) reports it through :meth:`record_layout_copy`.  In steady state
    the cell-major layout makes every such copy unnecessary, and tests turn
    on :attr:`copy_debug` to assert none happen.
    """

    def __init__(self):
        self._arrays: Dict[Tuple[str, Tuple[int, ...]], np.ndarray] = {}
        #: when True, any layout-normalizing copy raises instead of counting
        self.copy_debug = False
        #: cumulative count of layout-normalizing copies (diagnostics)
        self.layout_copies = 0

    def record_layout_copy(self, tag: str, shape: Tuple[int, ...] = ()) -> None:
        """Note (or, under ``copy_debug``, reject) a copy made solely to
        normalize an array's memory layout."""
        self.layout_copies += 1
        if self.copy_debug:
            raise RuntimeError(
                f"unexpected layout-normalizing copy {tag!r} (shape {shape}); "
                "the cell-major hot path must consume state without copies"
            )

    def get(self, tag: str, shape: Tuple[int, ...], zero: bool = False) -> np.ndarray:
        """Fetch the persistent buffer for ``(tag, shape)``.

        Two simultaneous uses of the same shape must use distinct tags;
        sequential uses may share.  ``zero=True`` clears it first.
        """
        key = (tag, tuple(shape))
        arr = self._arrays.get(key)
        if arr is None:
            arr = np.zeros(key[1])
            self._arrays[key] = arr
            if _OBS.on:
                # high-water gauge, updated only on the (rare) alloc branch
                values = _OBS.metrics.values
                total = self.nbytes
                if total > values[_S_SCRATCH]:
                    values[_S_SCRATCH] = total
        elif zero:
            arr.fill(0.0)
        return arr

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays.values())

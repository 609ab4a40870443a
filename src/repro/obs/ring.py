"""Cross-process observability transport: one shared-memory block per worker.

Reuses the state's transport — the parent allocates one
``multiprocessing.shared_memory`` segment per sharded worker, in every
observability mode, *before* forking (through the same
``ShardedApp._alloc`` plumbing that carries the state arrays, so cleanup
is shared too), and the worker inherits the mapping.  The block is a single ``float64`` array laid out as::

    [ write_count | dropped |  span ring (capacity x 3)  |  metric slots ]

* **Span ring** — fixed-size records ``(label_id, t0, t1)`` appended by the
  single writer (the worker) with a monotonically increasing
  ``write_count``; the parent drains new records after every step command
  (the workers are idle between commands, so reads never race writes).
  Overwritten records — the parent falling more than ``capacity`` behind —
  are counted, never silently lost.  Label ids index the worker's interned
  label table, which travels in the existing pipe payloads.  The ring has
  capacity only when tracing.
* **Metric slots** — the worker's :class:`~repro.obs.metrics.MetricsRegistry`
  is *backed by* this slice, so worker counters are parent-readable at any
  moment with zero copies and zero messages.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .metrics import SLOT_NAMES, MetricsRegistry

__all__ = ["ObsChannel", "SPAN_RING"]

#: span records a tracing worker's ring holds between two drains
SPAN_RING = 8192
_HEADER = 2   # [0] = write_count, [1] = reserved (writer-side drop count)
_REC = 3      # label_id, t0, t1


class ObsChannel:
    """Span ring + metric slots over one donated float64 array."""

    __slots__ = ("buf", "capacity", "_ring", "metrics", "_read")

    def __init__(self, buf: np.ndarray, capacity: int = SPAN_RING):
        need = self.length(capacity)
        if buf.shape != (need,):
            raise ValueError(
                f"obs channel buffer must have {need} slots, got {buf.shape}"
            )
        self.buf = buf
        self.capacity = int(capacity)
        self._ring = buf[_HEADER:_HEADER + capacity * _REC]
        self.metrics = MetricsRegistry(buf[_HEADER + capacity * _REC:])
        self._read = 0  # parent-side drain cursor

    @staticmethod
    def length(capacity: int = SPAN_RING) -> int:
        """Total float64 slots a channel of this capacity needs."""
        return _HEADER + int(capacity) * _REC + len(SLOT_NAMES)

    # ------------------------------------------------------------------ #
    # worker side (single writer)
    # ------------------------------------------------------------------ #
    def push(self, label_id: int, t0: float, t1: float) -> None:
        i = int(self.buf[0])
        base = (i % self.capacity) * _REC
        ring = self._ring
        ring[base] = label_id
        ring[base + 1] = t0
        ring[base + 2] = t1
        self.buf[0] = i + 1

    # ------------------------------------------------------------------ #
    # parent side (drained while the worker is idle between commands)
    # ------------------------------------------------------------------ #
    def drain(self) -> Tuple[List[Tuple[int, float, float]], int]:
        """New ``(label_id, t0, t1)`` records since the last drain, plus the
        count of records lost to ring wrap-around."""
        wrote = int(self.buf[0])
        lost = 0
        start = self._read
        if wrote - start > self.capacity:
            lost = wrote - start - self.capacity
            start = wrote - self.capacity
        ring = self._ring
        out = []
        for i in range(start, wrote):
            base = (i % self.capacity) * _REC
            out.append((int(ring[base]), float(ring[base + 1]), float(ring[base + 2])))
        self._read = wrote
        return out, lost

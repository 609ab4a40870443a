"""Span tracing: bounded in-process recorder + Chrome-trace-event export.

Spans are closed intervals ``(label_id, t0, t1)`` on the shared monotonic
clock (``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, which is
system-wide, so spans recorded in forked sharded workers are directly
comparable with the parent's).  Labels are interned per tracer; hot sites
record via :meth:`SpanTracer.record` with a precomputed ``t0`` — no context
manager, no allocation beyond the event tuple.

A worker tracer swaps its event list for a shared-memory ring *sink*
(:class:`repro.obs.ring.ObsChannel`), so its spans surface in the parent
without pickling; the label table travels through the existing PR 3 pipe
payloads instead (it is tiny and changes rarely).

:func:`chrome_trace` renders merged events as Chrome trace-event JSON
(``ph: "X"`` duration events plus process/thread metadata rows), loadable
in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanTracer", "SpanEvent", "chrome_trace", "base_name"]

#: (pid, tid, label, t0, t1) — the merged-event form every exporter consumes
SpanEvent = Tuple[int, int, str, float, float]


def base_name(label: str) -> str:
    """Phase name of a span label (``plan_apply:ab12`` -> ``plan_apply``)."""
    i = label.find(":")
    return label if i < 0 else label[:i]


class SpanTracer:
    """Bounded span recorder with interned labels.

    ``capacity`` bounds the in-memory event list; past it, events are
    counted in :attr:`dropped` instead of growing without bound (long runs
    should raise ``observability.sample``).  When :attr:`sink` is set
    (sharded workers), events bypass the list and go to the ring.
    """

    __slots__ = ("labels", "_ids", "events", "dropped", "capacity", "sink")

    def __init__(self, capacity: int = 262_144):
        self.labels: List[str] = []
        self._ids: Dict[str, int] = {}
        self.events: List[Tuple[int, float, float]] = []
        self.dropped = 0
        self.capacity = int(capacity)
        self.sink = None  # ObsChannel in sharded workers

    def reset(self) -> None:
        self.labels = []
        self._ids = {}
        self.events = []
        self.dropped = 0

    def label_id(self, label: str) -> int:
        lid = self._ids.get(label)
        if lid is None:
            lid = len(self.labels)
            self._ids[label] = lid
            self.labels.append(label)
        return lid

    def record(self, label_id: int, t0: float, t1: float) -> None:
        sink = self.sink
        if sink is not None:
            sink.push(label_id, t0, t1)
            return
        if len(self.events) < self.capacity:
            self.events.append((label_id, t0, t1))
        else:
            self.dropped += 1

    def resolved(self, pid: int, tid: int) -> List[SpanEvent]:
        """The buffered events with labels resolved, tagged ``(pid, tid)``."""
        labels = self.labels
        return [
            (pid, tid, labels[lid], t0, t1) for lid, t0, t1 in self.events
        ]


def chrome_trace(
    events: Iterable[SpanEvent],
    origin: float,
    process_names: Optional[Dict[int, str]] = None,
) -> dict:
    """Render merged span events as a Chrome trace-event JSON object.

    ``origin`` is the run's perf-counter zero; timestamps are exported in
    microseconds relative to it.  ``process_names`` maps pids to row names
    (``driver``, ``shard-0`` ...) emitted as metadata events so Perfetto
    labels each worker row.
    """
    trace_events: List[dict] = []
    seen_pids: Dict[int, bool] = {}
    for pid, tid, label, t0, t1 in events:
        if pid not in seen_pids:
            seen_pids[pid] = True
            name = (process_names or {}).get(pid, f"pid-{pid}")
            trace_events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            })
        trace_events.append({
            "name": label,
            "cat": base_name(label),
            "ph": "X",
            "ts": (t0 - origin) * 1e6,
            "dur": max((t1 - t0) * 1e6, 0.0),
            "pid": pid,
            "tid": tid,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

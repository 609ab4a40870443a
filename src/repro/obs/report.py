"""Offline analysis of a run's observability outputs (``repro report``).

Consumes the artifacts a traced :class:`~repro.runtime.driver.Driver`
leaves in its outdir — ``trace.json`` (Chrome trace events) and
``metrics.jsonl`` (streamed merged counter snapshots) — and renders:

* a **per-phase breakdown**: wall time per phase (``rk_stage``, ``rhs``,
  ``plan_apply``, ``halo_exchange`` ...) as *total* (span-inclusive) and
  *self* time (children subtracted via interval nesting per ``(pid, tid)``
  row, so ``rhs`` self-time excludes the ``plan_apply`` spans inside it);
* the **top-N plans by self-time**, attributed through the
  ``plan_apply:<digest>`` span labels;
* the final merged metrics snapshot (counters, throughput, histogram).

Everything here is cold-path file parsing — nothing imports back into the
runtime hot loop.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..runtime._fmt import format_bytes, format_ms, render_table
from .metrics import COUNTER_NAMES, HIST_NAMES
from .tracer import SpanEvent, base_name

__all__ = [
    "load_trace",
    "load_metrics",
    "phase_breakdown",
    "top_plans",
    "render_report",
]

PathLike = Union[str, Path]


def load_trace(path: PathLike) -> List[SpanEvent]:
    """Duration events of a Chrome trace file as ``SpanEvent`` tuples
    (timestamps back in seconds, relative to the trace origin)."""
    with open(path) as fh:
        doc = json.load(fh)
    events: List[SpanEvent] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        t0 = float(ev["ts"]) * 1e-6
        events.append(
            (
                int(ev.get("pid", 0)),
                int(ev.get("tid", 0)),
                str(ev["name"]),
                t0,
                t0 + float(ev.get("dur", 0.0)) * 1e-6,
            )
        )
    return events


def load_metrics(path: PathLike) -> List[dict]:
    """Every parseable record of a ``metrics.jsonl`` stream (records are
    cumulative snapshots; the last one is the run's final word).

    Unparseable lines are skipped: a still-running (or killed) writer may
    leave a partial final line, and the complete records before it are
    still a valid cumulative view.
    """
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # partial tail of an in-progress stream
    return records


# ---------------------------------------------------------------------- #
def _self_times(events: Sequence[SpanEvent]) -> Dict[str, Tuple[int, float, float]]:
    """Per-label ``(count, total_s, self_s)`` via interval nesting.

    Spans within one ``(pid, tid)`` row are properly nested by
    construction (each site closes before its caller does), so a scan with
    an open-span stack attributes each child's duration against its
    immediate parent's self-time.
    """
    acc: Dict[str, List[float]] = {}  # label -> [count, total, self]
    by_row: Dict[Tuple[int, int], List[SpanEvent]] = {}
    for ev in events:
        by_row.setdefault((ev[0], ev[1]), []).append(ev)
    for row in by_row.values():
        # start ascending; ties broken longest-first so parents precede
        # their zero-offset children on the stack
        row.sort(key=lambda ev: (ev[3], -ev[4]))
        stack: List[Tuple[str, float]] = []  # (label, t1)
        for _, _, label, t0, t1 in row:
            while stack and stack[-1][1] <= t0 + 1e-12:
                stack.pop()
            dur = max(t1 - t0, 0.0)
            slot = acc.setdefault(label, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += dur
            slot[2] += dur
            if stack:
                parent = acc[stack[-1][0]]
                parent[2] -= dur
            stack.append((label, t1))
    return {
        label: (int(c), total, max(self_s, 0.0))
        for label, (c, total, self_s) in acc.items()
    }


def phase_breakdown(
    events: Sequence[SpanEvent],
) -> Dict[str, Tuple[int, float, float]]:
    """``(count, total_s, self_s)`` per phase (labels folded by base name)."""
    phases: Dict[str, List[float]] = {}
    for label, (count, total, self_s) in _self_times(events).items():
        slot = phases.setdefault(base_name(label), [0, 0.0, 0.0])
        slot[0] += count
        slot[1] += total
        slot[2] += self_s
    return {
        name: (int(c), total, self_s)
        for name, (c, total, self_s) in phases.items()
    }


def top_plans(
    events: Sequence[SpanEvent], n: int = 10
) -> List[Tuple[str, int, float]]:
    """``(digest, applies, self_s)`` for the N costliest plans."""
    plans = [
        (label.split(":", 1)[1], count, self_s)
        for label, (count, _total, self_s) in _self_times(events).items()
        if label.startswith("plan_apply:")
    ]
    plans.sort(key=lambda item: -item[2])
    return plans[:n]


# ---------------------------------------------------------------------- #
def render_report(outdir: PathLike, top: int = 10) -> str:
    """The ``repro report <outdir>`` text: per-phase breakdown, top plans,
    final counters.  Works from whichever of trace.json / metrics.jsonl
    exists; raises ``FileNotFoundError`` when neither does."""
    outdir = Path(outdir)
    if not outdir.exists():
        raise FileNotFoundError(f"no such run directory: {outdir}")
    if not outdir.is_dir():
        raise FileNotFoundError(f"not a run directory: {outdir}")
    trace_path = outdir / "trace.json"
    metrics_path = outdir / "metrics.jsonl"
    if not trace_path.exists() and not metrics_path.exists():
        raise FileNotFoundError(
            f"no observability output in {outdir} (expected trace.json "
            "and/or metrics.jsonl — run with observability.mode=summary|trace, "
            "e.g. `repro run <scenario> --trace`)"
        )
    sections: List[str] = []

    events: Optional[List[SpanEvent]] = None
    if trace_path.exists():
        try:
            events = load_trace(trace_path)
        except (json.JSONDecodeError, KeyError, UnicodeDecodeError):
            # a run that is still writing (or was killed mid-write) leaves a
            # truncated trace.json; fall through to metrics, if any
            events = None
    if events is not None:
        phases = phase_breakdown(events)
        t_first = min((ev[3] for ev in events), default=0.0)
        t_last = max((ev[4] for ev in events), default=0.0)
        wall = t_last - t_first
        rows = []
        for name, (count, total, self_s) in sorted(
            phases.items(), key=lambda item: -item[1][2]
        ):
            share = 100.0 * self_s / wall if wall > 0 else 0.0
            rows.append(
                (
                    name,
                    count,
                    format_ms(total * 1e3),
                    format_ms(self_s * 1e3),
                    f"{share:.1f}%",
                )
            )
        sections.append(
            f"phases ({len(events)} spans, {wall * 1e3:.1f} ms traced)\n"
            + render_table(
                rows,
                header=("phase", "count", "total ms", "self ms", "share"),
                indent="  ",
            )
        )
        all_plans = top_plans(events, n=10**9)
        if all_plans:
            rows = [
                (digest, applies, format_ms(self_s * 1e3))
                for digest, applies, self_s in all_plans[:top]
            ]
            sections.append(
                f"top plans by self-time (of {len(all_plans)})\n"
                + render_table(
                    rows, header=("plan", "applies", "self ms"), indent="  "
                )
            )

    if metrics_path.exists():
        records = load_metrics(metrics_path)
        if records:
            final = records[-1]
            metrics = final.get("metrics", {})
            rows = []
            for name in COUNTER_NAMES:
                val = metrics.get(name, 0.0)
                if not val:
                    continue
                shown = (
                    format_bytes(val) if name.endswith("_bytes")
                    else format_ms(val) if name.endswith("_ms")
                    else f"{val:g}"
                )
                rows.append((name, shown))
            if metrics.get("scratch_bytes"):
                rows.append(
                    ("scratch_bytes", format_bytes(metrics["scratch_bytes"]))
                )
            if final.get("steps_per_s") is not None:
                rows.append(("steps_per_s", f"{final['steps_per_s']:.2f}"))
            if final.get("cell_threads") is not None:
                rows.append(("cell_threads", f"{final['cell_threads']}"))
            hist = [
                (name, f"{metrics[name]:g}")
                for name in HIST_NAMES
                if metrics.get(name)
            ]
            sections.append(
                f"metrics (final of {len(records)} records)\n"
                + render_table(rows + hist, indent="  ", align=("<", ">"))
            )

    if not sections:
        raise FileNotFoundError(
            f"observability output in {outdir} has no complete records yet "
            "(run still in progress, or killed before the first flush?) — "
            "retry once the run has written a full record"
        )
    return "\n\n".join(sections)

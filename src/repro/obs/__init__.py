"""``repro.obs``: zero-dependency observability — spans, metrics, telemetry.

The paper's central claim is a performance *profile* — where time goes per
RHS evaluation, per RK stage, per halo exchange — so the runtime carries a
tracing/metrics substrate threaded through every layer:

* a **span tracer** (:mod:`repro.obs.tracer`) instrumenting ``Driver.run``,
  the SSP-RK stages, ``System.rhs``, plan application and compilation, and
  the sharded halo exchange + barrier waits, exported as Chrome
  trace-event JSON (``trace.json``, loadable in Perfetto) with one row per
  sharded worker pid;
* a **metrics registry** (:mod:`repro.obs.metrics`) — fixed-slot counters,
  gauges and histograms with no locks and no allocation on the hot path;
  the process's only counter store, so its cold-path counts (plan
  compiles, cache and kernel outcomes, threads, halo slabs) are kept in
  every mode;
* a **cross-process collector** (:mod:`repro.obs.ring`) — per-worker
  shared-memory blocks the parent reads (metrics, every mode) and drains
  each step (spans, when tracing).

Configuration is process-global (like the plan-compiler config, and for
the same reason: sharded workers fork from the configured parent).  The
runtime driver adopts ``spec.observability`` via :func:`configure_from_spec`;
``$REPRO_OBS`` overrides the spec (the CI trace leg runs the whole suite
with ``REPRO_OBS=trace`` to prove instrumentation never changes results).

**Off is free.**  ``mode="off"`` (the default) reduces every hot-path
instrumented site to one module-level flag check — no context managers, no allocation,
no clock reads; the perf-smoke gate asserts the coupled-RHS cost of the
check is within noise of an uninstrumented call.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from .metrics import (  # noqa: F401 - re-exported
    SLOT,
    SLOT_NAMES,
    MetricsRegistry,
    merge_snapshots,
)
from .tracer import SpanTracer, base_name, chrome_trace  # noqa: F401

__all__ = [
    "OBS",
    "ObsRuntime",
    "OBS_MODES",
    "configure_from_spec",
    "MetricsRegistry",
    "SpanTracer",
    "merge_snapshots",
    "chrome_trace",
    "base_name",
    "SLOT",
    "SLOT_NAMES",
]

OBS_MODES = ("off", "summary", "trace")

_perf_counter = time.perf_counter


class ObsRuntime:
    """Process-global observability state (one instance: :data:`OBS`).

    Hot-path contract: instrumented sites read ``OBS.on`` (or
    ``OBS.trace_on``) once and branch — everything else happens only when a
    mode is active.  ``metrics_on`` is true in ``summary`` and ``trace``
    modes; ``trace_on`` additionally requires the current step to be
    sampled (``begin_step``).
    """

    __slots__ = (
        "mode", "sample", "on", "metrics_on", "trace_on",
        "metrics", "tracer", "origin",
    )

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer()
        self.origin = _perf_counter()
        self._set_mode("off", 1)

    def _set_mode(self, mode: str, sample: int) -> None:
        self.mode = mode
        self.sample = max(int(sample), 1)
        self.metrics_on = mode in ("summary", "trace")
        self.trace_on = mode == "trace"
        self.on = self.metrics_on

    def configure(
        self, mode: str = "off", sample: int = 1, reset: bool = True
    ) -> "ObsRuntime":
        """Set the mode and sampling; ``reset`` clears counters and spans
        (each Driver starts a fresh window: ``summary()["plans"]`` counts
        from here)."""
        if mode not in OBS_MODES:
            raise ValueError(
                f"unknown observability mode {mode!r} "
                f"(known: {', '.join(OBS_MODES)})"
            )
        self._set_mode(mode, sample)
        if reset:
            self.metrics.reset()
            self.tracer.reset()
            self.origin = _perf_counter()
        return self

    # ------------------------------------------------------------------ #
    def begin_step(self, step_index: int) -> None:
        """Per-step sampling decision (drivers and sharded workers call
        this with the same global step index, so sampling stays aligned)."""
        self.trace_on = (
            self.mode == "trace" and step_index % self.sample == 0
        )

    def finish(
        self, name: str, t0: float, count_slot: int = -1, ms_slot: int = -1
    ) -> float:
        """Close an instrumented region started at ``t0``: bump its counter
        and elapsed-ms slots (when metrics are on) and record a span (when
        tracing).  Returns the elapsed seconds."""
        t1 = _perf_counter()
        if self.metrics_on and count_slot >= 0:
            values = self.metrics.values
            values[count_slot] += 1.0
            if ms_slot >= 0:
                values[ms_slot] += (t1 - t0) * 1e3
        if self.trace_on:
            tracer = self.tracer
            tracer.record(tracer.label_id(name), t0, t1)
        return t1 - t0

    # ------------------------------------------------------------------ #
    def adopt_channel(self, channel) -> None:
        """Become a sharded worker: write metrics into the shared block and
        spans into its ring (called once, right after fork)."""
        self.metrics = channel.metrics
        tracer = SpanTracer()
        tracer.sink = channel
        self.tracer = tracer


OBS = ObsRuntime()


def mode_from_env(default: str = "off") -> str:
    """``$REPRO_OBS`` when set (and validated), else ``default``."""
    raw = os.environ.get("REPRO_OBS", "").strip()
    if not raw:
        return default
    if raw not in OBS_MODES:
        raise ValueError(
            f"$REPRO_OBS={raw!r} is not a mode (known: {', '.join(OBS_MODES)})"
        )
    return raw


def configure_from_spec(spec) -> ObsRuntime:
    """Adopt a spec's ``observability`` block (the driver calls this before
    building the app so forked workers inherit the mode); ``$REPRO_OBS``
    overrides the spec's mode."""
    obs_spec = getattr(spec, "observability", None)
    mode = obs_spec.mode if obs_spec is not None else "off"
    sample = obs_spec.sample if obs_spec is not None else 1
    return OBS.configure(mode=mode_from_env(mode), sample=sample)

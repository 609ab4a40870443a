"""Fixed-slot metrics registry: counters, gauges, fixed-bucket histograms.

The registry is one flat ``float64`` array with **one slot per metric**,
indexed by position — no dictionaries, no locks, no allocation on the hot
path.  Instrumented modules resolve their slot indices once at import time
(``S_RHS_MS`` etc.) and increment ``OBS.metrics.values[slot]`` directly
behind a single mode-flag check.

The same layout doubles as the cross-process wire format: a sharded
worker's registry is backed by a slice of a ``multiprocessing.shared_memory``
segment (:mod:`repro.obs.ring`), so the parent reads a worker's counters by
reading the array — no draining, no message, single-writer therefore no
lock.  Merging is positional: counters and histogram buckets sum, gauges
take the max.

The schema is fixed (``SLOT_NAMES``) so every process of a run agrees on
the layout.  The registry is the process's only counter store, in every
observability mode: cold-path events (plan compile / hydrate, plan-cache
and kernel outcomes, the most threads a C call split over) and the halo
slabs are counted whatever the mode; the hot-path timing counters
(``rhs_ms``, ``plan_applies`` ...) are written only behind ``OBS.on``.
``Driver.summary()["plans"]`` and ``ShardedApp.halo_stats`` are views over
a merged snapshot.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = [
    "COUNTER_NAMES",
    "GAUGE_NAMES",
    "STEP_MS_BUCKETS",
    "TTFR_MS_BUCKETS",
    "HIST_NAMES",
    "SLOT_NAMES",
    "SLOT",
    "MetricsRegistry",
    "merge_snapshots",
]

#: monotonic counters (merge: sum)
COUNTER_NAMES = (
    "steps",
    "rk_stages",
    "rhs_calls",
    "rhs_ms",
    "plan_applies",
    "plan_apply_ms",
    "plan_compiled",
    "plan_hydrated",
    "plan_compile_ms",
    "halo_exchanges",
    "halo_bytes",
    "halo_wait_ms",
    "barrier_waits",
    "barrier_wait_ms",
    "diag_records",
    "diag_ms",
    "checkpoints",
    "checkpoint_ms",
    "spans_dropped",
    # plan-cache and compiled-kernel outcomes, one per compile_plan call
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_stores",
    "kernels_built",
    "kernels_loaded",
    "kernels_failed",
    # ghost slabs a shard copied out of its neighbours' blocks
    "halo_f_messages",
    "halo_f_doubles",
    "halo_em_messages",
    "halo_em_doubles",
    # repro.serve job-service telemetry (zero in plain simulation runs)
    "jobs_submitted",
    "jobs_deduped",
    "jobs_completed",
    "jobs_failed",
)

#: gauges (merge: max) — high-water marks / point-in-time levels
GAUGE_NAMES = ("scratch_bytes", "queue_depth", "cell_threads")

#: fixed step-wall-time histogram bucket upper bounds [ms]
STEP_MS_BUCKETS = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
_STEP_HIST_NAMES = tuple(
    f"step_ms_le_{b:g}" for b in STEP_MS_BUCKETS
) + ("step_ms_gt_1000",)

#: time-to-first-result histogram bucket upper bounds [ms] (repro.serve:
#: submit -> finished latency of jobs that actually computed)
TTFR_MS_BUCKETS = (100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0, 100000.0)
_TTFR_HIST_NAMES = tuple(
    f"ttfr_ms_le_{b:g}" for b in TTFR_MS_BUCKETS
) + ("ttfr_ms_gt_100000",)

HIST_NAMES = _STEP_HIST_NAMES + _TTFR_HIST_NAMES

SLOT_NAMES = COUNTER_NAMES + GAUGE_NAMES + HIST_NAMES
SLOT: Dict[str, int] = {name: i for i, name in enumerate(SLOT_NAMES)}

_N_SLOTS = len(SLOT_NAMES)
_GAUGE_SLOTS = frozenset(SLOT[n] for n in GAUGE_NAMES)
_HIST0 = SLOT[_STEP_HIST_NAMES[0]]
_TTFR0 = SLOT[_TTFR_HIST_NAMES[0]]


class MetricsRegistry:
    """One array slot per metric; optionally backed by a donated buffer.

    ``values`` is the entire state: pass a shared-memory view to make the
    registry cross-process readable (single writer, positional layout).
    """

    __slots__ = ("values",)

    def __init__(self, values: Optional[np.ndarray] = None):
        if values is None:
            values = np.zeros(_N_SLOTS)
        if values.shape != (_N_SLOTS,):
            raise ValueError(
                f"metrics buffer must have {_N_SLOTS} slots, got {values.shape}"
            )
        self.values = values

    # hot-path increments go through ``values[slot] +=`` directly; the
    # methods below are the cold-path / readable API
    def add(self, name: str, amount: float = 1.0) -> None:
        self.values[SLOT[name]] += amount

    def gauge_max(self, name: str, value: float) -> None:
        i = SLOT[name]
        if value > self.values[i]:
            self.values[i] = value

    def observe_step_ms(self, ms: float) -> None:
        self.values[_HIST0 + bisect_left(STEP_MS_BUCKETS, ms)] += 1.0

    def observe_ttfr_ms(self, ms: float) -> None:
        self.values[_TTFR0 + bisect_left(TTFR_MS_BUCKETS, ms)] += 1.0

    def gauge_set(self, name: str, value: float) -> None:
        self.values[SLOT[name]] = value

    def reset(self) -> None:
        self.values[:] = 0.0

    def snapshot(self) -> Dict[str, float]:
        return {name: float(self.values[i]) for name, i in SLOT.items()}


def merge_snapshots(snapshots: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Positional merge: counters and histogram buckets sum, gauges max."""
    out = {name: 0.0 for name in SLOT_NAMES}
    for snap in snapshots:
        for name in SLOT_NAMES:
            val = float(snap.get(name, 0.0))
            if SLOT[name] in _GAUGE_SLOTS:
                if val > out[name]:
                    out[name] = val
            else:
                out[name] += val
    return out

"""The simulation driver: compiles a spec into a System and runs it.

This is the runtime's counterpart of Gkeyll's App layer: given a
:class:`~repro.runtime.spec.SimulationSpec` it builds the registered
system declaration (:func:`repro.systems.build_system` — Vlasov–Maxwell,
Vlasov–Poisson, field-free advection, or any system registered through
:func:`repro.systems.register_system`), projects the declarative initial
conditions, then advances the model with scheduled energy diagnostics,
periodic checkpoints, and an optional wall-clock budget.  Everything the
driver touches on the built object is the
:class:`~repro.systems.model.Model` protocol — state/set_state, rhs,
suggested_dt, step, time/step_count, energies, observables.

A run interrupted by the budget (or a kill) resumes bit-for-bit from its
latest checkpoint via :meth:`Driver.from_checkpoint` — the checkpoint embeds
the full spec, so resuming needs nothing but the ``.npz`` file.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

from ..diagnostics.energy import EnergyHistory
from ..engine.compile import plan_counts
from ..fields.poisson import NonNeutralError
from ..io.atomic import publish_text
from ..io.checkpoint import load_checkpoint, save_checkpoint
from ..obs import OBS, chrome_trace, merge_snapshots
from ..obs import configure_from_spec as _obs_configure
from ..obs.metrics import SLOT as _OBS_SLOT
from ..systems.registry import build_system
from .errors import SpecError
from .spec import SimulationSpec, parse_backend

__all__ = ["Driver", "build_app"]

PathLike = Union[str, Path]
_HISTORY_PREFIX = "history/"

_S_STEPS = _OBS_SLOT["steps"]
_S_DIAG = _OBS_SLOT["diag_records"]
_S_DIAG_MS = _OBS_SLOT["diag_ms"]
_S_CKPT = _OBS_SLOT["checkpoints"]
_S_CKPT_MS = _OBS_SLOT["checkpoint_ms"]


def build_app(
    spec: SimulationSpec, state: Optional[Mapping[str, np.ndarray]] = None
):
    """Instantiate the :class:`~repro.systems.system.System` described by
    ``spec`` (ICs projected, t=0) — or, given ``state`` (a checkpoint's
    arrays), starting from that state: it is set before a process backend
    copies the state into shared memory, so the initial condition is never
    projected.

    The spec's ``plan_cache`` is adopted into the process-global compiler
    configuration *before* anything compiles, so every plan of the run —
    including plans sharded workers compile after forking — follows the
    spec.

    A ``process[:N]`` backend returns the serial system wrapped in a
    :class:`repro.dist.ShardedApp`: construction forks N persistent worker
    processes that execute the steps over shared-memory state, while the
    returned object keeps the full Model protocol (diagnostics, checkpoint
    gather/scatter, CFL) bit-identical to a serial run.
    """
    from ..engine.compile import configure_from_spec

    configure_from_spec(spec)
    # observability is process-global for the same fork-inheritance reason;
    # configuring before the shard fork means workers adopt the mode too
    _obs_configure(spec)
    app = build_system(spec)
    if state is not None:
        app.set_state(state)
    return _maybe_shard(app, spec)


def _maybe_shard(app, spec: SimulationSpec):
    shards = parse_backend(spec.backend)
    if shards is None:
        return app
    from ..systems.registry import get_system_kind

    if not get_system_kind(spec.model).shardable:
        raise SpecError(
            "spec.backend",
            f"system {spec.model!r} is registered as not shardable; "
            "use backend 'numpy'",
        )
    from ..dist import ShardedApp

    try:
        return ShardedApp(app, shards)
    except ValueError as exc:
        raise SpecError("spec.backend", str(exc)) from exc


class Driver:
    """Runs one spec to completion with diagnostics, checkpoints, budgets.

    Parameters
    ----------
    spec:
        The simulation description.
    outdir:
        Output directory; when set, checkpoints default to
        ``outdir/checkpoint.npz`` and :meth:`run` drops a final checkpoint
        there even if periodic checkpointing is off.
    wall_clock_budget:
        Optional wall-clock limit in seconds; the run stops cleanly (with a
        checkpoint, when a path is configured) once exceeded.
    """

    def __init__(
        self,
        spec: SimulationSpec,
        outdir: Optional[PathLike] = None,
        wall_clock_budget: Optional[float] = None,
    ):
        self._open(spec, outdir, wall_clock_budget, None)

    def _open(self, spec, outdir, wall_clock_budget, state) -> None:
        """What :meth:`__init__` does; ``state`` is the app's starting state
        when it resumes one (see :func:`build_app`)."""
        self.spec = spec.validate()
        self.outdir = Path(outdir) if outdir is not None else None
        self.wall_clock_budget = wall_clock_budget
        # build_app resets the process's metrics registry: summary() reports
        # this driver's window from here
        self.app = build_app(self.spec, state)
        self.history = EnergyHistory(record_jdote=spec.diagnostics.record_jdote)
        self.wall_time = 0.0
        self._stream = None
        self._metrics_stream = None
        self._steps_per_s: Optional[float] = None
        self._run_start: Optional[float] = None
        self._run_steps0 = 0
        # a fresh driver truncates any stale stream file; checkpoint resumes
        # (and later run() calls on this driver) append
        self._stream_mode = "w"
        if self.outdir is not None:
            self.outdir.mkdir(parents=True, exist_ok=True)
        if spec.diagnostics.checkpoint_interval and self.checkpoint_path is None:
            raise SpecError(
                "spec.diagnostics.checkpoint_path",
                "checkpoint_interval is set but there is nowhere to write: "
                "set checkpoint_path, or give the Driver an outdir",
            )

    # ------------------------------------------------------------------ #
    @property
    def checkpoint_path(self) -> Optional[Path]:
        if self.spec.diagnostics.checkpoint_path is not None:
            return Path(self.spec.diagnostics.checkpoint_path)
        if self.outdir is not None:
            return self.outdir / "checkpoint.npz"
        return None

    @property
    def stream_path(self) -> Optional[Path]:
        """Where incremental JSONL diagnostics go (None disables streaming)."""
        if self.spec.diagnostics.stream_path is not None:
            return Path(self.spec.diagnostics.stream_path)
        if self.outdir is not None:
            return self.outdir / "diagnostics.jsonl"
        return None

    @property
    def metrics_path(self) -> Optional[Path]:
        """Where ``metrics.jsonl`` goes when observability is on."""
        if self.spec.observability.metrics_path is not None:
            return Path(self.spec.observability.metrics_path)
        if self.outdir is not None:
            return self.outdir / "metrics.jsonl"
        return None

    @property
    def trace_path(self) -> Optional[Path]:
        """Where ``trace.json`` goes when observability mode is trace."""
        if self.spec.observability.trace_path is not None:
            return Path(self.spec.observability.trace_path)
        if self.outdir is not None:
            return self.outdir / "trace.json"
        return None

    def checkpoint(self, path: Optional[PathLike] = None) -> Path:
        """Write a self-describing checkpoint (state + history + spec)."""
        if OBS.on:
            t0 = time.perf_counter()
            out = self._checkpoint(path)
            OBS.finish("checkpoint", t0, _S_CKPT, _S_CKPT_MS)
            return out
        return self._checkpoint(path)

    def _checkpoint(self, path: Optional[PathLike] = None) -> Path:
        path = Path(path) if path is not None else self.checkpoint_path
        if path is None:
            raise SpecError(
                "spec.diagnostics.checkpoint_path",
                "no checkpoint path: set it, or give the Driver an outdir",
            )
        state = dict(self.app.state())
        if self.history.times:
            state[_HISTORY_PREFIX + "times"] = np.asarray(self.history.times)
            state[_HISTORY_PREFIX + "field_energy"] = np.asarray(
                self.history.field_energy
            )
            for name, vals in self.history.particle_energy.items():
                state[_HISTORY_PREFIX + f"particle_energy/{name}"] = np.asarray(vals)
            if self.history.record_jdote:
                state[_HISTORY_PREFIX + "jdote"] = np.asarray(self.history.jdote)
        meta = {
            "spec": self.spec.to_dict(),
            "time": self.app.time,
            "step_count": self.app.step_count,
            "wall_time": self.wall_time,
        }
        save_checkpoint(path, state, meta)
        return path

    @classmethod
    def from_checkpoint(
        cls,
        path: PathLike,
        outdir: Optional[PathLike] = None,
        wall_clock_budget: Optional[float] = None,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> "Driver":
        """Rebuild a driver from a checkpoint and continue where it left off.

        ``overrides`` are dotted-path spec overrides applied before the app
        is rebuilt — raising ``steps`` or ``t_end`` lets a finished segment
        continue further.  Overrides that change the discretization will
        (rightly) fail when the stored state no longer fits the new app.
        """
        state, meta = load_checkpoint(path)
        spec = SimulationSpec.from_dict(meta["spec"])
        if overrides:
            spec = spec.with_overrides(overrides)
        app_state = {
            k: np.array(v)
            for k, v in state.items()
            if not k.startswith(_HISTORY_PREFIX)
        }
        drv = cls.__new__(cls)
        drv._open(spec, outdir, wall_clock_budget, app_state)
        drv._stream_mode = "a"  # continue the interrupted run's stream
        drv.app.time = float(meta["time"])
        drv.app.step_count = int(meta["step_count"])
        drv.wall_time = float(meta.get("wall_time", 0.0))
        times = state.get(_HISTORY_PREFIX + "times")
        if times is not None:
            drv.history.times = list(times)
            drv.history.field_energy = list(state[_HISTORY_PREFIX + "field_energy"])
            for key, vals in state.items():
                pe_prefix = _HISTORY_PREFIX + "particle_energy/"
                if key.startswith(pe_prefix):
                    drv.history.particle_energy[key[len(pe_prefix):]] = list(vals)
            if drv.history.record_jdote:
                drv.history.jdote = list(state.get(_HISTORY_PREFIX + "jdote", []))
        return drv

    # ------------------------------------------------------------------ #
    def _record(self) -> bool:
        """Record (and stream) the energies; False when one is not finite."""
        if not self.spec.diagnostics.energy_interval:
            return True
        if OBS.on:
            # what ``driver_overhead`` is made of, besides suggested_dt: the
            # state-sized energy moments, and the record's write + flush
            t0 = time.perf_counter()
            self.history(self.app)
            t1 = time.perf_counter()
            OBS.finish("driver.energy", t0)
            self._stream_record()
            OBS.finish("driver.stream_flush", t1)
            OBS.finish("diagnostics", t0, _S_DIAG, _S_DIAG_MS)
            self._metrics_record()
        else:
            self.history(self.app)
            self._stream_record()
        h = self.history
        return math.isfinite(h.field_energy[-1]) and all(
            math.isfinite(vals[-1]) for vals in h.particle_energy.values()
        )

    def _stream_record(self) -> None:
        """Append the newest history entry to the JSONL stream (if open)."""
        if self._stream is None:
            return
        h = self.history
        rec: Dict[str, object] = {
            "time": h.times[-1],
            "step": self.app.step_count,
            "field_energy": h.field_energy[-1],
            "particle_energy": {
                name: vals[-1] for name, vals in h.particle_energy.items()
            },
        }
        if h.record_jdote and h.jdote:
            rec["jdote"] = h.jdote[-1]
        self._stream.write(json.dumps(rec) + "\n")
        self._stream.flush()

    # ------------------------------------------------------------------ #
    # observability (see repro.obs; everything below is cold-path)
    # ------------------------------------------------------------------ #
    def _obs_merged(self) -> Dict[str, float]:
        """This run's metrics merged across the driver and (when sharded)
        every worker's shared-memory registry."""
        snaps = [OBS.metrics.snapshot()]
        worker_metrics = getattr(self.app, "obs_metrics", None)
        if callable(worker_metrics):
            snaps.extend(worker_metrics())
        merged = merge_snapshots(snaps)
        merged["spans_dropped"] += OBS.tracer.dropped
        return merged

    def _metrics_record(self) -> None:
        """Append a cumulative merged-counter snapshot to metrics.jsonl."""
        if self._metrics_stream is None:
            return
        metrics = self._obs_merged()
        rec: Dict[str, object] = {
            "time": self.app.time,
            "step": self.app.step_count,
            "metrics": metrics,
            "cell_threads": plan_counts(metrics)["cell_threads"],
        }
        if self._run_start is not None:
            elapsed = time.perf_counter() - self._run_start
            if elapsed > 0:
                rec["steps_per_s"] = (
                    self.app.step_count - self._run_steps0
                ) / elapsed
        self._metrics_stream.write(json.dumps(rec) + "\n")
        self._metrics_stream.flush()

    def _write_trace(self) -> None:
        """Merge driver + worker spans into a Chrome trace file."""
        path = self.trace_path
        if path is None:
            return
        pid = os.getpid()
        events = OBS.tracer.resolved(pid, 0)
        names = {pid: "driver"}
        worker_spans = getattr(self.app, "obs_spans", None)
        if callable(worker_spans):
            events.extend(worker_spans())
            names.update(self.app.obs_process_names())
        events.sort(key=lambda ev: ev[3])
        doc = chrome_trace(events, OBS.origin, names)
        path.parent.mkdir(parents=True, exist_ok=True)
        publish_text(path, json.dumps(doc))

    def _close_streams(self) -> None:
        """Flush + fsync + close both JSONL streams: runs in ``finally``,
        so a KeyboardInterrupt cannot leave a truncated tail line only in
        the OS page cache."""
        for name in ("_stream", "_metrics_stream"):
            fh = getattr(self, name)
            if fh is None:
                continue
            setattr(self, name, None)
            try:
                fh.flush()
                os.fsync(fh.fileno())
            finally:
                fh.close()

    def run(self, t_end: Optional[float] = None) -> Dict[str, object]:
        """Advance to ``t_end`` (default: the spec's) or the step cap.

        Returns a JSON-serializable summary.  ``status`` is ``"complete"``,
        ``"max_steps"`` (step cap hit first), ``"budget_exhausted"``
        (wall-clock budget hit; a checkpoint is written when configured) or
        ``"diverged"``: an energy record or the CFL frequency is not finite,
        or the charge of a Poisson run stopped being neutral after a step
        (:class:`~repro.fields.poisson.NonNeutralError`).
        A diverged run writes no further checkpoint, so the last one on
        disk is the last periodic checkpoint of a finite state.

        While running, diagnostics records stream incrementally to
        :attr:`stream_path` as JSON lines (flushed per record), so long
        campaigns are observable — and their histories salvageable — before
        (or without) a clean finish.  Streaming is at-least-once: after a
        crash, records between the last checkpoint and the kill point are
        re-emitted by the resumed run — consumers should dedupe on ``step``
        (keeping the last occurrence).
        """
        app = self.app
        diag = self.spec.diagnostics
        t_end = self.spec.t_end if t_end is None else float(t_end)
        max_steps = self.spec.steps if self.spec.steps is not None else 10**9
        start = time.perf_counter()
        # precompute the absolute deadline once; the loop checks it every
        # step, so budgeted runs stop within one step of the limit
        deadline = (
            None if self.wall_clock_budget is None
            else start + self.wall_clock_budget
        )
        status = "complete"
        spath = self.stream_path
        if spath is not None:
            spath.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(spath, self._stream_mode)
            self._stream_mode = "a"
        obs = OBS
        if obs.on:
            self._run_start = start
            self._run_steps0 = app.step_count
            mpath = self.metrics_path
            if mpath is not None:
                mpath.parent.mkdir(parents=True, exist_ok=True)
                self._metrics_stream = open(mpath, "w")
        steps0 = app.step_count
        try:
            if not self.history.times and app.step_count == 0:
                self._record()
            while app.time < t_end - 1e-12 and app.step_count < max_steps:
                if deadline is not None and time.perf_counter() > deadline:
                    status = "budget_exhausted"
                    break
                if obs.on:
                    obs.begin_step(app.step_count)
                    ts = time.perf_counter()
                    dt = app.suggested_dt()
                    obs.finish("driver.suggested_dt", ts)
                else:
                    dt = app.suggested_dt()
                if not dt > 0.0:  # NaN: a non-finite CFL frequency
                    status = "diverged"
                    break
                dt = min(dt, t_end - app.time)
                if obs.on:
                    ts = time.perf_counter()
                    app.step(dt)
                    elapsed = obs.finish("step", ts, _S_STEPS)
                    obs.metrics.observe_step_ms(elapsed * 1e3)
                else:
                    app.step(dt)
                if (
                    diag.energy_interval
                    and app.step_count % diag.energy_interval == 0
                    and not self._record()
                ):
                    status = "diverged"
                    break
                if diag.checkpoint_interval and app.step_count % diag.checkpoint_interval == 0:
                    self.checkpoint()
            else:
                if app.time < t_end - 1e-12:
                    status = "max_steps"
        except NonNeutralError:
            # a Poisson run that blows up loses neutrality before its state
            # stops being finite; before any step it is the set-up's error
            if app.step_count == steps0:
                raise
            status = "diverged"
        finally:
            if obs.on:
                elapsed = time.perf_counter() - start
                if elapsed > 0:
                    self._steps_per_s = (
                        app.step_count - self._run_steps0
                    ) / elapsed
                self._metrics_record()
                self._run_start = None
            self._close_streams()
            if obs.mode == "trace":
                self._write_trace()
        self.wall_time += time.perf_counter() - start
        if self.checkpoint_path is not None and status != "diverged":
            self.checkpoint()
        return self.summary(status)

    def close(self) -> None:
        """Release app execution resources (worker processes and shared
        memory under the ``process`` backend; a no-op otherwise).  The app
        keeps private state copies, so diagnostics and checkpointing stay
        usable after closing."""
        close = getattr(self.app, "close", None)
        if callable(close):
            close()

    def summary(self, status: str = "complete") -> Dict[str, object]:
        app = self.app
        try:
            energies = app.energies()
        except NonNeutralError:
            if status != "diverged":
                raise
            # a state that lost neutrality has no periodic field
            energies = {"field": math.nan, "total": math.nan}
        observables = app.observables()
        number_prefix = "particle_number/"
        out: Dict[str, object] = {
            "scenario": self.spec.name,
            "status": status,
            "time": app.time,
            "steps": app.step_count,
            "wall_time": self.wall_time,
            "wall_per_step": self.wall_time / max(app.step_count, 1),
            "field_energy": energies["field"],
            "total_energy": energies["total"],
            "particle_number": {
                key[len(number_prefix):]: val
                for key, val in observables.items()
                if key.startswith(number_prefix)
            },
        }
        if self.history.times:
            out["energy_drift"] = self.history.relative_drift()
        # sharded: merged with every worker's, which compiles its own plans
        metrics = self._obs_merged()
        out["plans"] = plan_counts(metrics)
        if OBS.on:
            out["obs"] = {
                "mode": OBS.mode,
                "sample": OBS.sample,
                "metrics": metrics,
                "steps_per_s": self._steps_per_s,
            }
        return out

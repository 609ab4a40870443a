"""Process-sharded model execution: real workers, shared-memory halos.

:class:`ShardedApp` wraps a serial :class:`~repro.systems.system.System`
(any field closure — Maxwell, Poisson, or field-free — dispatched on
``system.field_kind``, never on concrete classes) and executes its time
steps across persistent **worker processes**, one per configuration-cell
block of a :class:`~repro.dist.plan.ShardPlan`:

* the global state arrays (every distribution function, the EM field) live
  in :mod:`multiprocessing.shared_memory`, so halo exchange is an in-place
  copy out of the neighbour's slab — counted per shard in doubles/messages,
  which lets the Fig. 3 traffic model be checked against *measured* bytes;
* each worker compiles its own engine plans for its block
  (:mod:`repro.dist.blocks`) and advances its slab through the SSP-RK
  stages with two barriers per stage (writes-visible, reads-done), so a
  fast shard never overwrites state a slow neighbour is still reading;
* every per-cell operation matches the serial solver bit for bit, so a
  sharded run produces identical diagnostics and checkpoints to a serial
  one — including checkpoint/resume, which serializes the gathered global
  state through the unchanged Driver path.

The parent keeps the serial system for everything that is not stepping:
initial-condition projection, diagnostics, energies, CFL, checkpoint
gather/scatter — all through the :class:`~repro.systems.model.Model`
protocol.  Workers are forked (Linux), so they inherit the parent's
generated-kernel cache and system configuration without pickling; the
parent never evaluates an RHS itself.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
import traceback
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from ..obs.ring import ObsChannel
from ..obs.tracer import SpanEvent
from ..systems.model import run_loop
from .blocks import BlockMaxwellRHS, fill_padded, build_block_species
from .plan import HaloStats, ShardPlan

__all__ = ["ShardedApp"]

_perf_counter = time.perf_counter
_S_RK_STAGES = _OBS_SLOT["rk_stages"]
_S_RHS = _OBS_SLOT["rhs_calls"]
_S_RHS_MS = _OBS_SLOT["rhs_ms"]
_S_HALO = _OBS_SLOT["halo_exchanges"]
_S_HALO_MS = _OBS_SLOT["halo_wait_ms"]
_S_HALO_BYTES = _OBS_SLOT["halo_bytes"]
_S_BARRIER = _OBS_SLOT["barrier_waits"]
_S_BARRIER_MS = _OBS_SLOT["barrier_wait_ms"]

_READY_TIMEOUT = 600.0   # worker start + block-plan generation
_STEP_TIMEOUT = 3600.0   # one full step on one shard
_BARRIER_TIMEOUT = 600.0


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
class _ShardWorker:
    """Per-process execution state for one shard (lives in the child)."""

    def __init__(
        self, app, plan: ShardPlan, shard: int, shared, rho_shared, barrier,
        obs_buf=None,
    ):
        self.app = app
        self.plan = plan
        self.shard = shard
        self.shared = shared
        self.rho_shared = rho_shared
        self.barrier = barrier
        # observability: rebind the process-global runtime onto this
        # worker's shared-memory channel *before* block plans compile, so
        # even compile counters land where the parent can read them
        self.obs_channel = None
        if obs_buf is not None:
            self.obs_channel = ObsChannel(obs_buf)
            _OBS.adopt_channel(self.obs_channel)
        # plan-compilation counters forked from the parent are the parent's
        # history; this worker's own contribution is the delta from here
        from ..engine.compile import STATS as _PLAN_STATS

        self._plan_stats = _PLAN_STATS
        self._plan_stats0 = _PLAN_STATS.snapshot()
        field_kind = getattr(app, "field_kind", "maxwell")
        self.is_poisson = field_kind == "poisson"
        self.has_em = field_kind == "maxwell"
        self.evolve = self.has_em and app.field_spec.evolve
        self.ranges = plan.ranges(shard)
        self.pad = plan.pad
        self.block_cells = plan.block_cells(shard)
        self.conf_cells = plan.conf_cells
        self.stats_f = HaloStats()
        self.stats_em = HaloStats()

        self.species = build_block_species(app, plan, shard)
        npc = app.cfg_basis.num_basis
        # cell-major layout: configuration axes lead every state array, so
        # one leading-slice tuple addresses f, em, and rho alike — and each
        # slab is a contiguous span of the shared segment
        conf_sl = tuple(slice(lo, hi) for lo, hi in self.ranges)
        self._em_slab = conf_sl
        self._rho_slab = conf_sl

        # private padded inputs, per-stage contiguous field block, RHS (k),
        # and step-start snapshot (u0) buffers
        self.f_pad: Dict[str, np.ndarray] = {}
        self.k: Dict[str, np.ndarray] = {}
        self.u0: Dict[str, np.ndarray] = {}
        self.f_slab: Dict[str, np.ndarray] = {}
        self._pad_int: Dict[str, Tuple[slice, ...]] = {}
        for sp, spb in zip(app.species, self.species):
            key = f"f/{sp.name}"
            self.f_pad[key] = np.zeros(spb.pad_shape)
            self.k[key] = np.empty(spb.solver.layout.shape)
            self.u0[key] = np.empty_like(self.k[key])
            self.f_slab[key] = shared[key][conf_sl]
            self._pad_int[key] = spb._interior
        self.em_block = np.zeros(self.block_cells + (8, npc))
        self.em_pad: Optional[np.ndarray] = None
        self.maxwell_block: Optional[BlockMaxwellRHS] = None
        self._cur_buf: Optional[np.ndarray] = None
        self._sp_cur_buf: Optional[np.ndarray] = None
        if self.evolve:
            self.em_pad = np.zeros(plan.padded_cells(shard) + (8, npc))
            self.maxwell_block = BlockMaxwellRHS(app.maxwell, plan, shard)
            self.k["em"] = np.empty(self.block_cells + (8, npc))
            self.u0["em"] = np.empty_like(self.k["em"])
            self.f_slab["em"] = shared["em"][self._em_slab]
        if self.is_poisson:
            self._rho_buf = np.zeros(self.block_cells + (npc,))
            self._rho_full = np.empty(self.conf_cells + (npc,))
        # external drive: static spatial coefficients restricted to the
        # block — a leading-axis view; the elementwise drive evaluation
        # consumes it without the old ascontiguousarray staging copy
        self.ext_coeffs: Optional[np.ndarray] = None
        self._em_eff: Optional[np.ndarray] = None
        if getattr(app, "external", None) is not None:
            self.ext_coeffs = app._ext_coeffs[self._em_slab]
            self._em_eff = np.empty_like(self.em_block)
        self.stepper_name = type(app.stepper).__name__

    # ------------------------------------------------------------------ #
    def stats_payload(self) -> dict:
        payload = {
            "f": self.stats_f.as_dict(),
            "em": self.stats_em.as_dict(),
            "plans": self._plan_stats.delta(
                self._plan_stats.snapshot(), self._plan_stats0
            ),
        }
        if self.obs_channel is not None:
            # the span ring carries label *ids*; the interned table is tiny
            # and changes rarely, so it just rides the step responses
            payload["obs_labels"] = list(_OBS.tracer.labels)
        return payload

    def _read_state(self) -> None:
        """Halo phase: refresh padded inputs from the shared global state —
        contiguous configuration-cell slab copies under the cell-major
        layout."""
        for key, pad_buf in self.f_pad.items():
            fill_padded(
                self.shared[key], pad_buf, self.ranges, self.pad,
                self.conf_cells, self.stats_f,
            )
        if self.evolve:
            fill_padded(
                self.shared["em"], self.em_pad, self.ranges, self.pad,
                self.conf_cells, self.stats_em,
            )
            np.copyto(self.em_block, self.em_pad[self.maxwell_block._interior])
        elif self.has_em:
            # static field: no ghosts needed, but re-read the slab each
            # stage so a parent set_state (checkpoint resume) is seen
            np.copyto(self.em_block, self.shared["em"][self._em_slab])

    def _effective_em(self, t: float) -> np.ndarray:
        if self.ext_coeffs is None:
            return self.em_block
        np.multiply(self.ext_coeffs, self.app.external.envelope(t), out=self._em_eff)
        self._em_eff += self.em_block
        return self._em_eff

    def _rhs(self, t: float) -> None:
        app = self.app
        if self.is_poisson:
            self._poisson_field(t)
            em_eff = self.em_block if self.ext_coeffs is None else self._em_eff
        else:
            em_eff = self._effective_em(t)
        for sp, spb in zip(app.species, self.species):
            key = f"f/{sp.name}"
            out = self.k[key]
            spb.rhs(self.f_pad[key], em_eff, out)
            if spb.collisions is not None:
                spb.collisions.rhs(spb._f_int, spb.moments, out=out, accumulate=True)
        if self.evolve:
            if self._cur_buf is None:
                npc = app.cfg_basis.num_basis
                self._cur_buf = np.zeros(self.block_cells + (3, npc))
                self._sp_cur_buf = np.empty_like(self._cur_buf)
            cur = self._cur_buf
            cur.fill(0.0)
            for sp, spb in zip(app.species, self.species):
                cur += spb.moments.current_density(
                    spb._f_int, sp.charge, out=self._sp_cur_buf
                )
            rho = None
            if app.field_spec.chi_e:
                npc = app.cfg_basis.num_basis
                rho = np.zeros(self.block_cells + (npc,))
                for sp, spb in zip(app.species, self.species):
                    rho += spb.moments.charge_density(spb._f_int, sp.charge)
            self.maxwell_block.rhs(
                self.em_pad, current=cur, charge_density=rho, out=self.k["em"]
            )

    def _poisson_field(self, t: float) -> None:
        """Shared charge assembly + redundant global solve (1-D, cheap)."""
        app = self.app
        rho = self._rho_buf
        rho.fill(0.0)
        for sp, spb in zip(app.species, self.species):
            f_int = spb.interior(self.f_pad[f"f/{sp.name}"])
            rho += sp.charge * spb.moments.compute("M0", f_int)
        self.rho_shared[self._rho_slab] = rho
        self.barrier.wait()
        np.copyto(self._rho_full, self.rho_shared)
        if app.neutralize:
            self._rho_full[..., 0] -= self._rho_full[..., 0].mean()
        ex = app.poisson.solve(self._rho_full)
        if self.ext_coeffs is not None:
            np.multiply(
                self.ext_coeffs, app.external.envelope(t), out=self._em_eff
            )
            self._em_eff[..., 0, :] += ex[self._rho_slab]
        else:
            self.em_block[..., 0, :] = ex[self._rho_slab]

    # ------------------------------------------------------------------ #
    def _snapshot_u0(self) -> None:
        for key, u0 in self.u0.items():
            if key == "em":
                np.copyto(u0, self.em_pad[self.maxwell_block._interior])
            else:
                np.copyto(u0, self.f_pad[key][self._pad_int[key]])

    def _stage(self, t: float, snapshot: bool = False) -> None:
        obs = _OBS
        if not obs.on:
            self.barrier.wait()
            self._read_state()
            self.barrier.wait()
            if snapshot:
                self._snapshot_u0()
            self._rhs(t)
            return
        # instrumented stage: the same operations, with the two barrier
        # waits, the halo refresh, and the RHS evaluation each spanned
        t_stage = _perf_counter()
        t0 = t_stage
        self.barrier.wait()
        obs.finish("barrier_wait", t0, _S_BARRIER, _S_BARRIER_MS)
        doubles0 = self.stats_f.doubles + self.stats_em.doubles
        t0 = _perf_counter()
        self._read_state()
        obs.finish("halo_exchange", t0, _S_HALO, _S_HALO_MS)
        obs.metrics.values[_S_HALO_BYTES] += 8 * (
            self.stats_f.doubles + self.stats_em.doubles - doubles0
        )
        t0 = _perf_counter()
        self.barrier.wait()
        obs.finish("barrier_wait", t0, _S_BARRIER, _S_BARRIER_MS)
        if snapshot:
            self._snapshot_u0()
        t0 = _perf_counter()
        self._rhs(t)
        obs.finish("rhs", t0, _S_RHS, _S_RHS_MS)
        obs.finish("rk_stage", t_stage, _S_RK_STAGES)

    def _axpy(self, dt: float) -> None:
        # mirrors timestepping.ssprk._axpy_inplace on this shard's slab
        for key, arr in self.f_slab.items():
            kk = self.k[key]
            kk *= dt
            arr += kk

    def _combine(self, a: float, b: float) -> None:
        # mirrors the stage combinations: slab = a*slab + b*u0
        for key, arr in self.f_slab.items():
            arr *= a
            kk = self.k[key]
            np.multiply(self.u0[key], b, out=kk)
            arr += kk

    def step(self, dt: float, t: float, step_index: int = 0) -> None:
        # the parent's global step index keeps trace sampling aligned
        # across every worker (and across checkpoint resumes)
        if _OBS.mode == "trace":
            _OBS.begin_step(step_index)
        name = self.stepper_name
        if name == "ForwardEuler":
            self._stage(t)
            self._axpy(dt)
        elif name == "SSPRK2":
            self._stage(t, snapshot=True)
            self._axpy(dt)
            self._stage(t)
            self._axpy(dt)
            self._combine(0.5, 0.5)
        elif name == "SSPRK3":
            self._stage(t, snapshot=True)
            self._axpy(dt)
            self._stage(t)
            self._axpy(dt)
            self._combine(0.25, 0.75)
            self._stage(t)
            self._axpy(dt)
            self._combine(2.0 / 3.0, 1.0 / 3.0)
        else:  # pragma: no cover - steppers are validated by the spec
            raise ValueError(f"unsupported stepper {name!r}")

    def rhs_pass(self, t: float) -> None:
        """One halo exchange + RHS evaluation without advancing state
        (the benchmark's RHS-only timing probe)."""
        self._stage(t)


def _watch_parent(ppid: int) -> None:
    """Daemon thread: hard-exit if the parent dies (covers a SIGKILLed
    parent while this worker blocks on a barrier or a long stage — the
    pipe EOF path only fires from ``conn.recv``).  Worker exit lets the
    multiprocessing resource tracker unlink the shared segments."""
    while True:
        time.sleep(2.0)
        if os.getppid() != ppid:
            os._exit(2)


def _worker_main(
    app, plan, shard, shared, rho_shared, barrier, conn, obs_buf=None
) -> None:
    threading.Thread(
        target=_watch_parent, args=(os.getppid(),), daemon=True,
        name="repro-parent-watchdog",
    ).start()
    try:
        worker = _ShardWorker(
            app, plan, shard, shared, rho_shared, barrier, obs_buf=obs_buf
        )
        conn.send(("ready", worker.stats_payload()))
    except Exception:  # noqa: BLE001 - reported to the parent
        conn.send(("error", traceback.format_exc()))
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        cmd = msg[0]
        if cmd == "stop":
            break
        try:
            if cmd == "step":
                worker.step(msg[1], msg[2], msg[3])
            elif cmd == "rhs":
                worker.rhs_pass(msg[1])
            else:
                raise ValueError(f"unknown worker command {cmd!r}")
            conn.send(("ok", worker.stats_payload()))
        except Exception:  # noqa: BLE001 - reported to the parent
            conn.send(("error", traceback.format_exc()))
            break


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def _release(segments: List[shared_memory.SharedMemory]) -> None:
    for seg in segments:
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        try:
            seg.close()
        except BufferError:
            # live views keep the mapping alive; the kernel frees it with
            # the last unmap (at the latest, process exit)
            pass


def _shutdown(procs, conns, segments) -> None:
    for conn in conns:
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for p in procs:
        p.join(timeout=10.0)
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    _release(segments)


class ShardedApp:
    """Executes a serial system's steps across real worker processes.

    Everything except :meth:`step` delegates to the wrapped serial system —
    which now operates on shared-memory state arrays, so diagnostics,
    energies, CFL estimates, and checkpoint gather/scatter see exactly what
    the workers compute.  The wrapper satisfies the full
    :class:`~repro.systems.model.Model` protocol (it forwards it), so the
    Driver cannot tell a sharded model from a serial one.  Construction
    forks the workers; :meth:`close` (also registered as a finalizer) stops
    them and releases the shared segments.

    Parameters
    ----------
    app:
        A freshly built serial :class:`~repro.systems.system.System`
        (modal scheme, central velocity flux; any field closure —
        dispatched on ``app.field_kind``).
    shards:
        Worker-process count; the configuration grid is factorized into
        this many blocks (must keep >= 2 cells along an axis per block).
    """

    def __init__(self, app, shards: int):
        if getattr(app, "scheme", "modal") != "modal":
            raise ValueError(
                "process sharding supports the modal scheme only "
                f"(got scheme={app.scheme!r})"
            )
        field_kind = getattr(app, "field_kind", "maxwell")
        if field_kind not in ("maxwell", "poisson", "none"):
            # an unknown closure would be silently executed as field-free
            # by the worker dispatch — refuse instead
            raise ValueError(
                "process sharding supports the maxwell/poisson/none field "
                f"closures only (got field_kind={field_kind!r}); register "
                "the system with shardable=False"
            )
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "process sharding requires the fork start method "
                "(POSIX); use backend 'numpy' here"
            )
        self._inner = app
        self.plan = ShardPlan.create(app.conf_grid.cells, int(shards))
        self.nshards = self.plan.nshards
        self._closed = False
        self._segments: List[shared_memory.SharedMemory] = []
        self._shared: Dict[str, np.ndarray] = {}

        # move the state into shared memory and rebind the app to it
        for key, arr in app.state().items():
            self._shared[key] = self._alloc(arr)
        for sp in app.species:
            app.f[sp.name] = self._shared[f"f/{sp.name}"]
        if "em" in self._shared:
            app.em = self._shared["em"]
        rho_shared = None
        if app.field_kind == "poisson":
            rho_shared = self._alloc(
                np.zeros(app.conf_grid.cells + (app.cfg_basis.num_basis,))
            )
        elif (
            app.field_kind == "maxwell" and "em" not in self._shared
        ):  # pragma: no cover - maxwell always has em
            raise RuntimeError("maxwell state without an EM field")

        # observability channels ride the same shared-memory plumbing as
        # the state (allocated before the fork, released with the segments)
        obs_bufs: List[Optional[np.ndarray]] = [None] * self.nshards
        self._obs_channels: List[ObsChannel] = []
        self._obs_events: List[List[Tuple[int, float, float]]] = []
        self._obs_lost: List[int] = []
        self._obs_final_metrics: Optional[List[dict]] = None
        self._obs_final_spans: Optional[List[SpanEvent]] = None
        if _OBS.on:
            obs_bufs = [
                self._alloc(np.zeros(ObsChannel.length()))
                for _ in range(self.nshards)
            ]
            self._obs_channels = [ObsChannel(buf) for buf in obs_bufs]
            self._obs_events = [[] for _ in range(self.nshards)]
            self._obs_lost = [0] * self.nshards

        ctx = mp.get_context("fork")
        self._barrier = ctx.Barrier(self.nshards, timeout=_BARRIER_TIMEOUT)
        self._procs: List[mp.Process] = []
        self._conns = []
        for shard in range(self.nshards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    app, self.plan, shard, self._shared, rho_shared,
                    self._barrier, child_conn, obs_bufs[shard],
                ),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self._finalizer = weakref.finalize(
            self, _shutdown, self._procs, self._conns, self._segments
        )
        self.shard_stats: List[dict] = [
            {"f": HaloStats().as_dict(), "em": HaloStats().as_dict(), "plans": {}}
            for _ in range(self.nshards)
        ]
        for shard, conn in enumerate(self._conns):
            kind, payload = self._recv(shard, conn, _READY_TIMEOUT)
            if kind != "ready":
                self.close()
                raise RuntimeError(f"shard {shard} failed to start:\n{payload}")
            if payload:
                self.shard_stats[shard] = payload

    # ------------------------------------------------------------------ #
    def _alloc(self, arr: np.ndarray) -> np.ndarray:
        seg = shared_memory.SharedMemory(create=True, size=int(arr.nbytes))
        self._segments.append(seg)
        out = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        out[...] = arr
        return out

    def _recv(self, shard: int, conn, timeout: float):
        if not conn.poll(timeout):
            self.close()
            raise RuntimeError(
                f"shard {shard} did not reply within {timeout:.0f}s"
            )
        try:
            return conn.recv()
        except (EOFError, OSError) as exc:
            self.close()
            raise RuntimeError(f"shard {shard} died: {exc}") from exc

    def _command(self, msg) -> None:
        for conn in self._conns:
            conn.send(msg)
        for shard, conn in enumerate(self._conns):
            kind, payload = self._recv(shard, conn, _STEP_TIMEOUT)
            if kind == "error":
                self.close()
                raise RuntimeError(f"shard {shard} failed:\n{payload}")
            self.shard_stats[shard] = payload
        # workers are idle between commands, so draining the span rings
        # here never races their (single-writer) pushes
        for shard, channel in enumerate(self._obs_channels):
            records, lost = channel.drain()
            self._obs_events[shard].extend(records)
            self._obs_lost[shard] += lost

    # ------------------------------------------------------------------ #
    # the App interface
    # ------------------------------------------------------------------ #
    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def time(self) -> float:
        return self._inner.time

    @time.setter
    def time(self, value: float) -> None:
        self._inner.time = value

    @property
    def step_count(self) -> int:
        return self._inner.step_count

    @step_count.setter
    def step_count(self, value: int) -> None:
        self._inner.step_count = value

    def state(self) -> Dict[str, np.ndarray]:
        return self._inner.state()

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Scatter a (checkpoint) state into the shared arrays in place —
        worker views stay valid, unlike the serial system's rebinding."""
        for key, shared in self._shared.items():
            np.copyto(shared, state[key])

    def step(self, dt: Optional[float] = None) -> float:
        if self._closed:
            raise RuntimeError("ShardedApp is closed")
        if dt is None:
            dt = self._inner.suggested_dt()
        self._command(
            ("step", float(dt), float(self._inner.time), self._inner.step_count)
        )
        self._inner.time += dt
        self._inner.step_count += 1
        return dt

    def rhs_pass(self) -> None:
        """One distributed halo exchange + RHS evaluation, discarding the
        result (benchmark probe for RHS-only scaling)."""
        self._command(("rhs", float(self._inner.time)))

    def run(self, t_end: float, diagnostics=None, max_steps: int = 10**9):
        return run_loop(self, t_end, diagnostics=diagnostics, max_steps=max_steps)

    # ------------------------------------------------------------------ #
    @property
    def halo_stats(self) -> dict:
        """Cumulative measured halo traffic."""
        total_f, total_em = HaloStats(), HaloStats()
        for entry in self.shard_stats:
            total_f.merge(HaloStats(**{k: entry["f"][k] for k in ("messages", "doubles")}))
            total_em.merge(HaloStats(**{k: entry["em"][k] for k in ("messages", "doubles")}))
        return {
            "per_shard": [dict(e) for e in self.shard_stats],
            "f": total_f.as_dict(),
            "em": total_em.as_dict(),
            "messages": total_f.messages + total_em.messages,
            "doubles": total_f.doubles + total_em.doubles,
            "bytes": total_f.bytes + total_em.bytes,
        }

    def plan_stats(self) -> List[dict]:
        """Per-worker plan-compilation counter deltas (each worker compiles
        its own block plans after forking; a warm disk cache shows up here
        as ``hydrated`` instead of ``compiled``)."""
        return [dict(entry.get("plans", {})) for entry in self.shard_stats]

    # ------------------------------------------------------------------ #
    # observability (parent-side view of the worker channels)
    # ------------------------------------------------------------------ #
    def obs_metrics(self) -> List[dict]:
        """Per-worker metric snapshots read straight out of the shared
        blocks (plus ring-overflow span losses, counted parent-side)."""
        if self._obs_final_metrics is not None:
            return [dict(snap) for snap in self._obs_final_metrics]
        out = []
        for shard, channel in enumerate(self._obs_channels):
            snap = channel.metrics.snapshot()
            snap["spans_dropped"] += self._obs_lost[shard]
            out.append(snap)
        return out

    def obs_spans(self) -> List[SpanEvent]:
        """Every drained worker span, labels resolved and tagged with the
        worker's real pid (one Chrome-trace row per worker)."""
        if self._obs_final_spans is not None:
            return list(self._obs_final_spans)
        events: List[SpanEvent] = []
        for shard in range(len(self._obs_channels)):
            labels = self.shard_stats[shard].get("obs_labels", [])
            pid = self._procs[shard].pid
            for label_id, t0, t1 in self._obs_events[shard]:
                label = (
                    labels[label_id] if label_id < len(labels)
                    else f"label-{label_id}"
                )
                events.append((pid, 0, label, t0, t1))
        return events

    def obs_process_names(self) -> Dict[int, str]:
        return {proc.pid: f"shard-{i}" for i, proc in enumerate(self._procs)}

    def close(self) -> None:
        """Stop the workers and release the shared segments (idempotent).
        The wrapped app keeps private copies of the state, so diagnostics
        and checkpointing remain usable after closing."""
        if self._closed:
            return
        self._closed = True
        if self._obs_channels:
            # snapshot the shared-memory telemetry into plain Python before
            # the segments are unlinked, so Driver.summary() (and trace
            # writing) keep working after close
            for shard, channel in enumerate(self._obs_channels):
                records, lost = channel.drain()
                self._obs_events[shard].extend(records)
                self._obs_lost[shard] += lost
            self._obs_final_spans = self.obs_spans()
            self._obs_final_metrics = self.obs_metrics()
            self._obs_channels = []
        app = self._inner
        for sp in app.species:
            key = f"f/{sp.name}"
            if key in self._shared:
                app.f[sp.name] = np.array(self._shared[key])
        if "em" in self._shared:
            app.em = np.array(self._shared["em"])
        self._shared.clear()
        if self._finalizer.detach() is not None:
            _shutdown(self._procs, self._conns, self._segments)

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

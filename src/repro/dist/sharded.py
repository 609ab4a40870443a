"""Process-sharded model execution: real workers, shared-memory halos.

:class:`ShardedApp` wraps a serial :class:`~repro.systems.system.System`
and executes its time steps across persistent **worker processes**, one per
configuration-cell block of a :class:`~repro.dist.plan.ShardPlan`:

* the global state arrays (every distribution function, the EM field) live
  in :mod:`multiprocessing.shared_memory`;
* each worker *is* a ``System`` — the parent's declaration rebuilt on the
  worker's :class:`~repro.dist.blocks.BlockGrid`
  (:meth:`~repro.systems.system.System.on_block`), its state bound to the
  block's slab of the shared arrays — and a step is ``system.step(dt)``:
  the serial RHS, field closure, stepper and instrumentation, so a sharded
  run produces a serial run's diagnostics and checkpoints bit for bit
  (cross-backend resume included) by construction;
* what is shard-specific is that system's halo collaborator,
  :class:`_SharedHalo`: ghost layers are an in-place copy out of the
  neighbours' slabs between two barriers (writes-visible, reads-done — a
  fast shard never overwrites state a slow neighbour is still reading),
  counted per shard in doubles/messages (into the worker's metrics
  registry, which the parent reads through shared memory in every
  observability mode) so the Fig. 3 traffic model can be checked against
  *measured* bytes; the Poisson charge density is gathered through one
  more shared array.

The parent keeps the serial system for everything that is not stepping:
initial-condition projection, diagnostics, energies, CFL, checkpoint
gather/scatter — all through the :class:`~repro.systems.model.Model`
protocol, on the shared arrays.  Workers are forked (Linux), so they
inherit the parent's generated-kernel cache and system declaration without
pickling.  The parent never evaluates an RHS itself, and need not: all it
reports (``suggested_dt`` included) is a function of the state it shares
with the workers.  What it computes once per state — the Poisson field and
the LBO moments that ``suggested_dt`` and the energy record share — is keyed
by the serial system's state token (generation, step count, time): a worker
step moves the step count and time, :meth:`ShardedApp.set_state` the
generation.  Workers never call ``suggested_dt``, so every shard recomputes
in every stage and they all join the Poisson charge gather alike.
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

from ..fields.poisson import NonNeutralError
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from ..obs.metrics import merge_snapshots
from ..obs.ring import SPAN_RING, ObsChannel
from ..obs.tracer import SpanEvent
from .blocks import BlockGrid, fill_padded
from .plan import ShardPlan

__all__ = ["ShardedApp"]

_perf_counter = time.perf_counter
_S_HALO = _OBS_SLOT["halo_exchanges"]
_S_HALO_MS = _OBS_SLOT["halo_wait_ms"]
_S_HALO_BYTES = _OBS_SLOT["halo_bytes"]
_S_BARRIER = _OBS_SLOT["barrier_waits"]
_S_BARRIER_MS = _OBS_SLOT["barrier_wait_ms"]
#: (messages, doubles) slots of the distribution and of the EM field halo
_S_HALO_F = (_OBS_SLOT["halo_f_messages"], _OBS_SLOT["halo_f_doubles"])
_S_HALO_EM = (_OBS_SLOT["halo_em_messages"], _OBS_SLOT["halo_em_doubles"])

_READY_TIMEOUT = 600.0   # worker start + block-plan generation
_STEP_TIMEOUT = 3600.0   # one full step on one shard
_BARRIER_TIMEOUT = 600.0


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
class _SharedHalo:
    """The halo collaborator of the System on block ``grid``, over the
    shared global arrays.

    ``shared`` maps state keys to the globally-shaped shared-memory arrays
    every shard steps its own slab of; ``gather`` is one more,
    ``(*conf_cells, Npc)``, that :meth:`allgather` assembles through.
    Every method is collective: all shards call it the same number of
    times per step (they run the same ``System.step``).
    """

    def __init__(self, grid: BlockGrid, shared, gather, barrier):
        self.grid = grid
        self.shared = shared
        self.gather = gather
        self.barrier = barrier
        self._ghosted: Dict[str, np.ndarray] = {}

    def _wait(self) -> None:
        if _OBS.on:
            t0 = _perf_counter()
            self.barrier.wait()
            _OBS.finish("barrier_wait", t0, _S_BARRIER, _S_BARRIER_MS)
        else:
            self.barrier.wait()

    def exchange(self, state) -> Dict[str, np.ndarray]:
        """``state`` with this shard's ghost layers, copied out of the
        shared arrays into private padded buffers between two barriers:
        every shard's writes are in before anyone reads, every read is
        done before anyone writes again."""
        self._wait()
        grid = self.grid
        values = _OBS.metrics.values
        moved = 0
        t0 = _perf_counter()
        out = {}
        for key in state:
            whole = self.shared[key]
            buf = self._ghosted.get(key)
            if buf is None:
                buf = self._ghosted[key] = np.zeros(
                    tuple(n + 2 * g for n, g in zip(grid.cells, grid.ghost))
                    + whole.shape[grid.ndim:]
                )
            messages, doubles = fill_padded(
                whole, buf, grid.ranges, grid.ghost, grid.parent.cells
            )
            s_messages, s_doubles = _S_HALO_EM if key == "em" else _S_HALO_F
            values[s_messages] += messages
            values[s_doubles] += doubles
            moved += doubles
            out[key] = buf
        if _OBS.on:
            _OBS.finish("halo_exchange", t0, _S_HALO, _S_HALO_MS)
            values[_S_HALO_BYTES] += 8 * moved
        self._wait()
        return out

    def allgather(self, arr: np.ndarray) -> np.ndarray:
        """The whole grid's ``(*conf_cells, Npc)`` array from every shard's
        block of it (a private copy: callers modify it)."""
        self.grid.restrict(self.gather)[...] = arr
        self._wait()
        return np.array(self.gather)


class _ShardWorker:
    """Per-process execution state for one shard (lives in the child)."""

    def __init__(
        self, app, plan: ShardPlan, shard: int, shared, gather, barrier,
        channel: ObsChannel,
    ):
        # rebind the process-global registry onto this worker's
        # shared-memory channel *before* block plans compile, so every
        # count — compiles, halo slabs — lands where the parent reads it
        # (the registry forked from the parent is the parent's history)
        _OBS.adopt_channel(channel)
        grid = BlockGrid(app.conf_grid, plan.ranges(shard), plan.pad)
        self.system = app.on_block(
            grid, _SharedHalo(grid, shared, gather, barrier)
        )
        # the block's state *is* its slab of the shared arrays (cell-major:
        # configuration axes lead, so one leading slice addresses f and em
        # alike): stepped in place, read by the neighbours' halo fills and
        # by the parent; nothing is projected
        self.system.set_state(
            {key: grid.restrict(arr) for key, arr in shared.items()}
        )

    @staticmethod
    def span_labels() -> Optional[List[str]]:
        """When tracing: the span ring carries label *ids*; the interned
        table is tiny and changes rarely, so it just rides the replies."""
        return list(_OBS.tracer.labels) if _OBS.mode == "trace" else None

    def step(self, dt: float, t: float, step_index: int) -> None:
        # the parent owns the clock: its time drives the external-field
        # envelope, and its global step index keeps trace sampling aligned
        # across every worker (and across checkpoint resumes)
        if _OBS.mode == "trace":
            _OBS.begin_step(step_index)
        self.system.time = t
        self.system.step_count = step_index
        self.system.step(dt)


def _watch_parent(ppid: int) -> None:
    """Daemon thread: hard-exit if the parent dies (covers a SIGKILLed
    parent while this worker blocks on a barrier or a long stage — the
    pipe EOF path only fires from ``conn.recv``).  Worker exit lets the
    multiprocessing resource tracker unlink the shared segments."""
    while True:
        time.sleep(2.0)
        if os.getppid() != ppid:
            os._exit(2)


def _worker_main(app, plan, shard, shared, gather, barrier, conn, channel) -> None:
    threading.Thread(
        target=_watch_parent, args=(os.getppid(),), daemon=True,
        name="repro-parent-watchdog",
    ).start()
    try:
        worker = _ShardWorker(app, plan, shard, shared, gather, barrier, channel)
        conn.send(("ready", worker.span_labels()))
    except Exception:  # noqa: BLE001
        # broad on purpose: whatever broke building this shard's system, the
        # parent raises it (traceback attached) instead of timing out
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
            if cmd != "step":
                raise ValueError(f"unknown worker command {cmd!r}")
            worker.step(msg[1], msg[2], msg[3])
            conn.send(("ok", worker.span_labels()))
        except NonNeutralError as exc:
            # a blown-up Poisson run: the parent raises it as itself
            conn.send(("nonneutral", str(exc)))
            break
        except Exception:  # noqa: BLE001
            # broad on purpose: any failure inside a step is the parent's to
            # raise (it closes every shard); this worker then exits
            conn.send(("error", traceback.format_exc()))
            break


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def _halo_view(snap: Dict[str, float]) -> dict:
    """The halo counts of a metrics snapshot, per field."""
    out = {}
    for part in ("f", "em"):
        doubles = int(snap[f"halo_{part}_doubles"])
        out[part] = {
            "messages": int(snap[f"halo_{part}_messages"]),
            "doubles": doubles,
            "bytes": 8 * doubles,
        }
    return out


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
        (one of the three built-in field closures).
    shards:
        Worker-process count; the configuration grid is factorized into
        this many blocks (must keep >= 2 cells along an axis per block).
    """

    def __init__(self, app, shards: int):
        field_kind = getattr(app, "field_kind", "maxwell")
        if field_kind not in ("maxwell", "poisson", "none"):
            # a closure this package does not know may read neighbour cells
            # or global sums behind the halo's back — refuse instead
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
        app.set_state(self._shared)
        # what the halo's allgather assembles through (Npc doubles per
        # configuration cell)
        gather = self._alloc(
            np.zeros(app.conf_grid.cells + (app.cfg_basis.num_basis,))
        )

        # each worker's metrics registry (and, when tracing, its span ring)
        # rides the same shared-memory plumbing as the state, in every
        # observability mode (allocated before the fork, released with the
        # segments)
        ring = SPAN_RING if _OBS.mode == "trace" else 0
        self._obs_channels: List[ObsChannel] = [
            ObsChannel(self._alloc(np.zeros(ObsChannel.length(ring))), ring)
            for _ in range(self.nshards)
        ]
        self._obs_events: List[List[Tuple[int, float, float]]] = [
            [] for _ in range(self.nshards)
        ]
        self._obs_lost = [0] * self.nshards
        self._obs_labels: List[List[str]] = [[] for _ in range(self.nshards)]
        self._obs_final_metrics: Optional[List[dict]] = None
        self._obs_final_spans: Optional[List[SpanEvent]] = None

        ctx = mp.get_context("fork")
        self._barrier = ctx.Barrier(self.nshards, timeout=_BARRIER_TIMEOUT)
        self._procs: List[mp.Process] = []
        self._conns = []
        for shard in range(self.nshards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    app, self.plan, shard, self._shared, gather,
                    self._barrier, child_conn, self._obs_channels[shard],
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
        for shard, conn in enumerate(self._conns):
            kind, payload = self._recv(shard, conn, _READY_TIMEOUT)
            if kind != "ready":
                self.close()
                raise RuntimeError(f"shard {shard} failed to start:\n{payload}")
            if payload is not None:
                self._obs_labels[shard] = payload

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
            if kind == "nonneutral":
                self.close()
                raise NonNeutralError(payload)
            if payload is not None:
                self._obs_labels[shard] = payload
        self._drain_spans()

    def _drain_spans(self) -> None:
        """Move new worker spans out of the rings (when tracing).  Workers
        are idle between commands, so this never races their
        (single-writer) pushes."""
        for shard, channel in enumerate(self._obs_channels):
            if channel.capacity:
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
        worker views stay valid, unlike the serial system's rebinding —
        and rebind the serial system to them, which starts a new state
        token there."""
        for key, shared in self._shared.items():
            np.copyto(shared, state[key])
        self._inner.set_state(self._shared)

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

    # ------------------------------------------------------------------ #
    @property
    def halo_stats(self) -> dict:
        """Cumulative measured halo traffic: a view over the workers'
        metric snapshots."""
        snaps = self.obs_metrics()
        out = _halo_view(merge_snapshots(snaps))
        out["per_shard"] = [_halo_view(snap) for snap in snaps]
        for key in ("messages", "doubles", "bytes"):
            out[key] = out["f"][key] + out["em"][key]
        return out

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
        for shard, labels in enumerate(self._obs_labels):
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
        # snapshot the shared-memory telemetry into plain Python before the
        # segments are unlinked, so Driver.summary(), halo_stats and trace
        # writing keep working after close
        self._drain_spans()
        self._obs_final_spans = self.obs_spans()
        self._obs_final_metrics = self.obs_metrics()
        self._obs_channels = []
        self._inner.set_state({k: np.array(v) for k, v in self._shared.items()})
        self._shared.clear()
        if self._finalizer.detach() is not None:
            _shutdown(self._procs, self._conns, self._segments)

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:  # noqa: BLE001
            # cannot be narrowed: at interpreter shutdown close() runs among
            # half-torn-down modules (numpy, repro.obs) and fails with
            # whatever that produces, and an exception leaving __del__ is only
            # printed; the finalizer registered in __init__ still stops the
            # workers and unlinks the segments
            pass

"""The modal Vlasov right-hand side as one program per configuration cell.

The surface terms run trace → flux → lift in the face-mode space
(:mod:`repro.engine.faces`).  Only the *streaming* faces join different
configuration cells; an acceleration face joins two velocity cells of one
configuration cell.  A :class:`CellProgram` is built from the solver's
compiled plans — their group tables and :class:`~repro.engine.faces.FaceMap`
tables, nothing new is generated — and runs them in two phases:

1. **streaming, whole grid:** sweep the ``2 cdim Nf`` streaming trace rows of
   every cell handed in (ghost cells included) into a buffer of that width
   and run the streaming face fluxes on it;
2. **per configuration cell** ``c``: sweep the ``2 vdim Nf`` acceleration
   traces of ``f[c]`` into a cell-local ``(2 vdim Nf, nvel)`` block, run
   the acceleration face fluxes in place on it, then form ``L[c]`` row by
   row — volume entries, streaming-lift entries (from phase 1's buffer),
   acceleration-lift entries (from the block) — and, when a
   :class:`Stage` rides along, apply the Shu–Osher combination
   ``target[c] = a u0[c] + b (f[c] + dt L[c])`` before moving on, so
   neither a state-sized acceleration trace nor a state-sized ``L`` exists.

The compiled form is the ``cell_rhs`` entry point of
:data:`repro.cas.codegen.FUSED_SWEEP_C`, over the loop bodies of the plans'
own ``fused_sweep`` / ``face_flux``.  The reference form — the numpy tier,
and any input the compiled one does not take — is the same plans applied as
state-sized passes followed by the stage arithmetic in numpy.  Per output
element both perform the same float operations in the same order, so they
end in the same bytes; the tier fork stays inside this object.

One call is one ``plan_apply:<digest12>`` span and one count in the
``plan_applies`` / ``plan_apply_ms`` slots, whichever form runs.
"""

from __future__ import annotations

import hashlib
from time import perf_counter as _perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..kernels.termset import AuxValue
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from .faces import FaceMap
from .pool import ScratchPool

__all__ = ["CellProgram", "Stage"]

_S_PLAN_APPLIES = _OBS_SLOT["plan_applies"]
_S_PLAN_APPLY_MS = _OBS_SLOT["plan_apply_ms"]


class Stage(NamedTuple):
    """One Shu–Osher stage riding the right-hand side:
    ``target = a * u0 + b * (f + dt * L(f))``, or ``target = f + dt * L(f)``
    for ``(a, b) == (0, 1)`` (``u0`` is then not read and may be None).
    ``target`` is ``f`` itself (a whole grid, updated in place) or an array
    sharing no memory with it."""

    a: float
    b: float
    dt: float
    u0: Optional[np.ndarray]
    target: np.ndarray

    @property
    def combines(self) -> bool:
        return (self.a, self.b) != (0.0, 1.0)


def _check_array(name: str, arr, shape) -> None:
    if (
        not isinstance(arr, np.ndarray)
        or arr.shape != shape
        or arr.dtype != np.float64
        or not arr.flags.c_contiguous
    ):
        raise ValueError(f"{name} must be a C-contiguous float64 array {shape}")


class CellProgram:
    """Volume + surface terms of one species, per configuration cell.

    Parameters
    ----------
    pool:
        The solver's scratch pool: the streaming buffer(s), the cell-local
        block and the reference form's state-sized buffers come from it.
    cdim:
        Number of leading configuration-cell axes.
    volume:
        The ``Np x Np`` volume operator (an object with
        ``lookup(aux, cell_shape) -> (plan, trusted)``:
        :class:`~repro.kernels.grouped.GroupedOperator`).
    stream, accel:
        ``(trace operator, lift operator, [(flux operator, FaceMap), ...])``
        of the streaming and of the acceleration directions.  The trace
        operators give only their directions' slots (``2 Nf`` rows each, in
        direction order), the lift operators read them back; streaming maps
        read the buffer of every cell handed in and write the own cells',
        acceleration maps stay on the own cells.
    interior:
        Where the own cells sit in the state handed in, one slice per
        configuration axis; None on a whole grid, where the two coincide.
    """

    def __init__(
        self,
        pool: ScratchPool,
        cdim: int,
        volume,
        stream: Tuple[object, object, Sequence[Tuple[object, FaceMap]]],
        accel: Tuple[object, object, Sequence[Tuple[object, FaceMap]]],
        interior: Optional[Tuple[slice, ...]] = None,
    ):
        self.pool = pool
        self.cdim = cdim = int(cdim)
        s_trace, s_lift, s_faces = stream
        a_trace, a_lift, a_faces = accel
        if not s_faces or not a_faces:
            raise ValueError("need a streaming and an acceleration direction")
        self.num_basis = npb = volume.nout
        first = s_faces[0][1]
        self.nf = nf = first.nf
        self.nvel = first.nvel
        vel = first.dst_shape[cdim + 1 :]
        cells, cells_in = first.dst_shape[:cdim], first.src_shape[:cdim]
        self.ncfg = first.dst_cells
        self.ns, self.na = 2 * nf * len(s_faces), 2 * nf * len(a_faces)
        self.own_shape = cells + (npb,) + vel
        self.in_shape = cells_in + (npb,) + vel
        self._stream_shape = cells + (self.ns,) + vel
        self._stream_in_shape = cells_in + (self.ns,) + vel
        self._accel_shape = cells + (self.na,) + vel
        if not (
            volume.nin == s_trace.nin == a_trace.nin == s_lift.nout == a_lift.nout == npb
            and s_trace.nout == s_lift.nin == self.ns
            and a_trace.nout == a_lift.nin == self.na
        ):
            raise ValueError(
                "the trace and lift operators do not split the face slots "
                "into streaming rows and acceleration rows"
            )
        for maps, kind, src_shape, dst_shape in (
            (s_faces, "streaming", self._stream_in_shape, self._stream_shape),
            (a_faces, "acceleration", self._accel_shape, self._accel_shape),
        ):
            for q, (_op, fm) in enumerate(maps):
                if (
                    (fm.wa is None) != (kind == "acceleration")
                    or fm.nf != nf
                    or fm.src_shape != src_shape
                    or fm.dst_shape != dst_shape
                    or (fm.up, fm.dn) != (2 * q * nf, (2 * q + 1) * nf)
                ):
                    raise ValueError(
                        f"face map {q} of the {kind} directions does not "
                        f"describe slots {2 * q * nf}.. of {src_shape} -> {dst_shape}"
                    )
        own = np.arange(self.ncfg)
        for _op, fm in a_faces:
            # the cell-local block is a one-cell trace buffer: every row of
            # the map must be the faces of its own configuration cell
            if not np.array_equal(fm.table, np.repeat(own[:, None], 5, axis=1)):
                raise ValueError(
                    "an acceleration face map must name each own cell once, in order"
                )
        # own cell -> its (flattened) index in the state handed in
        self._interior, self._held = interior, None
        if interior is not None and len(interior) == cdim:
            self._held = np.ascontiguousarray(
                np.arange(int(np.prod(cells_in))).reshape(cells_in)[interior]
            )
        if (cells_in if interior is None else np.shape(self._held)) != cells:
            raise ValueError(
                f"interior {interior} does not cut the own cells {cells} out "
                f"of the {cells_in} handed in"
            )
        # (operator, the cell axes it is applied on), in the order run() binds
        own_cells, in_cells = cells + vel, cells_in + vel
        self._ops = (
            [(volume, own_cells), (s_trace, in_cells), (s_lift, own_cells),
             (a_trace, own_cells), (a_lift, own_cells)]
            + [(op, own_cells) for op, _fm in s_faces]
            + [(op, own_cells) for op, _fm in a_faces]
        )
        self._s_maps = [fm for _op, fm in s_faces]
        self._a_maps = [fm for _op, fm in a_faces]
        self._taus = np.zeros(len(a_faces))
        self._bound: tuple = ()
        self._call: Optional[tuple] = None
        self.obs_label = "plan_apply"
        #: which form the last call ran (``cc`` / ``numpy``)
        self.tier: Optional[str] = None

    # ------------------------------------------------------------------ #
    def run(
        self,
        f: np.ndarray,
        aux: Dict[str, AuxValue],
        out: Optional[np.ndarray] = None,
        penalties: Optional[Sequence[float]] = None,
        stage: Optional[Stage] = None,
    ) -> np.ndarray:
        """``out = L(f)``, or with ``stage`` the stage's target (``out`` is
        then only the reference form's state-sized ``L`` buffer and may be
        omitted).  ``f`` is cell-major and carries the ghost cells the
        streaming maps read; ``out`` / ``stage.target`` / ``stage.u0`` are
        the own cells.  ``penalties``: per acceleration direction, the
        factor of the jump penalty added to its flux."""
        plans = []
        for op, cell_shape in self._ops:
            plan, trusted = op.lookup(aux, cell_shape)
            if not trusted:
                plan._guard(aux)
            plan._ready(aux)
            plans.append(plan)
        if stage is None:
            key = (f, out, None, None, *plans)
        else:
            key = (f, out, stage.u0, stage.target, *plans)
        bound = self._bound
        if len(key) != len(bound) or any(a is not b for a, b in zip(key, bound)):
            self._bind(key, plans, stage)
        if _OBS.on:
            t0 = _perf_counter()
            res = self._run(f, aux, out, penalties, stage, plans)
            _OBS.finish(self.obs_label, t0, _S_PLAN_APPLIES, _S_PLAN_APPLY_MS)
            return res
        return self._run(f, aux, out, penalties, stage, plans)

    def _bind(self, key: tuple, plans: List, stage: Optional[Stage]) -> None:
        """Check everything the compiled program trusts about the arrays of
        ``key`` and prebind its calls (None: the reference form runs)."""
        self._bound, self._call = (), None
        f, out = key[0], key[1]
        if not isinstance(f, np.ndarray) or f.shape != self.in_shape or f.dtype != np.float64:
            raise ValueError(f"f must be a float64 array {self.in_shape}")
        if out is not None:
            _check_array("out", out, self.own_shape)
            if np.may_share_memory(out, f) or (
                stage is not None and np.may_share_memory(out, stage.target)
            ):
                raise ValueError("out overlaps the state")
        elif stage is None:
            raise ValueError("need out or a stage")
        if stage is not None:
            if not f.flags.c_contiguous:
                raise ValueError("a stage needs a C-contiguous state")
            _check_array("stage.target", stage.target, self.own_shape)
            if stage.target is f:
                if self._held is not None:
                    raise ValueError(
                        "a stage cannot write into the ghosted buffer it reads"
                    )
            elif np.may_share_memory(stage.target, f):
                raise ValueError("stage.target overlaps f without being f")
            if stage.u0 is None:
                if stage.combines:
                    raise ValueError(f"stage ({stage.a}, {stage.b}) needs u0")
            else:
                _check_array("stage.u0", stage.u0, self.own_shape)
                if np.may_share_memory(stage.u0, stage.target) or np.may_share_memory(
                    stage.u0, f
                ):
                    raise ValueError("stage.u0 aliases the state")
        labels = [plan.obs_label for plan in plans]
        self.obs_label = "plan_apply"
        if all(":" in label for label in labels):
            digest = hashlib.sha256("".join(labels).encode()).hexdigest()
            self.obs_label = f"plan_apply:{digest[:12]}"
        compiled = f.flags.c_contiguous and all(
            plan.tier == "cc" and plan._fallback is None for plan in plans
        )
        if compiled:
            self._call = self._bind_compiled(plans, f, out, stage)
        self._bound = key

    def _buffers(self) -> Tuple[np.ndarray, np.ndarray]:
        """The streaming trace buffer of every cell handed in and the
        ghost-free one the fluxes go to (one array on a whole grid)."""
        gs = self.pool.get("program.stream", self._stream_shape)
        if self._held is None:
            return gs, gs
        return self.pool.get("program.stream_in", self._stream_in_shape), gs

    def _split(self, plans: List) -> tuple:
        """``plans`` (in ``_ops`` order) as volume, streaming trace / lift,
        acceleration trace / lift, streaming fluxes, acceleration fluxes."""
        mid = 5 + len(self._s_maps)
        return (*plans[:5], plans[5:mid], plans[mid:])

    def _bind_compiled(self, plans, f, out, stage) -> tuple:
        vol, s_trace, s_lift, a_trace, a_lift, s_flux, a_flux = self._split(plans)
        gs_in, gs = self._buffers()
        face_calls = [
            (plan._cc_faces, plan._bind_faces(gs_in, gs, fm) + (0, 0.0))
            for plan, fm in zip(s_flux, self._s_maps)
        ]
        for plan, fm in zip(a_flux, self._a_maps):
            if plan.cell_shape != fm.cell_shape or not fm.nf == plan.nin == plan.nout:
                raise ValueError("an acceleration flux plan does not fit its face map")
        block = self.pool.get("program.block", (self.na, self.nvel))

        def table(plan):
            return [len(plan._groups), plan._cc_table.ctypes.data]

        prog = np.array(
            table(vol) + [self.ns] + table(s_lift) + [self.na] + table(a_trace)
            + table(a_lift) + [self.nf, len(a_flux)],
            dtype=np.int64,
        )
        accel = np.array(
            [
                [fm.up, fm.dn, fm.shift, fm.extent, *table(plan), 0]
                for plan, fm in zip(a_flux, self._a_maps)
            ],
            dtype=np.int64,
        )
        if stage is None:
            cell_out, u0, target = out, 0, 0
        else:
            cell_out = self.pool.get("program.cell", (self.num_basis, self.nvel))
            u0 = 0 if stage.u0 is None else stage.u0.ctypes.data
            target = stage.target.ctypes.data
        head = (
            f.ctypes.data,
            0 if self._held is None else self._held.ctypes.data,
            cell_out.ctypes.data, self.ncfg, self.num_basis, self.nvel,
            prog.ctypes.data, gs.ctypes.data, block.ctypes.data,
            accel.ctypes.data, self._taus.ctypes.data,
        )
        trace_call = (f.ctypes.data, gs_in.ctypes.data, 0, *s_trace._cc_tail)
        # the tables are kept alive beside the addresses taken from them
        return (s_trace._cc, trace_call, face_calls, vol._cc_cells, head,
                (u0, target), accel, prog)

    # ------------------------------------------------------------------ #
    def _run(self, f, aux, out, penalties, stage, plans) -> np.ndarray:
        if self._call is None:
            self.tier = "numpy"
            return self._reference(f, aux, out, penalties, stage, plans)
        self.tier = "cc"
        for plan in plans:
            plan._refresh(aux)
        sweep, trace_call, face_calls, cells, head, tail, accel, _prog = self._call
        accel[:, 6] = penalties is not None
        if penalties is not None:
            self._taus[:] = penalties
        sweep(*trace_call)
        for faces, call in face_calls:
            faces(*call)
        if stage is None:
            cells(*head, 0, 0.0, 0.0, 0.0, 0, 0)
            return out
        cells(*head, 2 if stage.combines else 1, stage.a, stage.b, stage.dt, *tail)
        return stage.target

    def _reference(self, f, aux, out, penalties, stage, plans) -> np.ndarray:
        """Today's state-sized passes over the same plans, then the stage
        arithmetic in the association of ``SSPRK3.step_inplace`` — the byte
        reference of the compiled program."""
        vol, s_trace, s_lift, a_trace, a_lift, s_flux, a_flux = self._split(plans)
        pool = self.pool
        if out is None:
            out = pool.get("program.k", self.own_shape)
        own = f if self._interior is None else f[self._interior]
        f_own = own
        if not own.flags.c_contiguous and f.flags.c_contiguous:
            # ghost layers on a trailing configuration axis: stage the own
            # cells (a strided ``f`` itself is the plans' audited copy)
            f_own = pool.get("program.own", self.own_shape)
            np.copyto(f_own, own)
        gs_in, gs = self._buffers()
        ga = pool.get("program.accel", self._accel_shape)
        vol._run(aux, f_own, out, False)
        s_trace._run(aux, f, gs_in, False)
        a_trace._run(aux, f_own, ga, False)
        for plan, fm in zip(s_flux, self._s_maps):
            plan._run_faces(aux, gs_in, gs, fm, None)
        for j, (plan, fm) in enumerate(zip(a_flux, self._a_maps)):
            plan._run_faces(aux, ga, ga, fm, None if penalties is None else penalties[j])
        s_lift._run(aux, gs, out, True)
        a_lift._run(aux, ga, out, True)
        if stage is None:
            return out
        target = stage.target
        np.multiply(out, stage.dt, out=out)
        np.add(own, out, out=target)
        if stage.combines:
            np.multiply(target, stage.b, out=target)
            np.multiply(stage.u0, stage.a, out=out)
            np.add(target, out, out=target)
        return target

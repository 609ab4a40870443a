"""The modal Vlasov right-hand side as one program per configuration cell.

The surface terms run trace → flux → lift in the face-mode space
(:mod:`repro.engine.faces`).  Only the *streaming* faces join different
configuration cells; an acceleration face joins two velocity cells of one
configuration cell, and so does every face of a velocity-space collision
operator (the LBO's drag and LDG passes).  A :class:`CellProgram` is built
from compiled plans — their group tables and
:class:`~repro.engine.faces.FaceMap` tables, nothing new is generated — and
runs them in two phases:

1. **streaming, whole grid:** sweep the ``2 cdim Nf`` streaming trace rows of
   every cell handed in (ghost cells included) into a buffer of that width
   and run the streaming face fluxes on it;
2. **per configuration cell** ``c``: run the cell's *instruction table* on
   ``(rows, nvel)`` blocks of one cell — the cell of the state (``"f"``),
   its streaming face fluxes from phase 1 (``"stream"``), its ``L[c]``
   (``"out"``) and cell-local scratch blocks — and, when a :class:`Stage`
   rides along, apply the Shu–Osher combination
   ``target[c] = a u0[c] + b (f[c] + dt L[c])`` before moving on, so no
   state-sized ``L`` or velocity-face trace exists.

The table has two kinds of instruction, :class:`Sweep` (a plan from one
block into another, overwriting or accumulating) and :class:`Faces` (a flux
plan across the velocity faces of one block's trace slots, in place), and
the two scalar steps the LDG diffusion needs, :class:`Scale` and
:class:`Subtract`.  The Vlasov update is one table — acceleration trace →
flux, volume, streaming lift, acceleration lift — and a collision operator
appends its own (``tail``); the operator's primitive moments are refreshed
by its owner before the call, so the in-place stage stays safe.

The compiled form is the ``cell_rhs`` entry point of
:data:`repro.cas.codegen.FUSED_SWEEP_C`, which forms the cell's row of the
table plans' per-cell sweep entries and then interprets the table over the
loop bodies of the plans' own ``fused_sweep`` / ``face_flux``; its cell
loop (and phase 1's) splits over threads, each with its own cell-local
block, where the grid holds the work (:func:`repro.cas.codegen.cell_threads`).
The reference form — the numpy tier, and any input the compiled one does not
take — is the same table run as state-sized passes (:func:`run_passes`)
followed by the stage arithmetic in numpy.  Per output element both perform
the same float operations in the same order, so they end in the same bytes;
the tier fork stays inside this object.

Plans come from :func:`bound_plans` — ``plan_for`` then ``bind`` per
operator, the one way any caller runs a plan — held by :class:`HeldPlans`,
which skips even that while the aux value objects and every plan's
bound-value record are the ones it saw last; a plan that another caller
bound to other values is bound back.
One call is one ``plan_apply:<digest12>`` span and one count in the
``plan_applies`` / ``plan_apply_ms`` slots, whichever form runs.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter, is_, itemgetter
from time import perf_counter as _perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..cas.codegen import cell_threads
from ..kernels.termset import AuxValue
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from .faces import FaceMap
from .pool import ScratchPool

__all__ = [
    "CellProgram",
    "Faces",
    "HeldPlans",
    "Scale",
    "Stage",
    "Subtract",
    "Sweep",
    "bound_plans",
    "joint_label",
    "run_passes",
]

_S_PLAN_APPLIES = _OBS_SLOT["plan_applies"]
_S_PLAN_APPLY_MS = _OBS_SLOT["plan_apply_ms"]
_BOUND_IDS = attrgetter("_bound_ids")


def _tuple_getter(names: Sequence[str]):
    """``aux -> tuple(aux[n] for n in names)``, the loop in C."""
    if len(names) > 1:
        return itemgetter(*names)
    return lambda aux: tuple(aux[n] for n in names)


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


# --------------------------------------------------------------------- #
# the instructions of a cell table; blocks are named: "f" (the cell of the
# state, read only), "stream" (its streaming face fluxes, read only), "out"
# (its L), or a scratch block of the program
class Sweep(NamedTuple):
    """``dst = op(src)``, or ``dst += op(src)`` with ``accumulate``."""

    op: object
    src: str
    dst: str
    accumulate: bool = False


class Faces(NamedTuple):
    """The ``Nf x Nf`` flux ``op`` across the velocity faces ``faces`` (a
    :class:`~repro.engine.faces.FaceMap` with ``vaxis``, shaped like the
    block), in place on the trace slots of ``block``."""

    op: object
    faces: FaceMap
    block: str


class Scale(NamedTuple):
    """``block *= factor``."""

    block: str
    factor: float


class Subtract(NamedTuple):
    """``dst -= src``."""

    dst: str
    src: str


#: the block rows of a compiled instruction name these cell arrays (scratch
#: blocks are row offsets >= 0)
_LOCATION = {"f": -1, "stream": -2, "out": -3}
_OPCODE = {Sweep: 0, Faces: 1, Scale: 2, Subtract: 3}
_READ_ONLY = ("f", "stream")


def bound_plans(ops: Sequence[Tuple[object, Tuple[int, ...]]], aux) -> List:
    """The plan of each ``(operator, cell shape)`` for ``aux``
    (:meth:`GroupedOperator.plan_for
    <repro.kernels.grouped.GroupedOperator.plan_for>`), bound to its values
    (:meth:`~repro.engine.plan.ExecutionPlan.bind`); None for a None
    operator."""
    plans = []
    for op, cell_shape in ops:
        if op is None:
            plans.append(None)
            continue
        plan = op.plan_for(aux, cell_shape)
        plan.bind(aux)
        plans.append(plan)
    return plans


class HeldPlans:
    """:func:`bound_plans` of fixed ``ops``, held while nothing moved: the
    same aux value objects, and every plan still bound to these values (a
    plan another caller bound to other values since holds a new bound-value
    record).  A held plan that binds a scalar kept in a mutable size-one
    array is bound again on every call (whether one does is fixed while its
    aux values are).  :attr:`synced` lists the plans whose bound values
    include a copy to re-gather before a compiled call
    (``ExecutionPlan._sync``)."""

    def __init__(self, ops: Sequence[Tuple[object, Tuple[int, ...]]]):
        self.ops = list(ops)
        self._values = _tuple_getter(
            sorted({n for op, _c in self.ops if op is not None for n in op._names})
        )
        self._memo: Optional[tuple] = None
        self.synced: List = []

    def __call__(self, aux) -> List:
        memo = self._memo
        if memo is not None:
            vals, seen, plans, live, volatile = memo
            if all(map(is_, self._values(aux), vals)) and all(
                map(is_, map(_BOUND_IDS, live), seen)
            ):
                for plan in volatile:
                    plan.bind(aux)
                return plans
        plans = bound_plans(self.ops, aux)
        live = [plan for plan in plans if plan is not None]
        self._memo = (
            self._values(aux),
            [plan._bound_ids for plan in live],
            plans,
            live,
            [plan for plan in live if plan._vol_scalar_names],
        )
        self.synced = [plan for plan in live if plan._synced]
        return plans


def joint_label(plans) -> str:
    """The span label of one call running ``plans``:
    ``plan_apply:<digest12>`` of their labels, or ``plan_apply`` where a
    plan has no digest."""
    labels = [plan.obs_label for plan in plans]
    if not all(":" in label for label in labels):
        return "plan_apply"
    return f"plan_apply:{hashlib.sha256(''.join(labels).encode()).hexdigest()[:12]}"


def run_passes(table, plans, arrays: Dict[str, np.ndarray], aux) -> None:
    """The reference form of a cell table: each instruction as one pass over
    the state-sized ``arrays`` (block name → cell-major array), in table
    order, with ``plans[i]`` the bound plan of ``table[i]`` (None for the
    scalar steps) — per element the float operations of ``cell_rhs``."""
    for ins, plan in zip(table, plans):
        if type(ins) is Sweep:
            plan.run(aux, arrays[ins.src], arrays[ins.dst], ins.accumulate)
        elif type(ins) is Faces:
            buf = arrays[ins.block]
            plan.run_faces(aux, buf, buf, ins.faces)
        elif type(ins) is Scale:
            np.multiply(arrays[ins.block], ins.factor, out=arrays[ins.block])
        else:
            np.subtract(arrays[ins.dst], arrays[ins.src], out=arrays[ins.dst])


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
        ``plan_for(aux, cell_shape) -> plan``:
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
    tail:
        ``(blocks, instructions)`` appended to the Vlasov table — a
        collision operator's terms: its scratch blocks (name → rows) and
        its :class:`Sweep` / :class:`Faces` / :class:`Scale` /
        :class:`Subtract` instructions on the own cells.  Its operators read
        their symbols from the aux handed to :meth:`run`.
    """

    def __init__(
        self,
        pool: ScratchPool,
        cdim: int,
        volume,
        stream: Tuple[object, object, Sequence[Tuple[object, FaceMap]]],
        accel: Tuple[object, object, Sequence[Tuple[object, FaceMap]]],
        interior: Optional[Tuple[slice, ...]] = None,
        tail: Optional[Tuple[Dict[str, int], Sequence]] = None,
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
        self._vel = vel = first.dst_shape[cdim + 1 :]
        self._cells = cells = first.dst_shape[:cdim]
        cells_in = first.src_shape[:cdim]
        self.ncfg = first.dst_cells
        self.ns, self.na = 2 * nf * len(s_faces), 2 * nf * len(a_faces)
        self.own_shape = cells + (npb,) + vel
        self.in_shape = cells_in + (npb,) + vel
        self._stream_shape = cells + (self.ns,) + vel
        self._stream_in_shape = cells_in + (self.ns,) + vel
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
            (a_faces, "acceleration", self.block_shape(self.na), self.block_shape(self.na)),
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
        # the cell table: the Vlasov update, then the tail
        self.rows = {"f": npb, "stream": self.ns, "out": npb, "accel": self.na}
        table = (
            [Sweep(a_trace, "f", "accel")]
            + [Faces(op, fm, "accel") for op, fm in a_faces]
            + [Sweep(volume, "f", "out"), Sweep(s_lift, "stream", "out", True),
               Sweep(a_lift, "accel", "out", True)]
        )
        if tail is not None:
            blocks, extra = tail
            for name, rows in blocks.items():
                if name in self.rows:
                    raise ValueError(f"the tail's block {name!r} is already a block")
                self.rows[name] = int(rows)
            table += list(extra)
        for ins in table:
            self._check(ins)
        self.table = table
        #: scratch block -> its first row in the cell-local block
        self._offsets: Dict[str, int] = {}
        self._block_rows = 0
        for name, rows in self.rows.items():
            if name not in _LOCATION:
                self._offsets[name] = self._block_rows
                self._block_rows += rows
        # (operator, the cell axes it is applied on), in the order run()
        # binds: phase 1, then each distinct operator of the table
        own_cells, in_cells = cells + vel, cells_in + vel
        self._ops = [(s_trace, in_cells)] + [(op, own_cells) for op, _fm in s_faces]
        self._s_maps = [fm for _op, fm in s_faces]
        self._slot: List[Optional[int]] = []
        for ins in table:
            op = getattr(ins, "op", None)
            if op is None:
                self._slot.append(None)
                continue
            at = next((i for i, (o, _c) in enumerate(self._ops) if o is op), None)
            if at is None:
                at = len(self._ops)
                self._ops.append((op, own_cells))
            self._slot.append(at)
        self._plans = HeldPlans(self._ops)
        # the factors the compiled table's scale instructions read
        self._consts = np.array([ins.factor for ins in table if type(ins) is Scale], dtype=float)
        self._bound: tuple = ()
        self._call: Optional[tuple] = None
        self.obs_label = "plan_apply"
        #: which form the last call ran (``cc`` / ``numpy``)
        self.tier: Optional[str] = None
        #: threads the C cell loop splits over (bound with the call)
        self.threads = 1

    def block_shape(self, rows: int) -> Tuple[int, ...]:
        """A cell-major array of the own cells with ``rows`` rows per cell."""
        return self._cells + (int(rows),) + self._vel

    def _check(self, ins) -> None:
        """Reject an instruction the compiled table would mis-execute."""
        if type(ins) not in _OPCODE:
            raise ValueError(f"not a cell instruction: {ins!r}")
        names = [getattr(ins, k) for k in ("src", "dst", "block") if hasattr(ins, k)]
        unknown = [name for name in names if name not in self.rows]
        if unknown:
            raise ValueError(f"{type(ins).__name__} names no block {unknown[0]!r}")
        written = ins.block if type(ins) in (Faces, Scale) else ins.dst
        if written in _READ_ONLY or len(set(names)) != len(names):
            raise ValueError(f"{type(ins).__name__} writes {written!r} or reads what it writes")
        if type(ins) is Sweep and (ins.op.nin, ins.op.nout) != (self.rows[ins.src], self.rows[ins.dst]):
            raise ValueError(
                f"a {ins.op.nout} x {ins.op.nin} sweep does not map block "
                f"{ins.src!r} ({self.rows[ins.src]} rows) to {ins.dst!r} ({self.rows[ins.dst]})"
            )
        if type(ins) is Subtract and self.rows[ins.src] != self.rows[ins.dst]:
            raise ValueError("Subtract needs two blocks of equal rows")
        if type(ins) is Faces:
            fm, shape = ins.faces, self.block_shape(self.rows[ins.block])
            own = np.arange(self.ncfg)
            if (
                fm.wa is not None
                or fm.src_shape != shape
                or fm.dst_shape != shape
                or not fm.nf == ins.op.nin == ins.op.nout
                or not np.array_equal(fm.table, np.repeat(own[:, None], 5, axis=1))
            ):
                # the cell-local block is a one-cell trace buffer: every row
                # of the map must be the velocity faces of its own cell
                raise ValueError(
                    f"face map of {ins.block!r} must name each own cell's "
                    f"velocity faces once, in order, on {shape}"
                )

    # ------------------------------------------------------------------ #
    def run(
        self,
        f: np.ndarray,
        aux: Dict[str, AuxValue],
        out: Optional[np.ndarray] = None,
        stage: Optional[Stage] = None,
    ) -> np.ndarray:
        """``out = L(f)``, or with ``stage`` the stage's target (``out`` is
        then only the reference form's state-sized ``L`` buffer and may be
        omitted).  ``f`` is cell-major and carries the ghost cells the
        streaming maps read; ``out`` / ``stage.target`` / ``stage.u0`` are
        the own cells."""
        plans = self._plans(aux)
        if stage is None:
            key = (f, out, None, None, *plans)
        else:
            key = (f, out, stage.u0, stage.target, *plans)
        bound = self._bound
        if len(key) != len(bound) or not all(map(is_, key, bound)):
            self._bind(key, plans, stage)
        if _OBS.on:
            t0 = _perf_counter()
            res = self._run(f, aux, out, stage, plans)
            _OBS.finish(self.obs_label, t0, _S_PLAN_APPLIES, _S_PLAN_APPLY_MS)
            return res
        return self._run(f, aux, out, stage, plans)

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
        self.obs_label = joint_label(plans)
        compiled = f.flags.c_contiguous and all(plan.tier == "cc" for plan in plans)
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
        """``plans`` (in ``_ops`` order) as the streaming trace, the
        streaming fluxes and the plan of each table instruction."""
        nflux = len(self._s_maps)
        table = [None if at is None else plans[at] for at in self._slot]
        return plans[0], plans[1 : 1 + nflux], table

    def _bind_compiled(self, plans, f, out, stage) -> tuple:
        s_trace, s_flux, table_plans = self._split(plans)
        gs_in, gs = self._buffers()
        face_calls = [
            (plan._cc_faces, plan._bind_faces(gs_in, gs, fm))
            for plan, fm in zip(s_flux, self._s_maps)
        ]
        # one cell-local block (and cell of ``L``) per thread of the split
        # cell loop
        self.threads = cell_threads(
            self.ncfg, self.ncfg * (self._block_rows + self.num_basis) * self.nvel
        )
        block = self.pool.get("program.block", (self.threads, self._block_rows, self.nvel))
        loc = {**_LOCATION, **self._offsets}
        rows, scale = [], 0
        for ins, plan in zip(self.table, table_plans):
            kind = type(ins)
            if kind is Sweep:
                row = [loc[ins.src], loc[ins.dst], int(ins.accumulate), plan.nout,
                       len(plan._groups), plan._cc_table.ctypes.data]
            elif kind is Faces:
                fm, at = ins.faces, self._offsets[ins.block]
                if plan.cell_shape != fm.cell_shape:
                    raise ValueError("a velocity flux plan does not fit its face map")
                row = [at + fm.up, at + fm.dn, fm.nf, fm.shift, fm.extent,
                       len(plan._groups), plan._cc_table.ctypes.data]
            elif kind is Scale:
                row = [loc[ins.block], self.rows[ins.block], scale]
                scale += 1
            else:
                row = [loc[ins.dst], loc[ins.src], self.rows[ins.dst]]
            rows.append([_OPCODE[kind]] + row + [0] * (7 - len(row)))
        code = np.array(rows, dtype=np.int64)
        if stage is None:
            cell_out, u0, target = out, 0, 0
        else:
            cell_out = self.pool.get("program.cell", (self.threads, self.num_basis, self.nvel))
            u0 = 0 if stage.u0 is None else stage.u0.ctypes.data
            target = stage.target.ctypes.data
        head = (
            f.ctypes.data,
            0 if self._held is None else self._held.ctypes.data,
            cell_out.ctypes.data, self.ncfg, self.num_basis, self.nvel,
            gs.ctypes.data, self.ns, block.ctypes.data, self._block_rows * self.nvel,
            len(code), code.ctypes.data, self._consts.ctypes.data,
        )
        trace_call = (f.ctypes.data, gs_in.ctypes.data, 0, *s_trace._cc_tail)
        # the table's per-cell entries are formed inside cell_rhs, by the
        # thread that runs the cells; phase 1's (none in a Vlasov streaming
        # direction) before the call
        unique = list({id(plan): plan for plan in table_plans if plan is not None}.values())
        forms = np.concatenate([np.zeros(0, np.int64)] + [plan._cc_forms for plan in unique])
        formed = [(plan._cc_form, plan._cc_form_call) for plan in (s_trace, *s_flux) if plan._per_cell]
        # the code and the form table are kept alive beside the addresses
        # taken from them
        return (s_trace._cc, trace_call, face_calls, table_plans[0]._cc_cells, head,
                (u0, target, len(forms), forms.ctypes.data, self.threads), formed,
                (code, forms))

    # ------------------------------------------------------------------ #
    def _run(self, f, aux, out, stage, plans) -> np.ndarray:
        if self._call is None:
            self.tier = "numpy"
            return self._reference(f, aux, out, stage, plans)
        self.tier = "cc"
        sweep, trace_call, face_calls, cells, head, tail, formed, _keep = self._call
        for plan in self._plans.synced:
            plan._sync()
        for form, call in formed:
            form(*call)
        sweep(*trace_call)
        for faces, call in face_calls:
            faces(*call)
        if stage is None:
            cells(*head, 0, 0.0, 0.0, 0.0, 0, 0, *tail[2:])
            return out
        cells(*head, 2 if stage.combines else 1, stage.a, stage.b, stage.dt, *tail)
        return stage.target

    def _reference(self, f, aux, out, stage, plans) -> np.ndarray:
        """The table as state-sized passes over the same plans, then the
        stage arithmetic in the association of ``SSPRK3.step_inplace`` —
        the byte reference of the compiled program."""
        s_trace, s_flux, table_plans = self._split(plans)
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
        s_trace.run(aux, f, gs_in, False)
        for plan, fm in zip(s_flux, self._s_maps):
            plan.run_faces(aux, gs_in, gs, fm)
        arrays = {"f": f_own, "stream": gs, "out": out}
        for name in self._offsets:
            arrays[name] = pool.get(f"program.{name}", self.block_shape(self.rows[name]))
        run_passes(self.table, table_plans, arrays, aux)
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

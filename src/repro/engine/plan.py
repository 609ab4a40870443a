"""Compiled execution plans for generated kernels — cell-major native.

A :class:`~repro.kernels.termset.TermSet` names its runtime factors
symbolically; *how* to evaluate it efficiently depends on where each factor
varies.  An :class:`ExecutionPlan` performs that analysis once — against an
**aux signature**, the classification of every symbol as scalar (``s``),
configuration-varying (``c``), velocity-varying (``v``) or irregular
(``x``) — and freezes the result into a flat program, its one executor:

* terms are grouped by their velocity factor and each group is **merged
  into one sparse sweep** over a per-cell CSR pattern — the update stays the
  paper's matrix-free contraction ``Σ C_lmn α_n f_m`` at a cost proportional
  to the exact non-zero count; no ``Np x Np`` operator is ever formed;
* a group without configuration dependence sweeps **one row of entries
  shared by every cell**: the terms' blocks are concatenated row-wise in
  term order with the scalar factors folded into the data, so the
  per-output-element accumulation sequence is entry for entry that of
  applying the terms one after another (the sha256 goldens in
  ``tests/test_plan_compile.py`` pin it);
* a group with configuration-varying factors (the acceleration kernels'
  modal field coefficients) sweeps **one row per configuration cell** on the
  union of its terms' exact non-zeros; per application one gather plus one
  broadcast multiply fills the coefficient rows and one small product
  ``data[c] = Σ_i coef_i[c] K_i`` against the term stack restricted to that
  union refills the rows;
* symbols varying on both cell groups fall back to the exact sparse
  reference path (:meth:`TermSet.apply_cm`).

The executor's single variation point is the **sparse-sweep kernel**
(:func:`repro.cas.codegen.select_tier`): the compiled C sweep, one call per
apply covering every group with the velocity weighting done in-register and
the accumulators held in registers across all of an output row's entries,
when a C compiler is present and the build succeeds (``cc``); otherwise
scipy's ``csr_matvecs`` over the block-diagonal expansion of the same
groups (``numpy``) — built only in that case.  Both sweep the same entries
in the same order and produce the same bits.  The kernel has a second entry
point over the same groups, :meth:`ExecutionPlan.apply_faces`: an ``nf x
nf`` flux plan applied across the faces of one phase direction — per face of
a :class:`~repro.engine.faces.FaceMap`, gather the two trace slots that meet
there into the face state, sweep, scatter the flux to both slots — in the compiled kernel
(``face_flux``) a tile of velocity cells at a time with nothing state-sized
in between, in the numpy tier as array passes around the same
``csr_matvecs`` groups, which is the byte-for-byte reference.  The tier fork
stays inside the plan; callers see one method per entry point.  The third
entry point runs several plans' group tables at once, one configuration
cell at a time: :class:`~repro.engine.program.CellProgram`, which binds
plans through :meth:`ExecutionPlan._ready` / :meth:`~ExecutionPlan._refresh`
and calls their untimed ``_run`` / ``_run_faces`` bodies as its reference.

Everything shape-dependent is prebound when the plan is built (scratch
buffers, reshaped views, the C argument vector), and
runtime symbol values are **bound under an identity guard**: the same aux
value objects arriving again (every RK stage of every step) skip all
dictionary walking and scalar evaluation.  Arrays are bound as views, and
scalars held in mutable size-one arrays are re-read on every apply, so
in-place parameter mutation is always seen.

State is **cell-major** (:mod:`repro.engine.layout`): ``fin``/``out`` are
``(*cfg_cells, n, *vel_cells)``, whose C-contiguous view *is* the
``(ncfg, n, nvel)`` batch the sweeps consume.  Besides their sweep entries
plans hold only references into a shared
:class:`~repro.engine.pool.ScratchPool`, so steady-state application
allocates nothing and copies nothing: the one normalizing copy (a
non-contiguous ``fin``) is reported through
:meth:`ScratchPool.record_layout_copy`, which the copy-assert tests turn
into a hard failure.  A plan is only valid for the signature and cell shape
it was compiled against; :class:`~repro.kernels.grouped.GroupedOperator`
keys its plan cache on both, which is what fixes the historical stale-plan
hazard.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..cas.codegen import compile_fused_sweep, select_tier
from ..kernels.termset import AuxValue, Symbol, TermSet, csr_accumulate, symbol_value
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from .faces import FaceMap
from .plancache import ARTIFACT_VERSION
from .pool import ScratchPool

__all__ = [
    "classify_aux_value",
    "aux_signature",
    "plan_digest",
    "ExecutionPlan",
    "PlanSignatureError",
]

_S_PLAN_APPLIES = _OBS_SLOT["plan_applies"]
_S_PLAN_APPLY_MS = _OBS_SLOT["plan_apply_ms"]

Signature = Tuple[Tuple[str, str], ...]


class PlanSignatureError(ValueError):
    """An ExecutionPlan was applied to aux it was not compiled for."""


def classify_aux_value(val: AuxValue, cdim: int, vdim: int) -> str:
    """Classify one runtime symbol value: ``s`` scalar/constant, ``c``
    configuration-varying, ``v`` velocity-varying, ``x`` irregular (varies on
    both, or does not span the phase axes)."""
    if type(val) is float or np.isscalar(val):
        return "s"
    arr = np.asarray(val)
    if arr.ndim == 0:
        return "s"
    if arr.ndim != cdim + vdim:
        return "x"
    varies_cfg = any(s > 1 for s in arr.shape[:cdim])
    varies_vel = any(s > 1 for s in arr.shape[cdim:])
    if varies_cfg and varies_vel:
        return "x"
    if varies_cfg:
        return "c"
    if varies_vel:
        return "v"
    return "s"


def aux_signature(
    names: Sequence[str], aux: Dict[str, AuxValue], cdim: int, vdim: int
) -> Signature:
    """Classification signature of ``aux`` restricted to ``names``.

    Two aux dicts with equal signatures are interchangeable under the same
    compiled plan (values may differ; layout may not).
    """
    out = []
    for name in names:
        try:
            val = aux[name]
        except KeyError as exc:
            raise KeyError(
                f"kernel symbol {name!r} missing from aux (have: {sorted(aux)})"
            ) from exc
        out.append((name, classify_aux_value(val, cdim, vdim)))
    return tuple(out)


def plan_digest(
    termset: TermSet,
    cdim: int,
    vdim: int,
    signature: Signature,
    cell_shape: Tuple[int, ...],
) -> str:
    """Content digest of one compiled-plan identity.

    Hashes exactly the inputs plan compilation is a pure function of — the
    termset's symbolic entries (coefficients bit-exact via ``float.hex``),
    the phase split, the aux signature, and the cell shape — plus the
    artifact format version, so a layout change invalidates every cached
    entry.  Two plans with equal digests compile to identical artifacts.
    """
    h = hashlib.sha256()
    head = {
        "format": ARTIFACT_VERSION,
        "cdim": int(cdim),
        "vdim": int(vdim),
        "nout": termset.nout,
        "nin": termset.nin,
        "cell_shape": [int(n) for n in cell_shape],
        "signature": [[name, tok] for name, tok in signature],
    }
    h.update(json.dumps(head, sort_keys=True).encode())
    for sym, triples in sorted(termset.entries_by_symbol().items()):
        h.update(repr(tuple(sym)).encode())
        for l, m, coeff in triples:
            h.update(f"{l},{m},{float(coeff).hex()};".encode())
    return h.hexdigest()


def _scalar_value(val: AuxValue) -> float:
    if type(val) is float or np.isscalar(val):
        return float(val)
    arr = np.asarray(val)
    # constant arrays classified "s" are size one in every axis
    return float(arr.reshape(-1)[0])


class _SweepGroup:
    """The terms sharing one velocity factor as a single sparse sweep: a
    per-cell CSR pattern plus its entries — one row shared by every
    configuration cell (no configuration symbol: scalar factors folded in at
    bind time), or one row per configuration cell, refilled on every apply
    from the bound field coefficients."""

    __slots__ = (
        "vel_names",
        "per_cell",
        "terms",     # [(scalar names, cfg names)], in term order
        "indptr",    # per-cell pattern (int64, the C sweep's index type)
        "indices",
        "base",      # shared row: the terms' entries concatenated row-wise ...
        "tid",       # ... and the term index of each
        "stack",     # per-cell rows: (n_terms, nnz) term values on the union
                     # of the terms' exact non-zeros
        "data",      # the swept entries: (1, nnz) shared, (ncfg, nnz) per-cell
                     # (numpy tier: always (ncfg, nnz), the expansion's data)
        "spmat",     # numpy tier: block-diagonal expansion over cells
        "coef",      # per-cell: pooled (n_terms, ncfg) coefficient buffer ...
        "coef_t",    # ... its transpose, the assembly operand ...
        "flat",      # ... and its flattening, the gather destination
        "scal",      # (n_terms, 1) per-term scalar products
        "extras",    # [(term index, (further cfg names...))], multi-factor terms
        "rows",      # bound per-term cfg rows ((ncfg,) views)
        "volatile",  # some row is a copy, not a view: re-gather every apply
    )

    def __init__(self, vel_names: Tuple[str, ...], per_cell: bool):
        self.vel_names = vel_names
        self.per_cell = per_cell
        self.terms: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        self.base = self.tid = self.stack = self.spmat = None

    def merge(self, mats: List[sp.csr_matrix], nout: int, nin: int) -> None:
        """Freeze the terms' per-cell blocks into one pattern.

        A shared row concatenates the blocks row-wise in term order: within
        each output row the merged entries replay term 0's additions, then
        term 1's, ... — exactly the sequence of one sweep per term.  Per-cell
        rows are linear combinations of the terms, so they live on the union
        of the terms' non-zeros (row-major, columns ascending) and ``stack``
        holds each term's values there.
        """
        rows = np.concatenate(
            [np.repeat(np.arange(nout), np.diff(m.indptr)) for m in mats]
        )
        cols = np.concatenate([m.indices for m in mats]).astype(np.int64)
        vals = np.concatenate([m.data for m in mats])
        tid = np.concatenate([np.full(m.nnz, t) for t, m in enumerate(mats)])
        if self.per_cell:
            slots, where = np.unique(rows * nin + cols, return_inverse=True)
            self.stack = np.zeros((len(mats), slots.size))
            self.stack[tid, where] = vals
            rows, self.indices = np.divmod(slots, nin)
        else:
            order = np.argsort(rows, kind="stable")
            self.indices, self.base, self.tid = cols[order], vals[order], tid[order]
        self.indptr = np.zeros(nout + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nout), out=self.indptr[1:])

    def check(self, nout: int, nin: int) -> None:
        """Reject a stored group that is not a well-formed pattern: the C
        sweep trusts ``indptr`` / ``indices`` and would read out of bounds."""
        nnz = self.indices.size
        ok = (
            self.indptr.shape == (nout + 1,)
            and self.indptr[0] == 0
            and self.indptr[-1] == nnz
            and (np.diff(self.indptr) >= 0).all()
            and (nnz == 0 or (self.indices.min() >= 0 and self.indices.max() < nin))
        )
        if self.per_cell:
            ok = ok and self.stack.shape == (len(self.terms), nnz)
        else:
            ok = (
                ok
                and self.base.shape == self.tid.shape == (nnz,)
                and (nnz == 0 or (self.tid.min() >= 0 and self.tid.max() < len(self.terms)))
            )
        if not ok:
            raise ValueError("stored plan artifacts are not a consistent sweep group")

    def lower(self, pool: ScratchPool, ncfg: int, nout: int, nin: int, expand: bool) -> None:
        """Allocate the swept entries.  Per-cell rows are all live at the one
        kernel call, so every group owns its own (a pooled, shape-keyed
        buffer would alias between groups of equal shape).  With ``expand``
        (the numpy tier) they are the data of the block-diagonal expansion
        over configuration cells, so one ``csr_matvecs`` call sweeps every
        cell's contiguous block; it is built from the raw arrays —
        ``sp.kron`` would canonicalize (sort, merge duplicates) and destroy
        the accumulation order of :meth:`merge`."""
        nnz = self.indices.size
        if expand:
            cells = np.arange(ncfg, dtype=np.int64)[:, None]
            self.spmat = sp.csr_matrix(
                (
                    np.empty(ncfg * nnz),
                    (self.indices + cells * nin).ravel(),
                    np.append(0, (self.indptr[1:] + cells * nnz).ravel()),
                ),
                shape=(ncfg * nout, ncfg * nin),
            )
            self.data = self.spmat.data.reshape(ncfg, nnz)
        else:
            self.data = np.empty((ncfg if self.per_cell else 1, nnz))
        if not self.per_cell:
            self.data[:] = self.base
            return
        self.coef = pool.get("plan.coef", (len(self.terms), ncfg))
        self.coef_t = self.coef.T
        self.flat = self.coef.reshape(-1)
        self.scal = np.ones((len(self.terms), 1))
        self.extras = [
            (i, cfg_names[1:])
            for i, (_sn, cfg_names) in enumerate(self.terms)
            if len(cfg_names) > 1
        ]
        self.rows: List[np.ndarray] = []
        self.volatile = False

    def rescale(self, svals: Dict[str, float]) -> None:
        """Shared row: fold the current scalar factor values into the sweep
        data — per entry ``base * c_term``."""
        if any(names for names, _cn in self.terms):
            scale = np.array([symbol_value(svals, names) for names, _cn in self.terms])
            np.multiply(self.base, scale[self.tid], out=self.data)

    def bind(self, plan: "ExecutionPlan", aux, svals: Dict[str, float]) -> None:
        self.rows = [plan._cfg_row(aux[cn[0]]) for _sn, cn in self.terms]
        # broadcast-expanded rows are snapshots; they must be re-gathered
        # per apply to track in-place aux mutation
        self.volatile = not all(
            np.shares_memory(row, np.asarray(aux[cn[0]]))
            for row, (_sn, cn) in zip(self.rows, self.terms)
        )
        for i, (scalar_names, _cn) in enumerate(self.terms):
            self.scal[i, 0] = symbol_value(svals, scalar_names)

    def assemble(self, plan: "ExecutionPlan", aux) -> None:
        """Per-cell rows ``data[c] = Σ_i coef_i[c] · stack_i``: one gather and
        one broadcast multiply fill the coefficient rows ``row * c``, one
        small product combines the terms — a NumPy step both tiers share, so
        both sweep the same entries."""
        if self.volatile:
            rows = [plan._cfg_row(aux[cn[0]]) for _sn, cn in self.terms]
        else:
            rows = self.rows
        coef = self.coef
        np.concatenate(rows, out=self.flat)
        np.multiply(coef, self.scal, out=coef)
        for i, extra_names in self.extras:
            for name in extra_names:
                coef[i] *= plan._cfg_row(aux[name])
        np.matmul(self.coef_t, self.stack, out=self.data)


class ExecutionPlan:
    """A TermSet compiled against one (aux signature, cell shape) pair.

    ``obs_label`` is the span label applications record under when tracing
    (:mod:`repro.obs`); :func:`repro.engine.compile.compile_plan` rebinds it
    to ``plan_apply:<digest12>`` so traces attribute time to plans.

    Parameters
    ----------
    termset:
        The generated kernel.
    cdim, vdim:
        Phase-space split defining the configuration/velocity cell axes.
    aux:
        A representative aux dict; only its *signature* (classification of
        each symbol) is baked in, never its values.
    cell_shape:
        The ``(*cfg_cells, *vel_cells)`` axes of the states this plan will
        be applied to (the basis axis sits between them at runtime);
        scratch buffers are sized for it.
    pool:
        Shared scratch arena.
    tier, kernel_dir:
        Sparse-sweep kernel request (``auto`` / ``cc`` / ``numpy``, see
        :func:`repro.cas.codegen.select_tier`) and where compiled sweep
        kernels are kept (None: a process-lifetime temp dir).  ``tier`` and
        ``kernel_status`` (``built`` / ``loaded`` / ``failed`` / None)
        report the outcome.
    on_compiled:
        Called with the plan once its sweep groups exist
        (:meth:`to_artifacts` works) and before the sweep kernel is built —
        where :func:`~repro.engine.compile.compile_plan` publishes the
        payload, so sibling workers racing on a cold cache see it without
        waiting out a C compile.
    """

    obs_label = "plan_apply"

    def __init__(
        self,
        termset: TermSet,
        cdim: int,
        vdim: int,
        aux: Dict[str, AuxValue],
        cell_shape: Tuple[int, ...],
        pool: Optional[ScratchPool] = None,
        tier: str = "auto",
        kernel_dir: Optional[str] = None,
        on_compiled: Optional[Callable[["ExecutionPlan"], None]] = None,
    ):
        self._setup(termset, cdim, vdim, aux, cell_shape, pool)
        self._compile(dict(self.signature))
        if on_compiled is not None:
            on_compiled(self)
        self._lower(tier, kernel_dir)

    def _setup(
        self,
        termset: TermSet,
        cdim: int,
        vdim: int,
        aux: Dict[str, AuxValue],
        cell_shape: Tuple[int, ...],
        pool: Optional[ScratchPool],
    ) -> None:
        self.termset = termset
        self.cdim = int(cdim)
        self.vdim = int(vdim)
        self.nout = termset.nout
        self.nin = termset.nin
        self.cell_shape = tuple(cell_shape)
        self.cfg_shape = self.cell_shape[: self.cdim]
        self.vel_shape = self.cell_shape[self.cdim :]
        self.ncfg = int(np.prod(self.cfg_shape)) if self.cfg_shape else 1
        self.nvel = int(np.prod(self.vel_shape)) if self.vel_shape else 1
        self.ncells = self.ncfg * self.nvel
        self.in_shape = self.cfg_shape + (self.nin,) + self.vel_shape
        self.out_shape = self.cfg_shape + (self.nout,) + self.vel_shape
        self.pool = pool if pool is not None else ScratchPool()
        self.names = sorted({n for sym in termset.entries_by_symbol() for n in sym})
        self.signature = aux_signature(self.names, aux, self.cdim, self.vdim)

    @classmethod
    def from_artifacts(
        cls,
        termset: TermSet,
        cdim: int,
        vdim: int,
        aux: Dict[str, AuxValue],
        cell_shape: Tuple[int, ...],
        meta: dict,
        arrays: Dict[str, np.ndarray],
        pool: Optional[ScratchPool] = None,
        tier: str = "auto",
        kernel_dir: Optional[str] = None,
    ) -> "ExecutionPlan":
        """Rebuild a plan from serialized artifacts instead of compiling.

        The stored metadata must match the identity this plan would compile
        to (signature, shapes); mismatches raise ``ValueError`` so callers
        treat stale payloads as cache misses.  Hydration skips the symbol
        analysis of ``_compile`` and is bit-identical to a fresh compile.
        """
        self = cls.__new__(cls)
        self._setup(termset, cdim, vdim, aux, cell_shape, pool)
        self._hydrate(meta, arrays)
        self._lower(tier, kernel_dir)
        return self

    # ------------------------------------------------------------------ #
    def _compile(self, tokens: Dict[str, str]) -> None:
        groups: Dict[Tuple[bool, Tuple[str, ...]], _SweepGroup] = {}
        mats: Dict[Tuple[bool, Tuple[str, ...]], List[sp.csr_matrix]] = {}
        fallback: Dict[Symbol, list] = {}
        for sym, triples in self.termset.entries_by_symbol().items():
            scalar_names, cfg_names, vel_names = [], [], []
            irregular = False
            for name in sym:
                tok = tokens[name]
                if tok == "x":
                    irregular = True
                    break
                (scalar_names if tok == "s" else cfg_names if tok == "c" else vel_names).append(name)
            if irregular:
                fallback[sym] = triples
                continue
            key = (bool(cfg_names), tuple(sorted(vel_names)))
            rows = np.array([t[0] for t in triples], dtype=np.int64)
            cols = np.array([t[1] for t in triples], dtype=np.int64)
            vals = np.array([t[2] for t in triples], dtype=float)
            grp = groups.get(key)
            if grp is None:
                grp = groups[key] = _SweepGroup(key[1], key[0])
                mats[key] = []
            grp.terms.append((tuple(scalar_names), tuple(cfg_names)))
            mats[key].append(
                sp.csr_matrix((vals, (rows, cols)), shape=(self.nout, self.nin))
            )
        for key, grp in groups.items():
            grp.merge(mats[key], self.nout, self.nin)
        self._groups = list(groups.values())
        self._fallback = (
            TermSet(self.nout, self.nin, fallback) if fallback else None
        )

    # ------------------------------------------------------------------ #
    def to_artifacts(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Serialize the compiled sweep groups to ``(meta, arrays)``.

        The payload holds what ``_compile`` produces that is non-trivial
        to rebuild: per group the merged per-cell pattern and its values —
        the concatenated entries with their term index (shared row) or the
        term stack on the union pattern (per-cell rows).  Symbol structure
        and the fallback's entries come back from the termset, which the
        loader always has in hand.
        """
        meta: dict = {
            "nout": self.nout,
            "nin": self.nin,
            "cdim": self.cdim,
            "vdim": self.vdim,
            "cell_shape": [int(n) for n in self.cell_shape],
            "signature": [[name, tok] for name, tok in self.signature],
            "groups": [],
            "fallback_syms": [],
        }
        arrays: Dict[str, np.ndarray] = {}
        for gi, grp in enumerate(self._groups):
            meta["groups"].append(
                {
                    "vel_names": list(grp.vel_names),
                    "per_cell": grp.per_cell,
                    "terms": [[list(sn), list(cn)] for sn, cn in grp.terms],
                }
            )
            arrays[f"g{gi}p"] = grp.indptr
            arrays[f"g{gi}i"] = grp.indices
            if grp.per_cell:
                arrays[f"g{gi}s"] = grp.stack
            else:
                arrays[f"g{gi}b"] = grp.base
                arrays[f"g{gi}t"] = grp.tid
        if self._fallback is not None:
            meta["fallback_syms"] = [
                list(sym) for sym in self._fallback.entries_by_symbol()
            ]
        return meta, arrays

    def _hydrate(self, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
        """Rebuild the compiled state from :meth:`to_artifacts` output."""
        if (
            meta.get("nout") != self.nout
            or meta.get("nin") != self.nin
            or meta.get("cdim") != self.cdim
            or meta.get("vdim") != self.vdim
            or tuple(meta.get("cell_shape", ())) != self.cell_shape
            or tuple(tuple(p) for p in meta.get("signature", ()))
            != self.signature
        ):
            raise ValueError("stored plan artifacts do not match this plan key")
        entries = self.termset.entries_by_symbol()
        self._groups = []
        for gi, gmeta in enumerate(meta["groups"]):
            grp = _SweepGroup(tuple(gmeta["vel_names"]), bool(gmeta["per_cell"]))
            grp.terms = [(tuple(sn), tuple(cn)) for sn, cn in gmeta["terms"]]
            grp.indptr = np.ascontiguousarray(arrays[f"g{gi}p"], dtype=np.int64)
            grp.indices = np.ascontiguousarray(arrays[f"g{gi}i"], dtype=np.int64)
            if grp.per_cell:
                grp.stack = np.ascontiguousarray(arrays[f"g{gi}s"], dtype=float)
            else:
                grp.base = np.ascontiguousarray(arrays[f"g{gi}b"], dtype=float)
                grp.tid = np.ascontiguousarray(arrays[f"g{gi}t"], dtype=np.int64)
            grp.check(self.nout, self.nin)
            self._groups.append(grp)
        fb_syms = [tuple(sym) for sym in meta.get("fallback_syms", [])]
        if fb_syms:
            self._fallback = TermSet(
                self.nout, self.nin, {sym: entries[sym] for sym in fb_syms}
            )
        else:
            self._fallback = None

    # ------------------------------------------------------------------ #
    def _lower(self, tier: str, kernel_dir: Optional[str]) -> None:
        """Freeze the executor over the compiled groups: pick the sweep
        kernel, allocate the swept entries, prebind scratch and views."""
        pool = self.pool
        # identity guard over every symbol value; scalar values held in
        # mutable size-one arrays are re-read per apply (cheap) so in-place
        # mutation stays visible — immutable Python numbers are guarded by
        # identity alone
        self._scalar_names = [n for n, tok in self.signature if tok == "s"]
        self._guard_names = [
            n for n, tok in self.signature if tok != "s"
        ] + self._scalar_names
        self._bound_ids: Optional[List[object]] = None  # None: never bound
        self._bound_svals: Optional[Tuple[float, ...]] = None
        self._cc = kern = None
        self.tier = "numpy"
        self.kernel_status: Optional[str] = None
        if select_tier(tier) == "cc":
            kern = compile_fused_sweep(kernel_dir)
            if kern is None:
                self.kernel_status = "failed"
            else:
                self._cc, self._cc_faces, self._cc_cells = kern.fn, kern.faces, kern.cells
                self.tier = "cc"
                self.kernel_status = "built" if kern.fresh else "loaded"
        for grp in self._groups:
            grp.lower(pool, self.ncfg, self.nout, self.nin, expand=kern is None)
        self._per_cell = [g for g in self._groups if g.per_cell]
        self._gbufs: Dict[Tuple[str, ...], Tuple[np.ndarray, np.ndarray]] = {}
        if kern is not None:
            # the kernel's group table (one row per group: entries, per-cell
            # stride, indptr, indices, weight — addresses of arrays the
            # groups keep alive); a weighted group gets a contiguous weight
            # buffer refreshed from the bound velocity factor before each
            # call, the weighting itself happens in-register
            table = np.zeros((len(self._groups), 5), dtype=np.int64)
            self._cc_wbufs = {
                g.vel_names: np.empty(self.vel_shape)
                for g in self._groups
                if g.vel_names
            }
            for row, grp in zip(table, self._groups):
                row[0] = grp.data.ctypes.data
                row[1] = grp.data.shape[1] if grp.per_cell else 0
                row[2] = grp.indptr.ctypes.data
                row[3] = grp.indices.ctypes.data
                if grp.vel_names:
                    row[4] = self._cc_wbufs[grp.vel_names].ctypes.data
            self._cc_table = table
            self._cc_tail = (
                self.ncfg, self.nout, self.nin, self.nvel,
                len(self._groups), table.ctypes.data,
            )
        else:
            # velocity-weighted input buffers, one per distinct factor key
            # (the C sweep weights in-register instead)
            for names in {g.vel_names for g in self._groups} - {()}:
                g = pool.get(f"plan.g:{'*'.join(names)}", self.in_shape)
                self._gbufs[names] = (g, self._sweep_view(g, self.nin))
        # per-array reshape memos (bounded; entries pin their array alive,
        # which is fine — callers pass persistent state/pool arrays)
        self._fviews: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._oviews: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # the face map and buffers of the last apply_faces and, for those,
        # the checked and prebound call (see _bind_faces)
        self._face_call: tuple = (None, None, None, None)

    def _sweep_view(self, arr: np.ndarray, n: int) -> np.ndarray:
        """The ``(ncfg * n, nvel)`` view of a contiguous cell-major array
        the block-diagonal sweeps consume."""
        return arr.reshape(self.ncfg * n, self.nvel)

    def _view_of(self, arr, memo, n) -> np.ndarray:
        entry = memo.get(id(arr))
        if entry is None or entry[0] is not arr:
            if len(memo) > 16:
                memo.clear()
            entry = memo[id(arr)] = (arr, self._sweep_view(arr, n))
        return entry[1]

    # ------------------------------------------------------------------ #
    def ensure_signature(self, aux: Dict[str, AuxValue]) -> None:
        """Raise :class:`PlanSignatureError` if ``aux`` no longer matches the
        signature this plan was compiled against."""
        sig = aux_signature(self.names, aux, self.cdim, self.vdim)
        if sig != self.signature:
            changed = [
                f"{name}: {dict(self.signature)[name]!r} -> {tok!r}"
                for name, tok in sig
                if dict(self.signature)[name] != tok
            ]
            raise PlanSignatureError(
                "aux layout changed since this plan was compiled "
                f"({'; '.join(changed)}); rebuild the plan"
            )

    def _cfg_row(self, val: AuxValue) -> np.ndarray:
        """A configuration-varying factor flattened to ``(ncfg,)`` —
        a view in the standard layout ``cfg_cells + (1,)*vdim``."""
        arr = np.asarray(val)
        if arr.shape[: self.cdim] == self.cfg_shape:
            return arr.reshape(self.ncfg)
        return np.broadcast_to(
            arr, self.cfg_shape + (1,) * self.vdim
        ).reshape(self.ncfg)

    # ------------------------------------------------------------------ #
    def _bind(self, aux: Dict[str, AuxValue]) -> None:
        """Bind the runtime symbol values of ``aux`` into the program."""
        svals = {n: _scalar_value(aux[n]) for n in self._scalar_names}
        stuple = tuple(svals.values())
        if stuple != self._bound_svals:
            for grp in self._groups:
                if not grp.per_cell:
                    grp.rescale(svals)
            self._bound_svals = stuple
        for grp in self._per_cell:
            grp.bind(self, aux, svals)
        self._vol_scalar_names = tuple(
            n for n in self._scalar_names if not isinstance(aux[n], (float, int))
        )
        self._bound_vsvals = tuple(svals[n] for n in self._vol_scalar_names)
        # velocity factors, shaped over the cell axes with the basis axis
        # inserted: a single-name factor is a reshaped *view* of its aux
        # array (fresh under in-place mutation); a multi-name product gets a
        # buffer that every apply recomputes in place
        self._velb, self._vel_products = {}, []
        for grp in self._groups:
            names = grp.vel_names
            if not names or names in self._velb:
                continue
            vals = [np.asarray(aux[n]) for n in names]
            prod = vals[0]
            if len(vals) > 1:
                prod = np.empty(np.broadcast_shapes(*(v.shape for v in vals)))
                self._vel_products.append((vals, prod))
            self._velb[names] = prod.reshape(
                prod.shape[: self.cdim] + (1,) + prod.shape[self.cdim :]
            )
        if self._cc is not None:
            # broadcast views of the bound factors, flattened into the
            # contiguous weight buffers before every call
            self._cc_weights = []
            for names, wbuf in self._cc_wbufs.items():
                velb = self._velb[names]
                wsrc = velb.reshape(velb.shape[self.cdim + 1 :])
                self._cc_weights.append(
                    (np.broadcast_to(wsrc, self.vel_shape), wbuf)
                )
        self._bound_ids = [aux[n] for n in self._guard_names]

    def apply(
        self,
        fin: np.ndarray,
        aux: Dict[str, AuxValue],
        out: np.ndarray,
        accumulate: bool = True,
    ) -> np.ndarray:
        """Accumulate the kernel action into ``out``.

        ``fin`` is cell-major ``(*cfg_cells, nin, *vel_cells)`` and ``out``
        cell-major ``(*cfg_cells, nout, *vel_cells)``; ``out`` must be
        C-contiguous (it is accumulated in place), and a non-contiguous
        ``fin`` incurs one audited normalizing copy.

        With ``accumulate=False`` the prior contents of ``out`` are
        discarded (``out = K f`` rather than ``out += K f``) without the
        caller having to zero it — the sweep's accumulators start at zero.
        """
        self._guard(aux)
        return self.apply_trusted(fin, aux, out, accumulate)

    def _guard(self, aux: Dict[str, AuxValue]) -> None:
        """Rebind when ``aux`` holds other value objects than last time."""
        bound = self._bound_ids
        if bound is not None and not all(
            aux[n] is b for n, b in zip(self._guard_names, bound)
        ):
            self._bind(aux)

    def apply_trusted(
        self,
        fin: np.ndarray,
        aux: Dict[str, AuxValue],
        out: np.ndarray,
        accumulate: bool = True,
    ) -> np.ndarray:
        """:meth:`apply`, skipping the aux identity scan.

        The caller asserts that every aux value object is identical to the
        previous application through this plan — which is exactly what
        :class:`~repro.kernels.grouped.GroupedOperator`'s value-identity
        fast path already established, so re-scanning here would be pure
        overhead.  Mutable scalar values are still re-read.
        """
        return self._timed(self._run, aux, fin, out, accumulate)

    def apply_faces(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        face_map: FaceMap,
        aux: Dict[str, AuxValue],
        penalty: Optional[float] = None,
        trusted: bool = False,
    ) -> np.ndarray:
        """Apply this ``nf x nf`` flux operator across the faces of one
        phase direction: per face of ``face_map``, gather its state from two
        trace slots of ``src``, apply the operator, and overwrite the face's
        two slots in ``dst`` with the flux (see
        :class:`~repro.engine.faces.FaceMap`).

        ``src`` and ``dst`` are C-contiguous trace buffers of the map's
        shapes and may be the same array when the map is ``in_place``.  With
        ``penalty`` (acceleration directions) the jump ``(A - B) * penalty``
        is added to the flux of interior faces.  ``trusted`` skips the aux
        identity scan as :meth:`apply_trusted` does.  One application counts
        and is traced as one apply of this plan.
        """
        if not trusted:
            self._guard(aux)
        return self._timed(self._run_faces, aux, src, dst, face_map, penalty)

    def _ready(self, aux: Dict[str, AuxValue]) -> None:
        """Rebind if never bound or a mutable scalar moved."""
        if self._bound_ids is None or (
            self._vol_scalar_names
            and tuple(_scalar_value(aux[n]) for n in self._vol_scalar_names)
            != self._bound_vsvals
        ):
            self._bind(aux)

    def _timed(self, run, aux: Dict[str, AuxValue], *args) -> np.ndarray:
        """One application: ``run`` on the bound values, under the plan's
        span and apply count."""
        self._ready(aux)
        if _OBS.on:
            t0 = _perf_counter()
            out = run(aux, *args)
            _OBS.finish(self.obs_label, t0, _S_PLAN_APPLIES, _S_PLAN_APPLY_MS)
            return out
        return run(aux, *args)

    def _refresh(self, aux: Dict[str, AuxValue]) -> None:
        """Bring the swept entries and velocity factors up to the bound aux
        values' current contents."""
        for vals, prod in self._vel_products:
            np.multiply(vals[0], vals[1], out=prod)
            for val in vals[2:]:
                np.multiply(prod, val, out=prod)
        for grp in self._per_cell:
            grp.assemble(self, aux)
        if self._cc is not None:
            for wsrc, wbuf in self._cc_weights:
                np.copyto(wbuf, wsrc)

    def _run(self, aux, fin, out, accumulate: bool) -> np.ndarray:
        if fin.shape != self.in_shape:
            raise ValueError(
                f"plan compiled for input {self.in_shape}, got {fin.shape}"
            )
        if out.shape != self.out_shape:
            raise ValueError(
                f"plan compiled for output {self.out_shape}, got {out.shape}"
            )
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous (accumulated in place)")
        if not fin.flags.c_contiguous:
            # cell-major callers hand contiguous state everywhere in steady
            # state; this normalizing copy only fires on exotic inputs and
            # is audited so the copy-assert tests can prove it never runs
            pool = self.pool
            pool.record_layout_copy("plan.fcontig", fin.shape)
            fcontig = pool.get("plan.fcontig", fin.shape)
            np.copyto(fcontig, fin)
            fin = fcontig
        self._refresh(aux)
        if self._cc is not None:
            # one call: every group, the weighting in-register, and with
            # accumulate off the accumulators start at zero, so ``out`` is
            # neither read nor pre-zeroed
            self._cc(fin.ctypes.data, out.ctypes.data, accumulate, *self._cc_tail)
        else:
            self._sweep_numpy(fin, out, accumulate)
        if self._fallback is not None:
            self._fallback.apply_cm(fin, aux, out, self.cdim)
        return out

    def _sweep_numpy(self, fin, out, accumulate: bool) -> None:
        """The numpy tier's sweep: one ``csr_matvecs`` per group over the
        block-diagonal expansion."""
        if not accumulate:
            out.fill(0.0)
        f2 = self._view_of(fin, self._fviews, self.nin)
        o2 = self._view_of(out, self._oviews, self.nout)
        # velocity-weighted states, computed once per distinct factor
        # and shared between the groups reading the same ``f * w_j``
        wcache: Dict[Tuple[str, ...], np.ndarray] = {}
        for grp in self._groups:
            x2 = self._weighted(grp.vel_names, fin, wcache) if grp.vel_names else f2
            csr_accumulate(grp.spmat, grp.spmat.data, x2, o2)

    def _weighted(
        self,
        names: Tuple[str, ...],
        fin: np.ndarray,
        wcache: Dict[Tuple[str, ...], np.ndarray],
    ) -> np.ndarray:
        """The sweep view of the weighted input ``fin * w``, computed at most
        once per factor key within one apply."""
        x2 = wcache.get(names)
        if x2 is None:
            buf, x2 = self._gbufs[names]
            np.multiply(fin, self._velb[names], out=buf)
            wcache[names] = x2
        return x2

    # ------------------------------------------------------------------ #
    def _bind_faces(self, src, dst, fm: FaceMap) -> Optional[tuple]:
        """Check ``fm`` and the two buffers against this plan — the compiled
        kernel trusts all of it — and prebind its call (None on the numpy
        tier); redone only when another map or buffer arrives."""
        if self._fallback is not None:
            raise ValueError("a plan with irregular symbols has no face form")
        if fm.cell_shape != self.cell_shape or not fm.nf == self.nin == self.nout:
            raise ValueError(
                f"face map for cells {fm.cell_shape}, {fm.nf} face modes; plan "
                f"compiled for {self.cell_shape}, {self.nout} x {self.nin}"
            )
        for name, arr, shape in (("src", src, fm.src_shape), ("dst", dst, fm.dst_shape)):
            if arr.shape != shape or arr.dtype != np.float64 or not arr.flags.c_contiguous:
                raise ValueError(
                    f"{name} must be a C-contiguous float64 trace buffer {shape}"
                )
        if np.may_share_memory(src, dst) and not (src is dst and fm.in_place):
            raise ValueError(
                "src and dst overlap, and the faces do not each own their slots"
            )
        if self._cc is None:
            call = None
        else:
            call = (
                src.ctypes.data, dst.ctypes.data, fm.nfaces, fm.table.ctypes.data,
                fm.nrows, fm.up, fm.dn, fm.nf, fm.nvel,
                0 if fm.wa is None else fm.wa.ctypes.data,
                0 if fm.wb is None else fm.wb.ctypes.data,
                fm.shift, fm.extent, len(self._groups), self._cc_table.ctypes.data,
            )
        self._face_call = (fm, src, dst, call)
        return call

    def _run_faces(self, aux, src, dst, fm: FaceMap, penalty) -> np.ndarray:
        bound_fm, bound_src, bound_dst, call = self._face_call
        if fm is not bound_fm or src is not bound_src or dst is not bound_dst:
            call = self._bind_faces(src, dst, fm)
        if penalty is not None and fm.wa is not None:
            raise ValueError("the jump penalty belongs to acceleration faces")
        self._refresh(aux)
        if call is not None:
            self._cc_faces(*call, penalty is not None, penalty or 0.0)
        else:
            self._faces_numpy(src, dst, fm, penalty)
        return dst

    def _faces_numpy(self, src, dst, fm: FaceMap, penalty) -> None:
        """The numpy tier's face application, and the reference for the
        compiled one: gather the two traces by the table, form the face
        state, sweep it (the plan's ``csr_matvecs`` groups, a round of faces
        with distinct data cells at a time), scatter to both slots — the
        same float operations per element, in the same order."""
        nf, nvel, pool = fm.nf, fm.nvel, self.pool
        s3 = src.reshape(fm.src_cells, fm.nrows, nvel)
        d3 = dst.reshape(fm.dst_cells, fm.nrows, nvel)
        a = s3[fm.a_index, fm.up : fm.up + nf]
        b = s3[fm.b_index, fm.dn : fm.dn + nf]
        x = pool.get("plan.faces.x", (fm.nfaces, nf, nvel))
        y = pool.get("plan.faces.y", (fm.nfaces, nf, nvel))
        if fm.wa is not None:
            np.multiply(a, fm.wa, out=x)
            np.multiply(b, fm.wb, out=y)
            x += y
        else:
            # along the axis: velocity cell v = (outer, at, inner); face
            # ``at`` joins cells ``at`` and ``at + 1``, the last one is the
            # upper domain boundary
            split = (fm.nfaces, nf, -1, fm.extent, fm.shift)
            a, b, x5, y5 = (arr.reshape(split) for arr in (a, b, x, y))
            lo = (..., slice(0, fm.extent - 1), slice(None))
            hi = (..., slice(1, fm.extent), slice(None))
            np.add(a[lo], b[hi], out=x5[lo])
            x5[..., fm.extent - 1 :, :] = 0.0
        for faces, cells in fm.rounds:
            if isinstance(faces, slice) and isinstance(cells, slice):
                # one face per configuration cell, in cell order
                self._sweep_numpy(x.reshape(self.in_shape), y.reshape(self.out_shape), False)
                continue
            xf = pool.get("plan.faces.xf", self.in_shape)
            yf = pool.get("plan.faces.yf", self.out_shape)
            xf.reshape(self.ncfg, nf, nvel)[cells] = x[faces]
            self._sweep_numpy(xf, yf, False)
            y[faces] = yf.reshape(self.ncfg, nf, nvel)[cells]
        if penalty is not None:
            np.subtract(a[lo], b[hi], out=x5[lo])
            x *= penalty
            y += x
        lower = y
        if fm.wa is None:
            # the flux through face ``at`` is the lower-slot entry of cell
            # ``at + 1``; cell 0's lower face is the domain boundary
            x5[hi] = y5[lo]
            x5[..., :1, :] = 0.0
            lower = x
        for (row, cells, faces), flux in zip(fm.writes, (y, lower)):
            d3[cells, row : row + nf] = flux[faces]

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Dict[str, int]:
        """Compile-time shape of the plan (for tests and diagnostics)."""
        shared = [g for g in self._groups if not g.per_cell]
        return {
            "uniform_groups": len(shared),
            "uniform_terms": sum(len(g.terms) for g in shared),
            "cfg_groups": len(self._per_cell),
            "cfg_items": sum(len(g.terms) for g in self._per_cell),
            "fallback_terms": 0 if self._fallback is None else len(self._fallback.terms),
        }

    def __repr__(self) -> str:  # pragma: no cover
        s = self.stats
        return (
            f"ExecutionPlan(cells={self.cell_shape}, uniform={s['uniform_terms']}, "
            f"cfg={s['cfg_items']}, fallback={s['fallback_terms']}, "
            f"tier={self.tier!r})"
        )

"""Compiled execution plans for generated kernels — cell-major native.

A :class:`~repro.kernels.termset.TermSet` names its runtime factors
symbolically; *how* to evaluate it efficiently depends on where each factor
varies.  An :class:`ExecutionPlan` performs that analysis once — against an
**aux signature**, the classification of every symbol as scalar (``s``),
configuration-varying (``c``), velocity-varying (``v``) or irregular
(``x``) — and freezes the result into a flat program, its one executor:

* terms whose symbols carry no configuration dependence share one operator
  for every phase-space cell.  Each velocity-factor group's terms are
  **merged into one sparse sweep**: the per-cell CSR blocks are concatenated
  row-wise in term order with the scalar factors folded into the data, so
  the per-output-element accumulation sequence is entry for entry that of
  applying the terms one after another (the sha256 goldens in
  ``tests/test_plan_compile.py`` pin it);
* terms with configuration-varying factors (the acceleration kernels' modal
  field coefficients) are pre-stacked into dense operator blocks; per
  application one gather plus one broadcast multiply fills the coefficient
  rows, one small GEMM assembles the per-cell operators
  ``A[c] = Σ_i coef_i[c] K_i`` and one batched GEMM applies them — the
  near-BLAS-throughput form of the paper's headline claim;
* symbols varying on both cell groups fall back to the exact sparse
  reference path (:meth:`TermSet.apply_cm`).

The executor's single variation point is the **sparse-sweep kernel**
(:func:`repro.cas.codegen.select_tier`): the emitted C sweep, one call per
apply covering every group with the velocity weighting done in-register,
when a C compiler is present and the build succeeds (``cc``); otherwise
scipy's ``csr_matvecs`` over the block-diagonal expansion of the merged
blocks (``numpy``) — built only in that case.  Both produce the same bits.

Everything shape-dependent is prebound when the plan is built (scratch
buffers, reshaped views, the C argument vector), and
runtime symbol values are **bound under an identity guard**: the same aux
value objects arriving again (every RK stage of every step) skip all
dictionary walking and scalar evaluation.  Arrays are bound as views, and
scalars held in mutable size-one arrays are re-read on every apply, so
in-place parameter mutation is always seen.

State is **cell-major** (:mod:`repro.engine.layout`): ``fin``/``out`` are
``(*cfg_cells, n, *vel_cells)``, whose C-contiguous view *is* the
``(ncfg, n, nvel)`` batch the dense products and sweeps consume.  Plans own
no state except references into a shared
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

from ..cas.codegen import compile_fused_sweep
from ..kernels.termset import AuxValue, Symbol, TermSet, csr_accumulate, symbol_value
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
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


class _UniformGroup:
    """Terms with one shared operator per cell and one velocity factor,
    merged into a single sparse sweep."""

    __slots__ = (
        "vel_names",
        "terms",    # [(scalar factor names, per-cell csr)], in term order
        "indptr",   # merged per-cell block (int64, the C sweep's index type)
        "indices",
        "base",     # merged data, unscaled
        "tid",      # term index per merged entry
        "data",     # merged data with the scalar factors folded in
        "spmat",    # numpy tier: block-diagonal expansion over cells ...
        "kdata",    # ... and its data as (ncfg, nnz) rows of ``data``
        "cc_w",     # cc tier: contiguous (vel_shape) weight buffer
    )

    def __init__(self, vel_names: Tuple[str, ...]):
        self.vel_names = vel_names
        self.terms: List[Tuple[Tuple[str, ...], sp.csr_matrix]] = []

    def merge(self, nout: int) -> None:
        """Concatenate the terms' blocks row-wise in term order: within each
        output row the merged entries replay term 0's additions, then term
        1's, ... — exactly the sequence of one sweep per term."""
        mats = [mat for _names, mat in self.terms]
        rows = np.concatenate(
            [np.repeat(np.arange(nout), np.diff(m.indptr)) for m in mats]
        )
        order = np.argsort(rows, kind="stable")
        self.indices = np.concatenate([m.indices for m in mats])[order].astype(np.int64)
        self.base = np.concatenate([m.data for m in mats])[order]
        self.tid = np.concatenate(
            [np.full(m.data.size, t) for t, m in enumerate(mats)]
        )[order]
        self.indptr = np.zeros(nout + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nout), out=self.indptr[1:])
        scaled = any(names for names, _mat in self.terms)
        self.data = np.empty_like(self.base) if scaled else self.base
        self.spmat = self.kdata = self.cc_w = None

    def expand(self, ncfg: int, nout: int, nin: int) -> None:
        """Block-diagonal expansion over configuration cells, so one
        ``csr_matvecs`` call sweeps every cell's contiguous block.  Built
        from the raw arrays: ``sp.kron`` would canonicalize (sort, merge
        duplicates) and destroy the accumulation order of :meth:`merge`."""
        nnz = self.base.size
        cells = np.arange(ncfg, dtype=np.int64)[:, None]
        self.spmat = sp.csr_matrix(
            (
                np.empty(ncfg * nnz),
                (self.indices + cells * nin).ravel(),
                np.append(0, (self.indptr[1:] + cells * nnz).ravel()),
            ),
            shape=(ncfg * nout, ncfg * nin),
        )
        self.kdata = self.spmat.data.reshape(ncfg, nnz)
        self.kdata[:] = self.base

    def rescale(self, svals: Dict[str, float]) -> None:
        """Fold the current scalar factor values into the sweep data — per
        entry ``base * c_term``."""
        if self.data is self.base:
            return
        scale = np.array([symbol_value(svals, names) for names, _mat in self.terms])
        np.multiply(self.base, scale[self.tid], out=self.data)
        if self.kdata is not None:
            self.kdata[:] = self.data


class _CfgGroup:
    """Terms with configuration-varying operators: pre-stacked dense blocks
    with vectorized coefficient assembly."""

    __slots__ = (
        "vel_names",
        "items",     # [(scalar names, cfg names)]; row i of ``mats`` is its block
        "mats",      # (n_items, nout * nin) dense operator stack
        "coef",      # pooled (n_items, ncfg) coefficient buffer ...
        "coef_t",    # ... its transpose, the GEMM operand ...
        "flat",      # ... and its flattening, the gather destination
        "scal",      # (n_items, 1) per-item scalar products
        "extras",    # [(item index, (further cfg names...))], multi-factor items
        "rows",      # bound per-item cfg rows ((ncfg,) views)
        "volatile",  # some row is a copy, not a view: re-gather every apply
    )

    def __init__(self, vel_names: Tuple[str, ...]):
        self.vel_names = vel_names
        self.items: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        self.mats: Optional[np.ndarray] = None

    def lower(self, pool: ScratchPool, ncfg: int) -> None:
        self.coef = pool.get("plan.coef", (len(self.items), ncfg))
        self.coef_t = self.coef.T
        self.flat = self.coef.reshape(-1)
        self.scal = np.ones((len(self.items), 1))
        self.extras = [
            (i, cfg_names[1:])
            for i, (_sn, cfg_names) in enumerate(self.items)
            if len(cfg_names) > 1
        ]
        self.rows: List[np.ndarray] = []
        self.volatile = False

    def bind(self, plan: "ExecutionPlan", aux, svals: Dict[str, float]) -> None:
        self.rows = [plan._cfg_row(aux[cn[0]]) for _sn, cn in self.items]
        # broadcast-expanded rows are snapshots; they must be re-gathered
        # per apply to track in-place aux mutation
        self.volatile = not all(
            np.shares_memory(row, np.asarray(aux[cn[0]]))
            for row, (_sn, cn) in zip(self.rows, self.items)
        )
        for i, (scalar_names, _cn) in enumerate(self.items):
            self.scal[i, 0] = symbol_value(svals, scalar_names)

    def assemble(self, plan: "ExecutionPlan", aux) -> None:
        """Fill ``coef`` with the per-item coefficient rows ``row * c`` —
        one gather, one broadcast multiply."""
        if self.volatile:
            rows = [plan._cfg_row(aux[cn[0]]) for _sn, cn in self.items]
        else:
            rows = self.rows
        coef = self.coef
        np.concatenate(rows, out=self.flat)
        np.multiply(coef, self.scal, out=coef)
        for i, extra_names in self.extras:
            for name in extra_names:
                coef[i] *= plan._cfg_row(aux[name])


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
        ``kernel_status`` (``built`` / ``loaded`` / None) report the outcome.
    on_compiled:
        Called with the plan once its operator blocks exist
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
        uniform: Dict[Tuple[str, ...], _UniformGroup] = {}
        cfg_groups: Dict[Tuple[str, ...], _CfgGroup] = {}
        cfg_mats: Dict[Tuple[str, ...], List[np.ndarray]] = {}
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
            key = tuple(sorted(vel_names))
            rows = np.array([t[0] for t in triples], dtype=np.int64)
            cols = np.array([t[1] for t in triples], dtype=np.int64)
            vals = np.array([t[2] for t in triples], dtype=float)
            mat = sp.csr_matrix(
                (vals, (rows, cols)), shape=(self.nout, self.nin)
            )
            if cfg_names:
                grp = cfg_groups.get(key)
                if grp is None:
                    grp = cfg_groups[key] = _CfgGroup(key)
                    cfg_mats[key] = []
                grp.items.append((tuple(scalar_names), tuple(cfg_names)))
                cfg_mats[key].append(mat.toarray().reshape(-1))
            else:
                grp = uniform.get(key)
                if grp is None:
                    grp = uniform[key] = _UniformGroup(key)
                grp.terms.append((tuple(scalar_names), mat))
        for key, grp in cfg_groups.items():
            grp.mats = np.stack(cfg_mats[key])
        self._uniform = list(uniform.values())
        self._cfg = list(cfg_groups.values())
        self._fallback = (
            TermSet(self.nout, self.nin, fallback) if fallback else None
        )

    # ------------------------------------------------------------------ #
    def to_artifacts(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Serialize the compiled operator blocks to ``(meta, arrays)``.

        The payload holds what ``_compile`` produces that is non-trivial
        to rebuild: the per-term per-cell sparse blocks (merging them is
        cheap, so only the unmerged form is stored) and the dense operator
        stacks.  Symbol structure and the fallback's entries come back from
        the termset, which the loader always has in hand.
        """
        meta: dict = {
            "nout": self.nout,
            "nin": self.nin,
            "cdim": self.cdim,
            "vdim": self.vdim,
            "cell_shape": [int(n) for n in self.cell_shape],
            "signature": [[name, tok] for name, tok in self.signature],
            "uniform": [],
            "cfg": [],
            "fallback_syms": [],
        }
        arrays: Dict[str, np.ndarray] = {}
        for gi, grp in enumerate(self._uniform):
            meta["uniform"].append(
                {
                    "vel_names": list(grp.vel_names),
                    "terms": [list(names) for names, _mat in grp.terms],
                }
            )
            for tj, (_names, mat) in enumerate(grp.terms):
                arrays[f"u{gi}t{tj}d"] = mat.data
                arrays[f"u{gi}t{tj}i"] = mat.indices
                arrays[f"u{gi}t{tj}p"] = mat.indptr
        for gi, grp in enumerate(self._cfg):
            meta["cfg"].append(
                {
                    "vel_names": list(grp.vel_names),
                    "items": [
                        [list(sn), list(cn)] for sn, cn in grp.items
                    ],
                }
            )
            arrays[f"c{gi}"] = grp.mats
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
        self._uniform = []
        for gi, gmeta in enumerate(meta["uniform"]):
            grp = _UniformGroup(tuple(gmeta["vel_names"]))
            for tj, scalar_names in enumerate(gmeta["terms"]):
                mat = sp.csr_matrix(
                    (
                        arrays[f"u{gi}t{tj}d"],
                        arrays[f"u{gi}t{tj}i"],
                        arrays[f"u{gi}t{tj}p"],
                    ),
                    shape=(self.nout, self.nin),
                )
                grp.terms.append((tuple(scalar_names), mat))
            self._uniform.append(grp)
        self._cfg = []
        for gi, gmeta in enumerate(meta["cfg"]):
            grp = _CfgGroup(tuple(gmeta["vel_names"]))
            grp.items = [
                (tuple(sn), tuple(cn)) for sn, cn in gmeta["items"]
            ]
            grp.mats = np.ascontiguousarray(arrays[f"c{gi}"], dtype=float)
            self._cfg.append(grp)
        fb_syms = [tuple(sym) for sym in meta.get("fallback_syms", [])]
        if fb_syms:
            self._fallback = TermSet(
                self.nout, self.nin, {sym: entries[sym] for sym in fb_syms}
            )
        else:
            self._fallback = None

    # ------------------------------------------------------------------ #
    def _lower(self, tier: str, kernel_dir: Optional[str]) -> None:
        """Freeze the executor over the compiled groups: merge the sweeps,
        pick the sweep kernel, prebind scratch and views."""
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
        for grp in self._cfg:
            grp.lower(pool, self.ncfg)
        if self._cfg:
            self._amat = pool.get("plan.amat", (self.ncfg, self.nout * self.nin))
            self._a3 = self._amat.reshape(self.ncfg, self.nout, self.nin)
        for grp in self._uniform:
            grp.merge(self.nout)
        self.tier = "numpy"
        self.kernel_status: Optional[str] = None
        self._cc = None
        kern = None
        if self._uniform:
            kern = compile_fused_sweep(
                self.ncfg,
                self.nout,
                self.nin,
                self.nvel,
                [bool(g.vel_names) for g in self._uniform],
                tier=tier,
                kernel_dir=kernel_dir,
            )
        if kern is not None:
            # the ctypes argument vector: per group the (stable) data and
            # index pointers plus a contiguous weight buffer refreshed from
            # the bound velocity factor before each call
            args: List[int] = [0, 0]  # f, y pointers patched per call
            for grp in self._uniform:
                args += [
                    grp.data.ctypes.data,
                    grp.indptr.ctypes.data,
                    grp.indices.ctypes.data,
                ]
                if grp.vel_names:
                    grp.cc_w = np.empty(self.vel_shape)
                    args.append(grp.cc_w.ctypes.data)
            self._cc, self._cc_args = kern.fn, args
            self.tier = "cc"
            self.kernel_status = "built" if kern.fresh else "loaded"
        else:
            for grp in self._uniform:
                grp.expand(self.ncfg, self.nout, self.nin)
        # velocity-weighted input buffers, one per distinct factor key that
        # some product reads (the C sweep weights in-register instead)
        wanted = {g.vel_names for g in self._cfg}
        if self._cc is None:
            wanted |= {g.vel_names for g in self._uniform}
        self._gbufs: Dict[Tuple[str, ...], Tuple[np.ndarray, ...]] = {}
        for names in wanted - {()}:
            g = pool.get(f"plan.g:{'*'.join(names)}", self.in_shape)
            self._gbufs[names] = (g,) + self._views(g, self.nin)
        # per-array reshape memos (bounded; entries pin their array alive,
        # which is fine — callers pass persistent state/pool arrays)
        self._fviews: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._oviews: Dict[int, Tuple[np.ndarray, ...]] = {}

    def _views(self, arr: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(ncfg * n, nvel)`` sweep view and the ``(ncfg, n, nvel)``
        batch view of a contiguous cell-major array."""
        return (
            arr.reshape(self.ncfg * n, self.nvel),
            arr.reshape(self.ncfg, n, self.nvel),
        )

    def _views_of(self, arr, memo, n):
        entry = memo.get(id(arr))
        if entry is None or entry[0] is not arr:
            if len(memo) > 16:
                memo.clear()
            entry = memo[id(arr)] = (arr,) + self._views(arr, n)
        return entry

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
            for grp in self._uniform:
                grp.rescale(svals)
            self._bound_svals = stuple
        for grp in self._cfg:
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
        for grp in self._uniform + self._cfg:
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
            # per-group contiguous weight buffers before every call
            self._cc_weights = []
            for grp in self._uniform:
                if grp.vel_names:
                    velb = self._velb[grp.vel_names]
                    wsrc = velb.reshape(velb.shape[self.cdim + 1 :])
                    self._cc_weights.append(
                        (np.broadcast_to(wsrc, self.vel_shape), grp.cc_w)
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
        caller having to zero it — the first dense write assigns.
        """
        bound = self._bound_ids
        if bound is not None and not all(
            aux[n] is b for n, b in zip(self._guard_names, bound)
        ):
            self._bind(aux)
        return self.apply_trusted(fin, aux, out, accumulate)

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
        if self._bound_ids is None or (
            self._vol_scalar_names
            and tuple(_scalar_value(aux[n]) for n in self._vol_scalar_names)
            != self._bound_vsvals
        ):
            self._bind(aux)
        if _OBS.on:
            t0 = _perf_counter()
            out = self._run(fin, aux, out, accumulate)
            _OBS.finish(self.obs_label, t0, _S_PLAN_APPLIES, _S_PLAN_APPLY_MS)
            return out
        return self._run(fin, aux, out, accumulate)

    def _run(self, fin, aux, out, accumulate: bool) -> np.ndarray:
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
        for vals, prod in self._vel_products:
            np.multiply(vals[0], vals[1], out=prod)
            for val in vals[2:]:
                np.multiply(prod, val, out=prod)
        _a, f2, f3 = self._views_of(fin, self._fviews, self.nin)
        _a, o2, o3 = self._views_of(out, self._oviews, self.nout)
        # velocity-weighted states, computed once per distinct factor and
        # shared between the dense (cfg-batched) and sparse parts — the
        # volume plan's acceleration and streaming groups read the same
        # ``f * w_j`` products
        wcache: Dict[Tuple[str, ...], Tuple[np.ndarray, ...]] = {}

        # dense (configuration-batched) part first: in non-accumulating
        # mode its first result is *assigned* into out, saving a zero pass;
        # everything after accumulates on top
        first = not accumulate
        for grp in self._cfg:
            grp.assemble(self, aux)
            np.matmul(grp.coef_t, grp.mats, out=self._amat)
            gc = self._weighted(grp.vel_names, fin, wcache)[2] if grp.vel_names else f3
            if first:
                np.matmul(self._a3, gc, out=o3)
                first = False
            else:
                # staged accumulate: one batched matmul into scratch plus an
                # in-place add beats ncfg BLAS beta=1 calls on these blocks
                acc = self.pool.get("plan.acc", o3.shape)
                np.matmul(self._a3, gc, out=acc)
                o3 += acc
        if first:
            out.fill(0.0)

        if self._cc is not None:
            for wsrc, wbuf in self._cc_weights:
                np.copyto(wbuf, wsrc)
            args = self._cc_args
            args[0] = fin.ctypes.data
            args[1] = out.ctypes.data
            self._cc(*args)
        else:
            for grp in self._uniform:
                x2 = self._weighted(grp.vel_names, fin, wcache)[1] if grp.vel_names else f2
                csr_accumulate(grp.spmat, grp.spmat.data, x2, o2)

        if self._fallback is not None:
            self._fallback.apply_cm(fin, aux, out, self.cdim)
        return out

    def _weighted(
        self,
        names: Tuple[str, ...],
        fin: np.ndarray,
        wcache: Dict[Tuple[str, ...], Tuple[np.ndarray, ...]],
    ) -> Tuple[np.ndarray, ...]:
        """The weighted input ``fin * w`` as ``(buffer, sweep view, batch
        view)``, computed at most once per factor key within one apply."""
        entry = wcache.get(names)
        if entry is None:
            entry = wcache[names] = self._gbufs[names]
            np.multiply(fin, self._velb[names], out=entry[0])
        return entry

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Dict[str, int]:
        """Compile-time shape of the plan (for tests and diagnostics)."""
        return {
            "uniform_groups": len(self._uniform),
            "uniform_terms": sum(len(g.terms) for g in self._uniform),
            "cfg_groups": len(self._cfg),
            "cfg_items": sum(len(g.items) for g in self._cfg),
            "fallback_terms": 0 if self._fallback is None else len(self._fallback.terms),
        }

    def __repr__(self) -> str:  # pragma: no cover
        s = self.stats
        return (
            f"ExecutionPlan(cells={self.cell_shape}, uniform={s['uniform_terms']}, "
            f"cfg={s['cfg_items']}, fallback={s['fallback_terms']}, "
            f"tier={self.tier!r})"
        )

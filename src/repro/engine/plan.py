"""Compiled execution plans for generated kernels — cell-major native.

A :class:`~repro.kernels.termset.TermSet` names its runtime factors
symbolically; *how* to evaluate it efficiently depends on where each factor
varies.  An :class:`ExecutionPlan` performs that analysis once — against an
**aux signature**, the classification of every symbol as scalar (``s``),
configuration-varying (``c``), velocity-varying (``v``) or irregular
(``x``) — and freezes the result:

* terms whose symbols carry no configuration dependence share one operator
  for every phase-space cell; they are kept as full-width sparse matrices
  and applied as in-place sparse×dense products, one configuration cell's
  contiguous ``(nin, nvel)`` block at a time (zero temporaries);
* terms with configuration-varying factors (the acceleration kernels' modal
  field coefficients) are pre-stacked into dense operator blocks; per
  application one small GEMM assembles the per-cell operators
  ``A[c] = Σ_i coef_i[c] K_i`` and one batched GEMM applies them — the
  near-BLAS-throughput form of the paper's headline claim;
* symbols varying on both cell groups fall back to the exact sparse
  reference path.

State is **cell-major** (:mod:`repro.engine.layout`): ``fin``/``out`` are
``(*cfg_cells, n, *vel_cells)``, whose C-contiguous view *is* the
``(ncfg, n, nvel)`` batch the dense products consume.  The phase-major
transform-assign shims of the previous engine (gather into cell-major
scratch, transpose-add back) are gone: the batched GEMMs read the state and
write the output directly.

Plans own no state except references into a shared
:class:`~repro.engine.pool.ScratchPool`, so steady-state application
allocates nothing — and, with the layout flip, copies nothing: the one
remaining normalizing copy (a non-contiguous ``fin``) is reported through
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..kernels.termset import AuxValue, Symbol, TermSet, csr_accumulate
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from .backend import ArrayBackend, get_backend
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
    """Terms with one shared operator per cell: sparse, applied in place.

    At compile time each term's csr matrix is expanded to the block-diagonal
    ``kron(I_ncfg, M)`` over the plan's configuration cells, so one
    ``csr_matvecs`` call sweeps every cell's contiguous ``(nin, nvel)``
    block — per-row arithmetic identical to the per-cell kernel, without
    ``ncfg`` Python-level calls."""

    __slots__ = ("vel_names", "terms")

    def __init__(self, vel_names: Tuple[str, ...]):
        self.vel_names = vel_names
        # each term: (scalar_names, batched kron csr, preallocated
        #             scaled-data buffer for the kron data, per-cell csr —
        #             kept for serialization and the fused lowering)
        self.terms: List[
            Tuple[Tuple[str, ...], sp.csr_matrix, np.ndarray, sp.csr_matrix]
        ] = []


class _CfgGroup:
    """Terms with configuration-varying operators: pre-stacked dense blocks."""

    __slots__ = ("vel_names", "items", "mats")

    def __init__(self, vel_names: Tuple[str, ...]):
        self.vel_names = vel_names
        # each item: (scalar_names, cfg_names); row i of ``mats`` is its block
        self.items: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        self.mats: Optional[np.ndarray] = None  # (n_items, nout * nin)


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
    backend, pool:
        Dense-product strategy and shared scratch arena.
    """

    # class-level default keeps plans unpickled from older caches valid
    obs_label = "plan_apply"

    def __init__(
        self,
        termset: TermSet,
        cdim: int,
        vdim: int,
        aux: Dict[str, AuxValue],
        cell_shape: Tuple[int, ...],
        backend: Optional[ArrayBackend] = None,
        pool: Optional[ScratchPool] = None,
    ):
        self._setup(termset, cdim, vdim, aux, cell_shape, backend, pool)
        self._compile(dict(self.signature))

    def _setup(
        self,
        termset: TermSet,
        cdim: int,
        vdim: int,
        aux: Dict[str, AuxValue],
        cell_shape: Tuple[int, ...],
        backend: Optional[ArrayBackend],
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
        self.backend = get_backend(backend)
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
        backend: Optional[ArrayBackend] = None,
        pool: Optional[ScratchPool] = None,
    ) -> "ExecutionPlan":
        """Rebuild a plan from serialized artifacts instead of compiling.

        The stored metadata must match the identity this plan would compile
        to (signature, shapes); mismatches raise ``ValueError`` so callers
        treat stale payloads as cache misses.  Hydration skips the symbol
        analysis of ``_compile`` and is bit-identical to a fresh compile.
        """
        self = cls.__new__(cls)
        self._setup(termset, cdim, vdim, aux, cell_shape, backend, pool)
        self._hydrate(meta, arrays)
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
                # block-diagonal expansion over configuration cells: the
                # batched sweep multiplies the same per-cell rows, so the
                # result is bit-identical to the per-cell kernel
                bmat = sp.kron(
                    sp.identity(self.ncfg, format="csr"), mat, format="csr"
                )
                grp.terms.append(
                    (
                        tuple(scalar_names),
                        bmat,
                        np.empty_like(bmat.data) if scalar_names else None,
                        mat,
                    )
                )
        for key, grp in cfg_groups.items():
            grp.mats = np.stack(cfg_mats[key]) if cfg_mats[key] else None
        self._uniform = list(uniform.values())
        self._cfg = [g for g in cfg_groups.values() if g.mats is not None]
        self._fallback = (
            TermSet(self.nout, self.nin, fallback) if fallback else None
        )

    # ------------------------------------------------------------------ #
    def to_artifacts(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Serialize the compiled operator blocks to ``(meta, arrays)``.

        The payload holds what ``_compile`` produces that is non-trivial
        to rebuild: per-cell sparse blocks (the kron expansion is cheap and
        cell-count-bound, so only the per-cell form is stored) and the
        dense operator stacks.  Symbol structure and the fallback's entries
        come back from the termset, which the loader always has in hand.
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
                    "terms": [list(t[0]) for t in grp.terms],
                }
            )
            for tj, (_sn, _bmat, _dbuf, mat) in enumerate(grp.terms):
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
                bmat = sp.kron(
                    sp.identity(self.ncfg, format="csr"), mat, format="csr"
                )
                grp.terms.append(
                    (
                        tuple(scalar_names),
                        bmat,
                        np.empty_like(bmat.data) if scalar_names else None,
                        mat,
                    )
                )
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

    # ------------------------------------------------------------------ #
    def _vel_product(self, names: Tuple[str, ...], aux: Dict[str, AuxValue]):
        """Product of velocity-varying factors (small, velocity-axis sized),
        shaped over the ``(*cfg, *vel)`` cell axes."""
        val = np.asarray(aux[names[0]])
        for name in names[1:]:
            val = val * np.asarray(aux[name])
        return val

    def _vel_factor_b(self, names: Tuple[str, ...], aux) -> np.ndarray:
        """Velocity factor with the basis axis inserted, broadcastable
        against cell-major state."""
        val = self._vel_product(names, aux)
        return val.reshape(val.shape[: self.cdim] + (1,) + val.shape[self.cdim :])

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
        if _OBS.on:
            t0 = _perf_counter()
            out = self._apply_impl(fin, aux, out, accumulate)
            _OBS.finish(self.obs_label, t0, _S_PLAN_APPLIES, _S_PLAN_APPLY_MS)
            return out
        return self._apply_impl(fin, aux, out, accumulate)

    def _apply_impl(
        self,
        fin: np.ndarray,
        aux: Dict[str, AuxValue],
        out: np.ndarray,
        accumulate: bool = True,
    ) -> np.ndarray:
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
        pool = self.pool
        if not fin.flags.c_contiguous:
            # cell-major callers hand contiguous state everywhere in steady
            # state; this normalizing copy only fires on exotic inputs and
            # is audited so the copy-assert tests can prove it never runs
            pool.record_layout_copy("plan.fcontig", fin.shape)
            fcontig = pool.get("plan.fcontig", fin.shape)
            np.copyto(fcontig, fin)
            fin = fcontig
        f3 = fin.reshape(self.ncfg, self.nin, self.nvel)
        out3 = out.reshape(self.ncfg, self.nout, self.nvel)
        # velocity-weighted states, computed once per distinct factor and
        # shared between the dense (cfg-batched) and sparse parts — the
        # volume plan's acceleration and streaming groups read the same
        # ``f * w_j`` products
        wcache: Dict[Tuple[str, ...], np.ndarray] = {}

        # dense (configuration-batched) part first: in non-accumulating
        # mode its result is *assigned* into out, saving a zero pass; the
        # sparse parts below always accumulate on top
        if self._cfg:
            self._apply_cfg_into(f3, fin, aux, out3, wcache, accumulate=accumulate)
        elif not accumulate:
            out.fill(0.0)

        for grp in self._uniform:
            if grp.vel_names:
                g = self._weighted(fin, grp.vel_names, aux, wcache)
                x2 = g.reshape(self.ncfg * self.nin, self.nvel)
            else:
                x2 = fin.reshape(self.ncfg * self.nin, self.nvel)
            y2 = out.reshape(self.ncfg * self.nout, self.nvel)
            for scalar_names, bmat, dbuf, _mat in grp.terms:
                if scalar_names:
                    c = 1.0
                    for name in scalar_names:
                        c *= _scalar_value(aux[name])
                    np.multiply(bmat.data, c, out=dbuf)
                    data = dbuf
                else:
                    data = bmat.data  # no scalar factors: no data pass
                # one batched sweep over every configuration cell's
                # contiguous block (block-diagonal kron, bit-identical rows)
                csr_accumulate(bmat, data, x2, y2)

        if self._fallback is not None:
            self._fallback.apply_cm(fin, aux, out, self.cdim)
        return out

    def _weighted(
        self,
        fin: np.ndarray,
        names: Tuple[str, ...],
        aux: Dict[str, AuxValue],
        wcache: Dict[Tuple[str, ...], np.ndarray],
    ) -> np.ndarray:
        """``fin`` times the velocity factor named by ``names`` — computed
        once per apply and shared across groups (pooled per factor)."""
        g = wcache.get(names)
        if g is None:
            velfac = self._vel_factor_b(names, aux)
            g = self.pool.get(f"plan.g:{'*'.join(names)}", self.in_shape)
            np.multiply(fin, velfac, out=g)
            wcache[names] = g
        return g

    def _apply_cfg_into(self, f3, fin, aux, outc, wcache, accumulate: bool) -> None:
        """Assemble per-cell operators with one small GEMM and apply them
        with one batched GEMM per group, straight from/to the cell-major
        state views (assigned when ``accumulate`` is False)."""
        pool, backend = self.pool, self.backend
        for igrp, grp in enumerate(self._cfg):
            n_items = len(grp.items)
            coef = pool.get("plan.coef", (n_items, self.ncfg))
            for i, (scalar_names, cfg_names) in enumerate(grp.items):
                c = 1.0
                for name in scalar_names:
                    c *= _scalar_value(aux[name])
                np.multiply(self._cfg_row(aux[cfg_names[0]]), c, out=coef[i])
                for name in cfg_names[1:]:
                    coef[i] *= self._cfg_row(aux[name])
            amat = pool.get("plan.amat", (self.ncfg, self.nout * self.nin))
            backend.gemm(coef.T, grp.mats, out=amat)
            a3 = amat.reshape(self.ncfg, self.nout, self.nin)
            if grp.vel_names:
                # full-width weighted state, shared with the sparse part
                gc = self._weighted(fin, grp.vel_names, aux, wcache).reshape(
                    self.ncfg, self.nin, self.nvel
                )
            else:
                gc = f3
            if igrp == 0 and not accumulate:
                backend.batched_gemm(a3, gc, out=outc)
            else:
                # in-place accumulation: no staging buffer, no extra pass
                backend.batched_gemm_acc(a3, gc, outc)

    # ------------------------------------------------------------------ #
    @property
    def is_pure_cfg(self) -> bool:
        """True when every term is configuration-batched (no sparse or
        fallback parts)."""
        return not self._uniform and self._fallback is None

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
            f"backend={self.backend.describe()})"
        )

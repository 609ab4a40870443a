"""Fused execution of compiled plans — the AOT-lowered hot path.

An :class:`~repro.engine.plan.ExecutionPlan` is exact but interpreted: every
apply walks group lists, evaluates symbol products term by term, and issues
one sparse sweep per term.  A :class:`FusedPlan` lowers the *same* compiled
operator blocks once, ahead of time, into a flat program:

* every uniform group's terms are **merged into one sparse sweep**: the
  per-cell CSR blocks are concatenated row-wise in term order (scalar
  factors folded into the data), then block-diagonally expanded over
  configuration cells — the per-output-element accumulation sequence is
  entry-for-entry the interpreted path's, so the merged sweep is
  bit-identical, at one ``csr_matvecs`` call per group instead of per term;
* the configuration-batched coefficient assembly is **vectorized**: the
  per-item field rows are gathered with one ``np.concatenate`` and scaled
  with one broadcast multiply into the same pooled ``(n_items, ncfg)``
  buffer the interpreted path fills item-by-item — identical operand values
  and strides, so the downstream GEMMs are bit-identical too;
* everything shape-dependent is **prebound at lowering time**: scratch
  buffers, their reshaped views, the csr argument tuples, bound backend
  methods — a steady-state apply performs no pool lookups, no string
  formatting, and no per-term Python dispatch;
* runtime symbol values are **bound under an identity guard**: the same aux
  value objects arriving again (every RK stage of every step) skip all
  symbol classification, dictionary walking, and scalar evaluation; scalar
  values held in mutable size-one arrays are still re-read each apply, so
  in-place parameter mutation behaves exactly as interpreted.
  :meth:`apply_trusted` lets a caller that already performed the identity
  scan (:class:`~repro.kernels.grouped.GroupedOperator`) skip the guard
  entirely.

When numba is importable (``repro.cas.codegen.select_tier``), the merged
sweeps additionally run through an emitted ``@njit(cache=True)`` kernel that
fuses the velocity-factor weighting into the sweep in-register; without it
the vectorized numpy tier above runs — same results, both validated against
the interpreted path by the equivalence tests.

A FusedPlan wraps (and delegates unknown attributes to) its interpreted
plan, so plan introspection — ``stats``, ``signature`` — and the
scratch-pool copy audit behave identically.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..cas.codegen import compile_fused_sweep
from ..kernels.termset import AuxValue, _csr_tools, csr_accumulate
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from .plan import ExecutionPlan, _scalar_value

__all__ = ["FusedPlan"]

_S_PLAN_APPLIES = _OBS_SLOT["plan_applies"]
_S_PLAN_APPLY_MS = _OBS_SLOT["plan_apply_ms"]

_IMMUTABLE_SCALARS = (float, int)


class _SparseStep:
    """One merged uniform group: a single block-diagonal sweep."""

    __slots__ = (
        "vel_names",
        "scalar_names",  # per-term scalar factor names, in term order
        "base",          # per-cell merged data, unscaled
        "tid",           # term index per data entry
        "indices",
        "indptr",
        "spmat",         # kron-expanded csr sharing ``kdata``
        "kdata",         # kron-expanded (possibly scaled) data
        "kindices",
        "kindptr",
        "scaled",        # per-cell scaled data buffer (None: no scalars)
        "wflat",         # flattened (nvel,) velocity factor for the jit tier
        "cc_ip",         # int64 copies of indptr/indices for the cc tier
        "cc_ix",
        "cc_w",          # contiguous (vel_shape) weight buffer (cc tier)
    )

    def __init__(self, plan: ExecutionPlan, grp) -> None:
        self.vel_names = grp.vel_names
        self.scalar_names = tuple(t[0] for t in grp.terms)
        mats = [t[3] for t in grp.terms]
        nout, nin, ncfg = plan.nout, plan.nin, plan.ncfg
        # row-wise concatenation in term order: within each output row the
        # merged entries replay term 0's additions, then term 1's, ... —
        # exactly the per-term sweep sequence of the interpreted path
        idx_dtype = mats[0].indices.dtype
        chunks_i: List[np.ndarray] = []
        chunks_d: List[np.ndarray] = []
        chunks_t: List[np.ndarray] = []
        indptr = np.zeros(nout + 1, dtype=idx_dtype)
        for r in range(nout):
            for t, m in enumerate(mats):
                lo, hi = m.indptr[r], m.indptr[r + 1]
                if hi > lo:
                    chunks_i.append(m.indices[lo:hi])
                    chunks_d.append(m.data[lo:hi])
                    chunks_t.append(np.full(hi - lo, t, dtype=np.int64))
                indptr[r + 1] += hi - lo
        np.cumsum(indptr, out=indptr)
        self.indices = (
            np.concatenate(chunks_i) if chunks_i else np.zeros(0, idx_dtype)
        )
        self.base = (
            np.concatenate(chunks_d) if chunks_d else np.zeros(0)
        )
        self.tid = (
            np.concatenate(chunks_t) if chunks_t else np.zeros(0, np.int64)
        )
        self.indptr = indptr
        nnz = self.base.size
        # block-diagonal expansion built directly from the raw arrays:
        # sp.kron would canonicalize (sort, merge duplicates) and destroy
        # the accumulation order the merge just established
        self.kindices = (
            self.indices[None, :]
            + (np.arange(ncfg, dtype=idx_dtype) * idx_dtype.type(nin))[:, None]
        ).ravel()
        self.kindptr = np.concatenate(
            [
                np.zeros(1, dtype=idx_dtype),
                (
                    indptr[1:][None, :]
                    + (np.arange(ncfg, dtype=idx_dtype) * idx_dtype.type(nnz))[
                        :, None
                    ]
                ).ravel(),
            ]
        )
        self.kdata = np.empty(nnz * ncfg)
        self.spmat = sp.csr_matrix(
            (self.kdata, self.kindices, self.kindptr),
            shape=(ncfg * nout, ncfg * nin),
            copy=False,
        )
        self.scaled = (
            np.empty(nnz) if any(self.scalar_names) else None
        )
        if self.scaled is None:
            self.kdata.reshape(ncfg, nnz)[:] = self.base
        self.wflat = None
        self.cc_ip = None
        self.cc_ix = None
        self.cc_w = None

    def rescale(self, svals: Dict[str, float], ncfg: int) -> None:
        """Fold the current scalar factor values into the sweep data —
        per entry ``base * c_term``, the same float product the interpreted
        path forms, tiled over cells."""
        if self.scaled is None:
            return
        scale = np.empty(len(self.scalar_names))
        for t, names in enumerate(self.scalar_names):
            c = 1.0
            for name in names:
                c *= svals[name]
            scale[t] = c
        np.multiply(self.base, scale[self.tid], out=self.scaled)
        self.kdata.reshape(ncfg, self.scaled.size)[:] = self.scaled


class _CfgStep:
    """One configuration-batched group with vectorized coefficient assembly."""

    __slots__ = (
        "vel_names",
        "items",
        "block",      # dense operator stack (the group's ``mats``)
        "n_items",
        "coef",       # pooled (n_items, ncfg) coefficient buffer
        "coef_t",     # transposed view, the GEMM operand
        "flat",       # flattened view, the gather destination
        "rows",       # bound per-item cfg rows ((ncfg,) views)
        "scal",       # per-item scalar products
        "scal2",      # column view of ``scal`` for the broadcast multiply
        "extras",     # [(item index, (extra cfg names...))], multi-factor items
        "volatile",   # some row is a copy, not a view: re-gather every apply
    )

    def __init__(self, plan: ExecutionPlan, grp) -> None:
        self.vel_names = grp.vel_names
        self.items = grp.items
        self.block = grp.mats
        self.n_items = len(grp.items)
        self.coef = plan.pool.get("plan.coef", (self.n_items, plan.ncfg))
        self.coef_t = self.coef.T
        self.flat = self.coef.reshape(-1)
        self.rows: List[np.ndarray] = []
        self.scal = np.ones(self.n_items)
        self.scal2 = self.scal[:, None]
        self.extras: List[Tuple[int, Tuple[str, ...]]] = [
            (i, cfg_names[1:])
            for i, (_sn, cfg_names) in enumerate(grp.items)
            if len(cfg_names) > 1
        ]
        self.volatile = False

    def bind(self, plan: ExecutionPlan, aux, svals: Dict[str, float]) -> None:
        rows = []
        volatile = False
        for scalar_names, cfg_names in self.items:
            row = plan._cfg_row(aux[cfg_names[0]])
            if not np.shares_memory(row, np.asarray(aux[cfg_names[0]])):
                # broadcast-expanded rows are snapshots; they must be
                # re-gathered per apply to track in-place aux mutation
                volatile = True
            rows.append(row)
        for i, (scalar_names, _cn) in enumerate(self.items):
            c = 1.0
            for name in scalar_names:
                c *= svals[name]
            self.scal[i] = c
        self.rows = rows
        self.volatile = volatile

    def assemble(self, plan: ExecutionPlan, aux) -> np.ndarray:
        """Fill ``coef`` with the per-item coefficient rows — one gather,
        one broadcast multiply; element-for-element the interpreted
        per-item ``row * c`` products."""
        if self.volatile:
            rows = [
                plan._cfg_row(aux[cfg_names[0]])
                for _sn, cfg_names in self.items
            ]
        else:
            rows = self.rows
        coef = self.coef
        np.concatenate(rows, out=self.flat)
        np.multiply(coef, self.scal2, out=coef)
        for i, extra_names in self.extras:
            for name in extra_names:
                coef[i] *= plan._cfg_row(aux[name])
        return coef


class FusedPlan:
    """AOT-lowered execution of one compiled plan (see module docstring).

    Construction lowers an already-compiled :class:`ExecutionPlan`; all
    introspection attributes (``stats``, ``signature``, ``names``,
    ``in_shape`` ...) delegate to it, so a FusedPlan is a drop-in plan
    object for :class:`~repro.kernels.grouped.GroupedOperator` and tests.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        tier: str = "auto",
        kernel_dir: Optional[str] = None,
    ):
        self._plan = plan
        self._sparse = [_SparseStep(plan, g) for g in plan._uniform]
        self._cfg_steps = [_CfgStep(plan, g) for g in plan._cfg]
        # identity guard over every symbol value; scalar values held in
        # mutable size-one arrays are re-read per apply (cheap) so in-place
        # mutation stays visible — immutable Python numbers are guarded by
        # identity alone
        self._scalar_names = [
            name for name, tok in plan.signature if tok == "s"
        ]
        self._array_names = [
            name for name, tok in plan.signature if tok != "s"
        ]
        self._guard_names = self._array_names + self._scalar_names
        self._bound_ids: Optional[List[object]] = None
        self._bound_svals: Optional[Tuple[float, ...]] = None
        self._vol_scalar_names: Tuple[str, ...] = ()
        self._bound_vsvals: Tuple[float, ...] = ()
        self._mv_volatile = False
        self._velb: Dict[Tuple[str, ...], np.ndarray] = {}
        # ---- prebound execution state (pool buffers persist per tag) ----
        pool = plan.pool
        self._pool = pool
        self._in_shape = plan.in_shape
        self._out_shape = plan.out_shape
        self._ncfg, self._nvel = plan.ncfg, plan.nvel
        self._nin, self._nout = plan.nin, plan.nout
        self._f3shape = (plan.ncfg, plan.nin, plan.nvel)
        self._o3shape = (plan.ncfg, plan.nout, plan.nvel)
        self._fallback = plan._fallback
        backend = plan.backend
        self._gemm = backend.gemm
        self._bgemm = backend.batched_gemm
        self._bgemm_acc = backend.batched_gemm_acc
        if self._cfg_steps:
            self._amat = pool.get("plan.amat", (plan.ncfg, plan.nout * plan.nin))
            self._a3 = self._amat.reshape(plan.ncfg, plan.nout, plan.nin)
        # velocity-weighted input buffers, one per distinct factor key
        wanted = {
            s.vel_names for s in self._sparse + self._cfg_steps if s.vel_names
        }
        self._gbufs: Dict[Tuple[str, ...], Tuple[np.ndarray, ...]] = {}
        for names in wanted:
            g = pool.get(f"fusedg:{'*'.join(names)}", plan.in_shape)
            self._gbufs[names] = (
                g,
                g.reshape(-1),
                g.reshape(self._f3shape),
            )
        # per-array reshape memos (bounded; entries pin their array alive,
        # which is fine — callers pass persistent state/pool arrays)
        self._fviews: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._oviews: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._kernel = None
        self._cc = None
        self._cc_args: List[int] = []
        self._cc_weights: List[Tuple[Tuple[str, ...], object, np.ndarray]] = []
        self.kernel_status: Optional[str] = None
        self.tier = "numpy"
        if plan._uniform:
            compiled = compile_fused_sweep(
                f"fused_sweep_{plan.nout}x{plan.nin}",
                plan.nout,
                [bool(s.vel_names) for s in self._sparse],
                tier=tier,
                ncfg=plan.ncfg,
                nin=plan.nin,
                nvel=plan.nvel,
                kernel_dir=kernel_dir,
            )
            if compiled is not None:
                kernel, ktier = compiled
                if ktier == "cc":
                    self._setup_cc(kernel)
                else:  # pragma: no cover - requires numba
                    self._kernel, self.tier = kernel, ktier
                    self.kernel_status = "jit"

    def _setup_cc(self, kern) -> None:
        """Prebind the ctypes argument vector for the compiled C sweep:
        per group the (stable) scaled-data pointer and int64 index arrays,
        plus a contiguous weight buffer refreshed from the bound velocity
        factor before each call."""
        args: List[int] = [0, 0]  # f, y pointers patched per call
        for step in self._sparse:
            data = step.scaled if step.scaled is not None else step.base
            step.cc_ip = np.ascontiguousarray(step.indptr, dtype=np.int64)
            step.cc_ix = np.ascontiguousarray(step.indices, dtype=np.int64)
            args += [
                data.ctypes.data,
                step.cc_ip.ctypes.data,
                step.cc_ix.ctypes.data,
            ]
            if step.vel_names:
                step.cc_w = np.empty(self._plan.vel_shape)
                args.append(step.cc_w.ctypes.data)
        self._cc = kern.fn
        self._cc_args = args
        self.tier = "cc"
        self.kernel_status = "built" if kern.fresh else "loaded"

    @property
    def fused(self) -> bool:
        return True

    def __getattr__(self, name: str):
        return getattr(self._plan, name)

    # ------------------------------------------------------------------ #
    def _bind(self, aux: Dict[str, AuxValue]) -> None:
        p = self._plan
        svals = {n: _scalar_value(aux[n]) for n in self._scalar_names}
        stuple = tuple(svals[n] for n in self._scalar_names)
        if stuple != self._bound_svals:
            for step in self._sparse:
                step.rescale(svals, p.ncfg)
            for step in self._cfg_steps:
                step.bind(p, aux, svals)
            self._bound_svals = stuple
        else:
            for step in self._cfg_steps:
                step.bind(p, aux, svals)
        self._vol_scalar_names = tuple(
            n
            for n in self._scalar_names
            if not isinstance(aux[n], _IMMUTABLE_SCALARS)
        )
        self._bound_vsvals = tuple(
            svals[n] for n in self._vol_scalar_names
        )
        # velocity factors: single-name factors are reshaped *views* of the
        # aux arrays (auto-fresh under mutation); multi-name products are
        # recomputed every apply (volatility precomputed here)
        self._velb = {}
        for step in list(self._sparse) + list(self._cfg_steps):
            names = step.vel_names
            if names and names not in self._velb:
                self._velb[names] = p._vel_factor_b(names, aux)
        self._mv_volatile = any(len(names) > 1 for names in self._velb)
        if self._cc is not None:
            # broadcast views of the bound factors; flattened into the
            # per-step contiguous weight buffers before every call (views
            # track in-place mutation, multi-name products are recomputed
            # in _run when volatile)
            self._cc_weights = []
            for step in self._sparse:
                if step.vel_names:
                    vprod = p._vel_product(step.vel_names, aux)
                    wsrc = np.broadcast_to(
                        vprod.reshape(vprod.shape[p.cdim:]), p.vel_shape
                    )
                    self._cc_weights.append((step.vel_names, wsrc, step.cc_w))
        if self._kernel is not None:  # pragma: no cover - requires numba
            for step in self._sparse:
                if step.vel_names:
                    vprod = p._vel_product(step.vel_names, aux)
                    step.wflat = np.ascontiguousarray(
                        np.broadcast_to(
                            vprod.reshape(vprod.shape[p.cdim:]), p.vel_shape
                        ).reshape(p.nvel)
                    )
        self._bound_ids = [aux[n] for n in self._guard_names]

    def _ensure_bound(self, aux: Dict[str, AuxValue]) -> None:
        bound = self._bound_ids
        if bound is not None:
            try:
                vals = [aux[n] for n in self._guard_names]
            except KeyError:
                vals = None
            if vals is not None and all(
                a is b for a, b in zip(vals, bound)
            ):
                # same value objects: only mutable scalar *values* can move
                if not self._vol_scalar_names:
                    return
                vsvals = tuple(
                    _scalar_value(aux[n]) for n in self._vol_scalar_names
                )
                if vsvals == self._bound_vsvals:
                    return
        self._bind(aux)

    # ------------------------------------------------------------------ #
    def apply(
        self,
        fin: np.ndarray,
        aux: Dict[str, AuxValue],
        out: np.ndarray,
        accumulate: bool = True,
    ) -> np.ndarray:
        """Same contract (and same checks, copy audit, and results) as
        :meth:`ExecutionPlan.apply`."""
        self._ensure_bound(aux)
        return self._run(fin, aux, out, accumulate)

    def apply_trusted(
        self,
        fin: np.ndarray,
        aux: Dict[str, AuxValue],
        out: np.ndarray,
        accumulate: bool = True,
    ) -> np.ndarray:
        """Apply, skipping the aux identity guard.

        The caller asserts that every aux value object is identical to the
        previous ``apply``/``apply_trusted`` through this plan — which is
        exactly what :class:`~repro.kernels.grouped.GroupedOperator`'s
        value-identity fast path already established, so re-scanning here
        would be pure overhead.  Mutable scalar values are still re-read.
        """
        if self._bound_ids is None:
            self._bind(aux)
        elif self._vol_scalar_names:
            vsvals = tuple(
                _scalar_value(aux[n]) for n in self._vol_scalar_names
            )
            if vsvals != self._bound_vsvals:
                self._bind(aux)
        return self._run(fin, aux, out, accumulate)

    def _views_of(self, arr, memo, shape3):
        entry = memo.get(id(arr))
        if entry is None or entry[0] is not arr:
            if len(memo) > 16:
                memo.clear()
            entry = (arr, arr.reshape(shape3), arr.reshape(-1))
            memo[id(arr)] = entry
        return entry

    def _run(self, fin, aux, out, accumulate: bool) -> np.ndarray:
        # both apply paths funnel through here, so this single guard is the
        # fused path's entire observability seam
        if _OBS.on:
            t0 = _perf_counter()
            out = self._run_impl(fin, aux, out, accumulate)
            _OBS.finish(
                self._plan.obs_label, t0, _S_PLAN_APPLIES, _S_PLAN_APPLY_MS
            )
            return out
        return self._run_impl(fin, aux, out, accumulate)

    def _run_impl(self, fin, aux, out, accumulate: bool) -> np.ndarray:
        if fin.shape != self._in_shape:
            raise ValueError(
                f"plan compiled for input {self._in_shape}, got {fin.shape}"
            )
        if out.shape != self._out_shape:
            raise ValueError(
                f"plan compiled for output {self._out_shape}, got {out.shape}"
            )
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous (accumulated in place)")
        if not fin.flags.c_contiguous:
            pool = self._pool
            pool.record_layout_copy("plan.fcontig", fin.shape)
            fcontig = pool.get("plan.fcontig", fin.shape)
            np.copyto(fcontig, fin)
            fin = fcontig
        if self._mv_volatile:
            # multi-factor velocity products are bound snapshots; recompute
            # so in-place mutation of the factors stays visible
            p = self._plan
            for names in self._velb:
                if len(names) > 1:
                    self._velb[names] = p._vel_factor_b(names, aux)
        _a, f3, f1 = self._views_of(fin, self._fviews, self._f3shape)
        _a, o3, o1 = self._views_of(out, self._oviews, self._o3shape)
        wcache: Dict[Tuple[str, ...], Tuple[np.ndarray, ...]] = {}

        if self._cfg_steps:
            self._apply_cfg(f3, fin, aux, o3, wcache, accumulate)
        elif not accumulate:
            out.fill(0.0)

        if self._cc is not None:
            p = self._plan
            for names, wsrc, wflat in self._cc_weights:
                if len(names) > 1:
                    vprod = p._vel_product(names, aux)
                    wsrc = np.broadcast_to(
                        vprod.reshape(vprod.shape[p.cdim:]), p.vel_shape
                    )
                np.copyto(wflat, wsrc)
            args = self._cc_args
            args[0] = fin.ctypes.data
            args[1] = out.ctypes.data
            self._cc(*args)
        elif self._kernel is not None:  # pragma: no cover - requires numba
            args: List[np.ndarray] = []
            for step in self._sparse:
                args += [step.scaled if step.scaled is not None else step.base,
                         step.indptr, step.indices]
                if step.vel_names:
                    args.append(step.wflat)
            self._kernel(f3, o3, *args)
        elif _csr_tools is not None:
            mv = _csr_tools.csr_matvecs
            M = self._ncfg * self._nout
            N = self._ncfg * self._nin
            nvel = self._nvel
            for step in self._sparse:
                if step.vel_names:
                    x1 = self._weighted(step.vel_names, fin, wcache)[1]
                else:
                    x1 = f1
                mv(M, N, nvel, step.kindptr, step.kindices, step.kdata,
                   x1, o1)
        else:  # pragma: no cover - exercised only on exotic scipy builds
            x2flat = fin.reshape(self._ncfg * self._nin, self._nvel)
            y2 = out.reshape(self._ncfg * self._nout, self._nvel)
            for step in self._sparse:
                if step.vel_names:
                    g = self._weighted(step.vel_names, fin, wcache)[0]
                    x2 = g.reshape(self._ncfg * self._nin, self._nvel)
                else:
                    x2 = x2flat
                csr_accumulate(step.spmat, step.kdata, x2, y2)

        if self._fallback is not None:
            self._fallback.apply_cm(fin, aux, out, self._plan.cdim)
        return out

    def _weighted(
        self,
        names: Tuple[str, ...],
        fin: np.ndarray,
        wcache: Dict[Tuple[str, ...], Tuple[np.ndarray, ...]],
    ) -> Tuple[np.ndarray, ...]:
        """The weighted input ``fin * w`` as ``(buffer, flat, 3-D)`` views,
        computed at most once per factor key within one apply."""
        entry = wcache.get(names)
        if entry is None:
            entry = wcache[names] = self._gbufs[names]
            np.multiply(fin, self._velb[names], out=entry[0])
        return entry

    def _apply_cfg(self, f3, fin, aux, outc, wcache, accumulate: bool) -> None:
        p = self._plan
        bgemm, bgemm_acc = self._bgemm, self._bgemm_acc
        first = not accumulate
        a3 = self._a3
        amat = self._amat
        gemm = self._gemm
        for step in self._cfg_steps:
            step.assemble(p, aux)
            gemm(step.coef_t, step.block, out=amat)
            if step.vel_names:
                gc = self._weighted(step.vel_names, fin, wcache)[2]
            else:
                gc = f3
            if first:
                bgemm(a3, gc, out=outc)
                first = False
            else:
                bgemm_acc(a3, gc, outc)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FusedPlan(tier={self.tier!r}, {self._plan!r})"

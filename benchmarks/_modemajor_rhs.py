"""PR 2 mode-major engine path, preserved for the layout benchmark.

This module freezes the *plan-cached, mode-major* execution path exactly as
it stood before the cell-major state refactor: states are
``(num_basis, *cfg_cells, *vel_cells)``, the configuration-batched dense
products compute in cell-major scratch and transform-assign back into the
phase-major output (the shim the refactor deleted), the acceleration
surfaces gather strided face slices, and the EM state is
``(8, Npc, *cfg_cells)``.  ``bench_rhs_hotpath.py`` measures the current
cell-major engine against it in the same process, which isolates the
speedup attributable to the layout change alone (both paths share the plan
cache design, scratch pooling, and kernel coefficients).

Not imported by the library — benchmark-only code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.engine.plan import aux_signature
from repro.engine.pool import ScratchPool
from repro.kernels.termset import AuxValue, Symbol, TermSet, merge_termsets, stack_termsets

try:
    from scipy.sparse import _sparsetools as _csr_tools
except ImportError:  # pragma: no cover
    _csr_tools = None


def _axis_slice(ndim: int, axis: int, sl: slice):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _scalar_value(val: AuxValue) -> float:
    if type(val) is float or np.isscalar(val):
        return float(val)
    arr = np.asarray(val)
    return float(arr.reshape(-1)[0])


def _csr_accumulate(mat, data, x2, y2):
    if _csr_tools is not None:
        _csr_tools.csr_matvecs(
            mat.shape[0], mat.shape[1], x2.shape[1],
            mat.indptr, mat.indices, data, x2.reshape(-1), y2.reshape(-1),
        )
    else:  # pragma: no cover
        y2 += sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape) @ x2


class _UniformGroup:
    __slots__ = ("vel_names", "terms")

    def __init__(self, vel_names):
        self.vel_names = vel_names
        self.terms = []


class _CfgGroup:
    __slots__ = ("vel_names", "items", "mats", "hat")

    def __init__(self, vel_names):
        self.vel_names = vel_names
        self.items = []
        self.mats = None
        self.hat = None


class ModeMajorPlan:
    """The PR 2 ``ExecutionPlan``: compiled per (aux signature, cell shape),
    applied to phase-major states with a cell-major-scratch transform-assign
    for the configuration-batched part."""

    def __init__(self, termset, cdim, vdim, aux, cell_shape, pool=None):
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
        self.pool = pool if pool is not None else ScratchPool()
        self.names = sorted({n for sym in termset.entries_by_symbol() for n in sym})
        self.signature = aux_signature(self.names, aux, self.cdim, self.vdim)
        self._compile(dict(self.signature))

    # ------------------------------------------------------------------ #
    def _compile(self, tokens):
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
            mat = sp.csr_matrix((vals, (rows, cols)), shape=(self.nout, self.nin))
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
                grp.terms.append((tuple(scalar_names), mat, np.empty_like(mat.data)))
        for key, grp in cfg_groups.items():
            grp.mats = np.stack(cfg_mats[key]) if cfg_mats[key] else None
        self._uniform = list(uniform.values())
        self._cfg = [g for g in cfg_groups.values() if g.mats is not None]
        self._fallback = TermSet(self.nout, self.nin, fallback) if fallback else None
        self._factorize_cfg()

    def _factorize_cfg(self):
        self._fact = None
        if not self._cfg:
            return
        K = np.concatenate(
            [g.mats.reshape(len(g.items), self.nout, self.nin) for g in self._cfg]
        )
        _, s_in, vt = np.linalg.svd(K.reshape(-1, self.nin), full_matrices=False)
        _, s_out, wt = np.linalg.svd(
            np.swapaxes(K, 1, 2).reshape(-1, self.nout), full_matrices=False
        )
        if s_in.size == 0 or s_in[0] == 0.0:
            return
        r_in = int(np.sum(s_in > s_in[0] * 1e-10))
        r_out = int(np.sum(s_out > s_out[0] * 1e-10))
        ngroups = len(self._cfg)
        direct = ngroups * self.nout * self.nin
        factored = r_in * self.nin + ngroups * r_out * r_in + self.nout * r_out
        if factored >= 0.85 * direct:
            return
        vt = np.ascontiguousarray(vt[:r_in])
        u = np.ascontiguousarray(wt[:r_out].T)
        hat = np.matmul(np.matmul(u.T, K), vt.T)
        recon = np.matmul(np.matmul(u, hat), vt)
        scale = np.max(np.abs(K)) or 1.0
        if np.max(np.abs(recon - K)) > 1e-12 * scale:  # pragma: no cover
            return
        start = 0
        for grp in self._cfg:
            n = len(grp.items)
            grp.hat = hat[start : start + n].reshape(n, r_out * r_in).copy()
            grp.mats = None
            start += n
        self._fact = (u, vt, r_out, r_in)

    # ------------------------------------------------------------------ #
    def _vel_product(self, names, aux):
        val = np.asarray(aux[names[0]])
        for name in names[1:]:
            val = val * np.asarray(aux[name])
        return val

    def _cfg_row(self, val):
        arr = np.asarray(val)
        if arr.shape[: self.cdim] == self.cfg_shape:
            return arr.reshape(self.ncfg)
        return np.broadcast_to(arr, self.cfg_shape + (1,) * self.vdim).reshape(self.ncfg)

    # ------------------------------------------------------------------ #
    def apply(self, fin, aux, out, accumulate=True):
        if fin.shape[1:] != self.cell_shape:
            raise ValueError(
                f"plan compiled for cells {self.cell_shape}, got {fin.shape[1:]}"
            )
        pool = self.pool
        if self._cfg:
            self._apply_cfg(fin, aux, out, assign=not accumulate)
        elif not accumulate:
            out.fill(0.0)
        if not fin.flags.c_contiguous and (self._uniform or self._fallback):
            fcontig = pool.get("mm.fcontig", fin.shape)
            np.copyto(fcontig, fin)
            fin = fcontig
        out2 = out.reshape(self.nout, self.ncells)
        for grp in self._uniform:
            if grp.vel_names:
                velfac = np.broadcast_to(
                    self._vel_product(grp.vel_names, aux), (1,) + self.cell_shape
                )
                g = pool.get("mm.g", (self.nin,) + self.cell_shape)
                np.multiply(fin, velfac, out=g)
                x2 = g.reshape(self.nin, self.ncells)
            else:
                x2 = fin.reshape(self.nin, self.ncells)
            for scalar_names, mat, dbuf in grp.terms:
                c = 1.0
                for name in scalar_names:
                    c *= _scalar_value(aux[name])
                np.multiply(mat.data, c, out=dbuf)
                _csr_accumulate(mat, dbuf, x2, out2)
        if self._fallback is not None:
            self._fallback.apply(fin, aux, out)
        return out

    def _apply_cfg(self, fin, aux, out, assign):
        """The transform-assign shim: compute cell-major, move back."""
        pool = self.pool
        out3 = out.reshape(self.nout, self.ncfg, self.nvel)
        outc = pool.get("mm.outc", (self.ncfg, self.nout, self.nvel))
        self._apply_cfg_into(fin, aux, outc, accumulate=False)
        outc_t = outc.transpose(1, 0, 2)
        if assign:
            np.copyto(out3, outc_t)
        else:
            out3 += outc_t

    def apply_cellmajor(self, fin, aux, outc, accumulate=True):
        if self._uniform or self._fallback is not None:
            raise ValueError("cell-major application requires a pure cfg plan")
        if not self._cfg:
            if not accumulate:
                outc.fill(0.0)
            return outc
        self._apply_cfg_into(fin, aux, outc, accumulate=accumulate)
        return outc

    def _apply_cfg_into(self, fin, aux, outc, accumulate):
        pool = self.pool
        fc = pool.get("mm.fc", (self.ncfg, self.nin, self.nvel))
        fcv = fc.reshape(self.cfg_shape + (self.nin,) + self.vel_shape)
        np.copyto(fcv, np.moveaxis(fin, 0, self.cdim))
        if self._fact is not None:
            u, vt, r_out, r_in = self._fact
            gt = pool.get("mm.gt", (self.ncfg, r_in, self.nvel))
            np.matmul(vt, fc, out=gt)
            acc = pool.get("mm.outhat", (self.ncfg, r_out, self.nvel))
            mm = pool.get("mm.mmhat", (self.ncfg, r_out, self.nvel))
            work, rows, cols = gt, r_out, r_in
            acc_assigned = False
        else:
            acc = outc
            mm = pool.get("mm.mm", (self.ncfg, self.nout, self.nvel))
            work, rows, cols = fc, self.nout, self.nin
            acc_assigned = accumulate
        for igrp, grp in enumerate(self._cfg):
            n_items = len(grp.items)
            coef = pool.get("mm.coef", (n_items, self.ncfg))
            for i, (scalar_names, cfg_names) in enumerate(grp.items):
                c = 1.0
                for name in scalar_names:
                    c *= _scalar_value(aux[name])
                np.multiply(self._cfg_row(aux[cfg_names[0]]), c, out=coef[i])
                for name in cfg_names[1:]:
                    coef[i] *= self._cfg_row(aux[name])
            amat = pool.get("mm.amat", (self.ncfg, rows * cols))
            np.matmul(coef.T, grp.hat if self._fact is not None else grp.mats, out=amat)
            a3 = amat.reshape(self.ncfg, rows, cols)
            if grp.vel_names:
                vprod = self._vel_product(grp.vel_names, aux)
                velfac = np.broadcast_to(
                    vprod.reshape(vprod.shape[self.cdim :]), self.vel_shape
                ).reshape(1, 1, self.nvel)
                gc = pool.get("mm.gc", (self.ncfg, cols, self.nvel))
                np.multiply(work, velfac, out=gc)
            else:
                gc = work
            if igrp == 0 and not acc_assigned:
                np.matmul(a3, gc, out=acc)
            else:
                np.matmul(a3, gc, out=mm)
                acc += mm
        if self._fact is not None:
            if accumulate:
                lift = pool.get("mm.lift", (self.ncfg, self.nout, self.nvel))
                np.matmul(u, acc, out=lift)
                outc += lift
            else:
                np.matmul(u, acc, out=outc)

    @property
    def is_pure_cfg(self):
        return not self._uniform and self._fallback is None


class ModeMajorGrouped:
    """PR 2 ``GroupedOperator``: plan cache keyed on (cell shape, signature)
    with the value-identity fast path."""

    def __init__(self, termset, cdim, vdim, pool=None):
        self.termset = termset
        self.cdim = int(cdim)
        self.vdim = int(vdim)
        self.pool = pool if pool is not None else ScratchPool()
        self._names = sorted({n for sym in termset.entries_by_symbol() for n in sym})
        self._plans = {}
        self._fast_vals = None
        self._fast_shape = None
        self._fast_plan = None

    def plan_fast(self, aux, cell_shape):
        try:
            vals = [aux[n] for n in self._names]
        except KeyError:
            vals = None
        fast = self._fast_vals
        if (
            vals is not None
            and fast is not None
            and cell_shape == self._fast_shape
            and all(a is b for a, b in zip(vals, fast))
        ):
            return self._fast_plan
        sig = aux_signature(self._names, aux, self.cdim, self.vdim)
        key = (tuple(cell_shape), sig)
        plan = self._plans.get(key)
        if plan is None:
            plan = ModeMajorPlan(
                self.termset, self.cdim, self.vdim, aux, cell_shape,
                pool=self.pool,
            )
            self._plans[key] = plan
        self._fast_vals = vals
        self._fast_shape = cell_shape
        self._fast_plan = plan
        return plan

    def apply(self, fin, aux, out, accumulate=True):
        return self.plan_fast(aux, fin.shape[1:]).apply(fin, aux, out, accumulate=accumulate)

    def apply_cellmajor(self, fin, aux, outc, accumulate=True):
        return self.plan_fast(aux, fin.shape[1:]).apply_cellmajor(
            fin, aux, outc, accumulate=accumulate
        )


# --------------------------------------------------------------------- #
def _roll_mul(src, shift, axis, weight, out):
    n = src.shape[axis]
    shift %= n
    if shift == 0:
        np.multiply(src, weight, out=out)
        return out
    dst_head = _axis_slice(src.ndim, axis, slice(0, shift))
    dst_tail = _axis_slice(src.ndim, axis, slice(shift, n))
    src_head = _axis_slice(src.ndim, axis, slice(n - shift, n))
    src_tail = _axis_slice(src.ndim, axis, slice(0, n - shift))
    np.multiply(src[src_head], weight, out=out[dst_head])
    np.multiply(src[src_tail], weight, out=out[dst_tail])
    return out


def _add_rolled(src, shift, axis, out):
    n = src.shape[axis]
    shift %= n
    if shift == 0:
        out += src
        return out
    out[_axis_slice(src.ndim, axis, slice(0, shift))] += src[
        _axis_slice(src.ndim, axis, slice(n - shift, n))
    ]
    out[_axis_slice(src.ndim, axis, slice(shift, n))] += src[
        _axis_slice(src.ndim, axis, slice(0, n - shift))
    ]
    return out


class ModeMajorSolverRhs:
    """The PR 2 modal-solver RHS driver: phase-major state, merged volume
    operator, rolled streaming surfaces, cell-major-carry acceleration
    surfaces with strided face gathers."""

    def __init__(self, solver):
        # ``solver`` is a current (cell-major) VlasovModalSolver; only its
        # generated kernels, grid, and physical constants are reused here.
        self.solver = solver
        self.grid = solver.grid
        g = solver.grid
        cdim, vdim = g.cdim, g.vdim
        self.cdim, self.vdim = cdim, vdim
        self.num_basis = solver.num_basis
        self.num_conf_basis = solver.num_conf_basis
        self.pool = ScratchPool()
        self._base_aux = g.base_aux()
        self._base_aux["qm"] = solver.charge / solver.mass
        self._aux = dict(self._base_aux)
        self._aux_src = None
        self._upwind_pos = []
        for j in range(cdim):
            w = g.velocity_center_array(j)
            self._upwind_pos.append(np.where(w > 0, 1.0, np.where(w < 0, 0.0, 0.5)))

        def _op(ts):
            return ModeMajorGrouped(ts, cdim, vdim, pool=self.pool)

        k = solver.kernels
        self._vol_op = _op(merge_termsets(k.vol_stream + k.vol_accel))
        self._surf_stream_ops = [
            {side: _op(ts) for side, ts in sides.items()} for sides in k.surf_stream
        ]
        self._surf_accel_ops = [
            {
                "L": _op(stack_termsets(
                    [sides[("L", "L")].scaled(0.5), sides[("R", "L")].scaled(0.5)]
                )),
                "R": _op(stack_termsets(
                    [sides[("L", "R")].scaled(0.5), sides[("R", "R")].scaled(0.5)]
                )),
            }
            for sides in k.surf_accel
        ]

    def field_aux(self, em):
        aux = self._aux
        if em is self._aux_src:
            return aux
        g = self.grid
        npc = self.num_conf_basis
        for comp in range(3):
            for k in range(npc):
                aux[f"E{comp}_{k}"] = g.conf_coefficient_array(em[comp, k])
                aux[f"B{comp}_{k}"] = g.conf_coefficient_array(em[3 + comp, k])
        self._aux_src = em
        return aux

    def __call__(self, f, em, out=None):
        g = self.grid
        if out is None:
            out = np.empty_like(f)
        aux = self.field_aux(em)
        self._vol_op.apply(f, aux, out, accumulate=False)
        f_left = self.pool.get("mmsolver.fl", f.shape)
        f_right = self.pool.get("mmsolver.fr", f.shape)
        for j in range(g.cdim):
            axis = 1 + j
            sides = self._surf_stream_ops[j]
            pos = self._upwind_pos[j]
            neg = 1.0 - pos
            np.multiply(f, pos, out=f_left)
            _roll_mul(f, -1, axis, neg, out=f_right)
            sides[("L", "L")].apply(f_left, aux, out)
            sides[("L", "R")].apply(f_right, aux, out)
            buf = self.pool.get("mmsolver.surfbuf", out.shape)
            sides[("R", "L")].apply(f_left, aux, buf, accumulate=False)
            sides[("R", "R")].apply(f_right, aux, buf)
            _add_rolled(buf, 1, axis, out)
        for j in range(g.vdim):
            axis = 1 + g.cdim + j
            n = f.shape[axis]
            if n < 2:
                continue
            sides = self._surf_accel_ops[j]
            sl_lo = _axis_slice(f.ndim, axis, slice(0, n - 1))
            sl_hi = _axis_slice(f.ndim, axis, slice(1, n))
            face_cells = f[sl_lo].shape[1:]
            npb = self.num_basis
            cellmajor = all(
                sides[s].plan_fast(aux, face_cells).is_pure_cfg for s in "LR"
            )
            if not cellmajor:
                stacked = self.pool.get("mmsolver.astack", (2 * npb,) + face_cells)
                sides["L"].apply(f[sl_lo], aux, stacked, accumulate=False)
                sides["R"].apply(f[sl_hi], aux, stacked)
                out[sl_lo] += stacked[:npb]
                out[sl_hi] += stacked[npb:]
                continue
            cdim = g.cdim
            cfg_cells = face_cells[:cdim]
            ncfg = int(np.prod(cfg_cells)) if cfg_cells else 1
            nvel = int(np.prod(face_cells[cdim:]))
            outc = self.pool.get("mmsolver.aoutc", (ncfg, 2 * npb, nvel))
            sides["L"].apply_cellmajor(f[sl_lo], aux, outc, accumulate=False)
            sides["R"].apply_cellmajor(f[sl_hi], aux, outc)
            inc = np.moveaxis(
                outc.reshape(cfg_cells + (2 * npb,) + face_cells[cdim:]), cdim, 0
            )
            out[sl_lo] += inc[:npb]
            out[sl_hi] += inc[npb:]
        return out


class ModeMajorMoments:
    """PR 2 moment path: plan-cached kernels, pooled full-phase scratch,
    mode-major reduction over the trailing velocity axes."""

    def __init__(self, calc):
        g = calc.grid
        self.grid = g
        self.num_conf_basis = calc.num_conf_basis
        self.pool = ScratchPool()
        self._aux = g.base_aux()
        self._aux["vjac"] = float(np.prod([0.5 * dv for dv in g.vel.dx]))
        self._vel_axes = tuple(range(1 + g.cdim, 1 + g.pdim))
        self._ops = {
            name: ModeMajorGrouped(ts, g.cdim, g.vdim, pool=self.pool)
            for name, ts in calc.kernels.moments.items()
        }

    def compute(self, name, f, out=None):
        full = self.pool.get("mmmom.full", (self.num_conf_basis,) + self.grid.cells)
        self._ops[name].apply(f, self._aux, full, accumulate=False)
        return np.sum(full, axis=self._vel_axes, out=out)

    def current_density(self, f, charge, out=None):
        if out is None:
            out = np.zeros((3, self.num_conf_basis) + self.grid.conf.cells)
        elif self.grid.vdim < 3:
            out.fill(0.0)
        for d in range(self.grid.vdim):
            self.compute(f"M1{'xyz'[d]}", f, out=out[d])
            out[d] *= charge
        return out


class ModeMajorMaxwellRhs:
    """PR 2 Maxwell RHS: component-major state ``(8, Npc, *cfg)``, batched
    einsum volume/surface products with periodic rolls on trailing axes.
    (The solver now stores its matrices transposed for the cell-major
    right-multiplies; ``.T`` below recovers the original orientation.)"""

    def __init__(self, maxwell):
        self.mx = maxwell

    def __call__(self, q, current=None, out=None):
        mx = self.mx
        if out is None:
            out = np.zeros_like(q)
        else:
            out.fill(0.0)
        ndim = mx.grid.ndim
        for d in range(ndim):
            rdx = mx._rdx[d]
            g = np.zeros_like(q)
            for tgt, src, coeff in mx._flux_entries[d]:
                g[tgt] += coeff * q[src]
            out += rdx * np.einsum("lm,cm...->cl...", mx._deriv_t[d].T, g)
            axis = 2 + d
            g_left = 0.5 * g
            g_right = 0.5 * np.roll(g, -1, axis=axis)
            fm = mx._faces_t[d]
            inc_left = np.einsum("lm,cm...->cl...", fm[("L", "L")].T, g_left)
            inc_left += np.einsum("lm,cm...->cl...", fm[("L", "R")].T, g_right)
            inc_right = np.einsum("lm,cm...->cl...", fm[("R", "L")].T, g_left)
            inc_right += np.einsum("lm,cm...->cl...", fm[("R", "R")].T, g_right)
            out += rdx * inc_left
            out += rdx * np.roll(inc_right, 1, axis=axis)
        if current is not None:
            out[0:3] -= current / mx.epsilon0
        return out


class ModeMajorCoupledRhs:
    """The full PR 2 coupled RHS with donated mode-major output buffers."""

    def __init__(self, app):
        self.app = app
        self.species_rhs = {
            sp.name: ModeMajorSolverRhs(app.solvers[sp.name]) for sp in app.species
        }
        self.moments = {
            sp.name: ModeMajorMoments(app.moments[sp.name]) for sp in app.species
        }
        self.maxwell_rhs = ModeMajorMaxwellRhs(app.maxwell)
        self._current = None
        self._sp_current = None

    def __call__(self, state, out):
        """state/out are mode-major dicts (``f``: ``(Np, *cells)``, ``em``:
        ``(8, Npc, *cfg)``); ``out`` arrays are filled in place."""
        app = self.app
        em = state["em"]
        for sp in app.species:
            f = state[f"f/{sp.name}"]
            self.species_rhs[sp.name](f, em, out=out[f"f/{sp.name}"])
        if app.field_spec.evolve:
            shape = (3, app.cfg_basis.num_basis) + app.conf_grid.cells
            if self._current is None:
                self._current = np.zeros(shape)
                self._sp_current = np.empty(shape)
            cur = self._current
            cur.fill(0.0)
            for sp in app.species:
                cur += self.moments[sp.name].current_density(
                    state[f"f/{sp.name}"], sp.charge, out=self._sp_current
                )
            self.maxwell_rhs(em, current=cur, out=out["em"])
        else:
            out["em"].fill(0.0)
        return out

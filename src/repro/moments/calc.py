"""Velocity moments of the distribution function.

Moments couple the kinetic equation to the field equations: the current
density (first moment) enters Ampère's law, and the 0th/2nd moments define
density and particle energy — the quantity whose exact evolution (paper
Eq. 9) motivates the alias-free construction.

Like the update kernels, moment kernels are CAS-generated: the velocity
integral of each basis function against 1, ``v_d``, ``|v|^2`` is evaluated
exactly and stored sparsely; runtime work is a sparse contraction plus a
reduction over velocity cells, both in one call of the compiled kernel's
``moments`` entry point (:data:`repro.cas.codegen.FUSED_SWEEP_C`): per
configuration cell each moment's plan sweeps into a one-cell row buffer
whose rows are summed in numpy's pairwise order.  On the numpy tier the
plans sweep a phase-space buffer that ``np.sum`` reduces, the byte
reference of the compiled call.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from ..cas.codegen import cell_threads
from ..engine.pool import ScratchPool
from ..engine.program import joint_label
from ..grid.phase import PhaseGrid
from ..kernels.grouped import GroupedOperator
from ..kernels.vlasov import VlasovKernels
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT

__all__ = ["MomentCalculator", "integrate_conf_field"]

_S_PLAN_APPLIES = _OBS_SLOT["plan_applies"]
_S_PLAN_APPLY_MS = _OBS_SLOT["plan_apply_ms"]


class MomentCalculator:
    """Computes configuration-space modal coefficients of velocity moments.

    Moment kernels compile into the same plans as the update kernels; every
    moment request of one call is one pass over ``f`` (:meth:`sums`) that
    allocates nothing of phase-space size on the compiled tier.

    Parameters
    ----------
    phase_grid:
        The phase-space grid of the species.
    kernels:
        Its generated kernel bundle (provides the moment termsets).
    pool:
        Optional shared scratch pool (one is created when omitted).
    """

    def __init__(
        self,
        phase_grid: PhaseGrid,
        kernels: VlasovKernels,
        pool: Optional[ScratchPool] = None,
    ):
        self.grid = phase_grid
        self.kernels = kernels
        self.num_conf_basis = kernels.cfg_basis.num_basis
        self.pool = pool if pool is not None else ScratchPool()
        self._aux: Dict[str, object] = phase_grid.base_aux()
        self._aux["vjac"] = float(np.prod([0.5 * dv for dv in phase_grid.vel.dx]))
        # cell-major layout: velocity cell axes trail the basis axis
        self._vel_axes = tuple(range(1 + phase_grid.cdim, 1 + phase_grid.pdim))
        cfg, vel = phase_grid.conf.cells, phase_grid.vel.cells
        self._cells = cfg + vel
        self._ncfg = int(np.prod(cfg))
        self._in_shape = cfg + (kernels.num_basis,) + vel
        self._full_shape = cfg + (self.num_conf_basis,) + vel
        self._ops = {
            name: GroupedOperator(ts, phase_grid.cdim, phase_grid.vdim, pool=self.pool)
            for name, ts in kernels.moments.items()
        }
        #: names -> (entry point or None, result, the arguments after ``f``,
        #: span label, plans, what the arguments point into)
        self._calls: Dict[Tuple[str, ...], tuple] = {}
        #: id -> (state, its address), for the states the compiled call saw
        self._addresses: Dict[int, tuple] = {}

    def available(self):
        return sorted(self.kernels.moments)

    def sums(self, names: Tuple[str, ...], f: np.ndarray) -> np.ndarray:
        """Moments ``names`` of cell-major ``f`` as ``(ncfg, len(names),
        Npc)``, in one buffer per ``names`` that the next call rewrites: each
        of ``M0`` (density), ``M1x``/``M1y``/``M1z`` (momentum density) and
        ``M2`` (:math:`\\int |v|^2 f`) is its own plan's sweep summed by
        ``np.sum`` over the velocity cells, bit for bit on either tier.  One
        call is one ``plan_apply`` span and count."""
        call = self._calls.get(names)
        if call is None:
            call = self._calls[names] = self._bind(names)
        if not _OBS.on:
            return self._sum(call, f)
        t0 = _perf_counter()
        res = self._sum(call, f)
        _OBS.finish(call[3], t0, _S_PLAN_APPLIES, _S_PLAN_APPLY_MS)
        return res

    def _sum(self, call: tuple, f: np.ndarray) -> np.ndarray:
        fn, res, tail, _label, plans, _keep = call
        compiled = fn is not None and f.shape == self._in_shape and f.dtype == np.float64
        if not (compiled and f.flags.c_contiguous):
            # the reference form: each plan over a phase-space buffer, summed
            by_moment = res.reshape(self.grid.conf.cells + res.shape[1:])
            for j, plan in enumerate(plans):
                full = self.pool.get("moments.full", self._full_shape)
                plan.run(self._aux, f, full, False)
                np.sum(full, axis=self._vel_axes, out=by_moment[..., j, :])
            return res
        entry = self._addresses.get(id(f))
        if entry is None or entry[0] is not f:
            if len(self._addresses) > 16:
                self._addresses.clear()
            entry = self._addresses[id(f)] = (f, f.ctypes.data)
        fn(entry[1], *tail)
        return res

    def _bind(self, names: Tuple[str, ...]) -> tuple:
        """Each moment's plan, bound to this calculator's (constant) aux,
        and the compiled call over them — None where a plan sweeps with
        numpy."""
        plans = []
        for name in names:
            if name not in self._ops:
                raise KeyError(f"moment {name!r} not generated; available: {self.available()}")
            plan = self._ops[name].plan_for(self._aux, self._cells)
            plan.bind(self._aux)
            plan.refresh(self._aux)
            plans.append(plan)
        npc, ncfg, nmom = self.num_conf_basis, self._ncfg, len(names)
        res = np.empty((ncfg, nmom, npc))
        if not all(plan.tier == "cc" for plan in plans):
            return None, res, (), joint_label(plans), plans, None
        nvel = plans[0].nvel
        table = np.array(
            [[plan.nout, len(plan._groups), plan._cc_table.ctypes.data] for plan in plans],
            dtype=np.int64,
        )
        # one cell's rows of the widest moment per thread
        rs = max(plan.nout for plan in plans) * nvel
        threads = cell_threads(ncfg, ncfg * nmom * rs)
        rows = np.empty((threads, rs))
        tail = (res.ctypes.data, nmom * npc, npc, ncfg, plans[0].nin, nvel, nmom,
                table.ctypes.data, rows.ctypes.data, rs, threads)
        return plans[0]._cc_moments, res, tail, joint_label(plans), plans, (table, rows)

    def compute(
        self, name: str, f: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Return moment ``name`` (see :meth:`sums`) as cell-major
        ``(*cfg_cells, Npc)`` coefficients.  ``out``, when given, receives
        the result (contents discarded)."""
        res = self.sums((name,), f).reshape(self.grid.conf.cells + (self.num_conf_basis,))
        if out is None:
            return res.copy()
        np.copyto(out, res)
        return out

    def current_density(
        self, f: np.ndarray, charge: float, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Species current ``q * (M1x, M1y, M1z)`` as cell-major
        ``(*cfg, 3, Npc)``; missing velocity components are zero.  ``out``,
        when given, receives the result (contents discarded)."""
        vdim = self.grid.vdim
        if out is None:
            out = np.zeros(self.grid.conf.cells + (3, self.num_conf_basis))
        elif vdim < 3:
            out[..., vdim:, :] = 0.0
        res = self.sums(tuple(f"M1{'xyz'[d]}" for d in range(vdim)), f)
        np.copyto(out[..., :vdim, :], res.reshape(self.grid.conf.cells + res.shape[1:]))
        out[..., :vdim, :] *= charge
        return out

    def charge_density(self, f: np.ndarray, charge: float) -> np.ndarray:
        return charge * self.compute("M0", f)

    def particle_energy(self, f: np.ndarray, mass: float) -> float:
        """Total kinetic energy ``(m/2) * int |v|^2 f dz`` (a scalar)."""
        return 0.5 * mass * integrate_conf_field(self.compute("M2", f), self.grid)

    def number(self, f: np.ndarray) -> float:
        """Total particle number ``int f dz``."""
        return integrate_conf_field(self.compute("M0", f), self.grid)


def integrate_conf_field(coeffs: np.ndarray, phase_grid: PhaseGrid) -> float:
    """Integrate a configuration-space DG field (cell-major
    ``(*cfg_cells, Npc)``) over the domain.

    Only the constant mode contributes:
    ``int_cell phi_0 dx = (prod dx/2) * sqrt(2)^cdim``.
    """
    cdim = phase_grid.cdim
    jac = float(np.prod([0.5 * dx for dx in phase_grid.conf.dx]))
    weight = float(np.sqrt(2.0) ** cdim)
    return float(coeffs[..., 0].sum() * jac * weight)

"""Velocity moments of the distribution function.

Moments couple the kinetic equation to the field equations: the current
density (first moment) enters Ampère's law, and the 0th/2nd moments define
density and particle energy — the quantity whose exact evolution (paper
Eq. 9) motivates the alias-free construction.

Like the update kernels, moment kernels are CAS-generated: the velocity
integral of each basis function against 1, ``v_d``, ``|v|^2`` is evaluated
exactly and stored sparsely; runtime work is a sparse contraction plus a
reduction over velocity cells.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.plan import classify_aux_value
from ..engine.pool import ScratchPool
from ..grid.phase import PhaseGrid
from ..kernels.grouped import GroupedOperator
from ..kernels.termset import stack_termsets
from ..kernels.vlasov import VlasovKernels

__all__ = ["MomentCalculator", "integrate_conf_field"]


class MomentCalculator:
    """Computes configuration-space modal coefficients of velocity moments.

    Moment kernels execute through the same plan-cached engine as the update
    kernels (in-place sparse accumulation, pooled scratch), so the current
    coupling in the field equations adds no per-step allocation of
    phase-space size.

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
        self._aux["vjac"] = float(
            np.prod([0.5 * dv for dv in phase_grid.vel.dx])
        )
        # cell-major layout: velocity cell axes trail the basis axis
        self._vel_axes = tuple(
            range(1 + phase_grid.cdim, 1 + phase_grid.pdim)
        )
        self._full_shape = (
            phase_grid.conf.cells + (self.num_conf_basis,) + phase_grid.vel.cells
        )
        self._ops = {
            name: GroupedOperator(ts, phase_grid.cdim, phase_grid.vdim, pool=self.pool)
            for name, ts in kernels.moments.items()
        }
        #: names -> [(their indices, the operator of their stacked kernels)]
        self._stacks: Dict[Tuple[str, ...], List[Tuple[List[int], GroupedOperator]]] = {}

    def available(self):
        return sorted(self.kernels.moments)

    def compute(
        self, name: str, f: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Return moment ``name`` as cell-major ``(*cfg_cells, Npc)``
        coefficients.

        ``name`` is one of ``M0`` (density), ``M1x``/``M1y``/``M1z``
        (momentum density / charge-free current), ``M2`` (:math:`\\int |v|^2 f`).
        ``out``, when given, receives the result (contents discarded).
        """
        try:
            op = self._ops[name]
        except KeyError as exc:
            raise KeyError(
                f"moment {name!r} not generated; available: {self.available()}"
            ) from exc
        full = self.pool.get("moments.full", self._full_shape)
        op.apply(f, self._aux, full, accumulate=False)
        return np.sum(full, axis=self._vel_axes, out=out)

    def stacked(self, names: Tuple[str, ...], f: np.ndarray) -> np.ndarray:
        """Moments ``names`` as ``(len(names), *cfg_cells, Npc)``, each bit
        for bit what :meth:`compute` returns, from as few sweeps as that
        allows: one operator of the stacked kernels (one apply, one
        ``np.sum``) wherever its plan adds up every moment's rows in the
        order the moment's own plan does — all of ``M0``, ``M1x``, ``M2`` in
        1V; in 2V and 3V ``M1y`` / ``M1z`` keep sweeps of their own."""
        runs = self._stacks.get(names)
        if runs is None:
            runs = self._stacks[names] = self._stack(names)
        g, npc = self.grid, self.num_conf_basis
        out = np.empty((len(names),) + g.conf.cells + (npc,))
        # (*cfg, moment, Npc) -> (moment, *cfg, Npc)
        moment_first = (g.cdim,) + tuple(range(g.cdim)) + (g.cdim + 1,)
        for index, op in runs:
            full = self.pool.get("moments.full", g.conf.cells + (op.nout,) + g.vel.cells)
            op.apply(f, self._aux, full, accumulate=False)
            sums = np.sum(full, axis=self._vel_axes).reshape(g.conf.cells + (len(index), npc))
            out[index] = sums.transpose(moment_first)
        return out

    def _stack(self, names: Tuple[str, ...]) -> List[Tuple[List[int], GroupedOperator]]:
        """``names`` split into runs of stackable kernels (see
        :meth:`_stackable`), the kernel with the most sweep groups first,
        each run with the operator of its stacked kernel."""
        order ={name: self._group_order(self.kernels.moments[name]) for name in names}
        runs: List[List[int]] = []
        for i in sorted(range(len(names)), key=lambda i: -len(order[names[i]])):
            run = next(
                (run for run in runs if self._stackable([names[j] for j in run + [i]])),
                None,
            )
            if run is None:
                runs.append([i])
            else:
                run.append(i)
        g = self.grid
        return [
            (run, GroupedOperator(
                stack_termsets([self.kernels.moments[names[i]] for i in run]),
                g.cdim, g.vdim, pool=self.pool,
            ))
            for run in runs
        ]

    def _stackable(self, names: List[str]) -> bool:
        """Whether one plan of the stacked kernels adds up each output row
        as the row's own kernel's plan does: the kernels share no symbol, so
        a row's entries are its kernel's, and the plan's sweep groups come
        in every kernel's own group order."""
        kernels = [self.kernels.moments[name] for name in names]
        syms = [sym for ts in kernels for sym in ts.entries_by_symbol()]
        if len(set(syms)) < len(syms):
            return False
        whole = self._group_order(stack_termsets(kernels))
        for ts in kernels:
            own = self._group_order(ts)
            if [key for key in whole if key in own] != own:
                return False
        return True

    def _group_order(self, termset) -> List[Tuple[bool, Tuple[str, ...]]]:
        """The sweep groups of ``termset``'s plan, in the order the plan
        visits them: per symbol (in ``entries_by_symbol`` order) whether it
        has a configuration factor, and its velocity factors."""
        g = self.grid
        order = []
        for sym in termset.entries_by_symbol():
            tokens = [classify_aux_value(self._aux[n], g.cdim, g.vdim) for n in sym]
            key = ("c" in tokens, tuple(sorted(n for n, t in zip(sym, tokens) if t == "v")))
            if key not in order:
                order.append(key)
        return order

    def current_density(
        self, f: np.ndarray, charge: float, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Species current ``q * (M1x, M1y, M1z)`` as cell-major
        ``(*cfg, 3, Npc)``; missing velocity components are zero.  ``out``,
        when given, receives the result (contents discarded)."""
        if out is None:
            out = np.zeros(self.grid.conf.cells + (3, self.num_conf_basis))
        elif self.grid.vdim < 3:
            out.fill(0.0)
        for d in range(self.grid.vdim):
            self.compute(f"M1{'xyz'[d]}", f, out=out[..., d, :])
            out[..., d, :] *= charge
        return out

    def charge_density(self, f: np.ndarray, charge: float) -> np.ndarray:
        return charge * self.compute("M0", f)

    def particle_energy(self, f: np.ndarray, mass: float) -> float:
        """Total kinetic energy ``(m/2) * int |v|^2 f dz`` (a scalar)."""
        m2 = self.compute("M2", f)
        return 0.5 * mass * integrate_conf_field(m2, self.grid)

    def number(self, f: np.ndarray) -> float:
        """Total particle number ``int f dz``."""
        m0 = self.compute("M0", f)
        return integrate_conf_field(m0, self.grid)


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

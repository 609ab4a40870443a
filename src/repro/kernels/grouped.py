"""Grouped evaluation of generated kernels.

The acceleration kernels couple ~``3 Npc`` runtime symbols (modal field
coefficients times velocity factors) to sparse tensors.  Applying them
term-by-term is exact but, in NumPy, dominated by per-term elementwise
products.  A :class:`GroupedOperator` evaluates the *same* generated
coefficients in a mathematically identical grouped form by compiling them
into :class:`~repro.engine.plan.ExecutionPlan` objects:

1. split every symbol product into (scalar) x (configuration-varying field
   coefficient) x (velocity-varying factor);
2. for each distinct velocity factor, merge the terms into one sparse sweep
   on their exact non-zeros: terms with no configuration dependence share
   one row of entries for every cell; configuration-varying terms get one
   row per configuration cell, ``data[c] = sum_s val_s[c] K_s`` on the union
   of the ``K_s`` patterns — a single small product per application, since
   the field coefficients are constant within a configuration cell.  No
   ``Np x Np`` operator is formed.

States are cell-major ``(*cfg_cells, N, *vel_cells)``
(:mod:`repro.engine.layout`): the sweeps consume the contiguous
per-configuration-cell blocks directly, with no transpose pass.

The result is exactly the contraction
:math:`\\sum C_{lmn} \\alpha_n f_m` at a cost proportional to the non-zero
count, which is what the Fig. 2 scaling claims measure; the solver-level
exactness tests cover this path.

Plans are cached per ``(cell shape, aux signature)`` and **invalidated when
the signature changes** — an aux dict whose arrays change layout between
calls (the historical stale-plan hazard) now transparently compiles a fresh
plan instead of silently producing garbage.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..engine.compile import compile_plan
from ..engine.faces import FaceMap
from ..engine.plan import ExecutionPlan, Signature, aux_signature
from ..engine.pool import ScratchPool
from .termset import AuxValue, TermSet

__all__ = ["GroupedOperator"]


class GroupedOperator:
    """Plan-cached grouped evaluation of a :class:`TermSet`.

    Parameters
    ----------
    termset:
        The generated kernel.
    cdim, vdim:
        Phase-space split; aux arrays varying on the first ``cdim`` cell
        axes are treated as configuration fields, on the last ``vdim`` axes
        as velocity factors.  Symbols varying on both fall back to the
        sparse path.
    pool:
        Optional shared :class:`~repro.engine.pool.ScratchPool`; solvers
        pass one pool to all their operators so scratch is allocated once.
    """

    def __init__(
        self,
        termset: TermSet,
        cdim: int,
        vdim: int,
        pool: Optional[ScratchPool] = None,
    ):
        self.termset = termset
        self.cdim = int(cdim)
        self.vdim = int(vdim)
        self.nout = termset.nout
        self.nin = termset.nin
        self.pool = pool if pool is not None else ScratchPool()
        self._names = sorted(
            {n for sym in termset.entries_by_symbol() for n in sym}
        )
        self._plans: Dict[Tuple[Tuple[int, ...], Signature], ExecutionPlan] = {}
        # identity fast path: when the exact same aux value objects arrive
        # again (in-place stepping reuses them every stage), skip the
        # signature computation; the values are held by reference so object
        # identity cannot be recycled
        self._fast_vals = None
        self._fast_shape = None
        self._fast_plan = None

    # ------------------------------------------------------------------ #
    def plan_for(
        self, aux: Dict[str, AuxValue], cell_shape: Tuple[int, ...]
    ) -> ExecutionPlan:
        """The compiled plan for this aux layout and cell shape (compiling
        on first use; a changed aux signature compiles a fresh plan).

        Compilation routes through :func:`repro.engine.compile.compile_plan`,
        so the plan may be hydrated from the content-addressed disk cache
        rather than compiled, per the active compiler configuration; either
        way it is cached here under the same ``(cell shape, signature)`` key.
        """
        sig = aux_signature(self._names, aux, self.cdim, self.vdim)
        key = (tuple(cell_shape), sig)
        plan = self._plans.get(key)
        if plan is None:
            plan = compile_plan(
                self.termset,
                self.cdim,
                self.vdim,
                aux,
                cell_shape,
                pool=self.pool,
            )
            self._plans[key] = plan
        return plan

    @property
    def num_plans(self) -> int:
        return len(self._plans)

    # ------------------------------------------------------------------ #
    def cell_shape_of(self, fin: np.ndarray) -> Tuple[int, ...]:
        """The ``(*cfg_cells, *vel_cells)`` axes of a cell-major state
        (basis axis at position ``cdim`` removed)."""
        return fin.shape[: self.cdim] + fin.shape[self.cdim + 1 :]

    def apply(
        self,
        fin: np.ndarray,
        aux: Dict[str, AuxValue],
        out: np.ndarray,
        accumulate: bool = True,
    ) -> np.ndarray:
        """Accumulate the kernel action on cell-major state.

        ``fin``/``out`` have shape ``(*cfg_cells, N, *vel_cells)``; with
        ``accumulate=False`` the prior contents of ``out`` are discarded.
        """
        plan, trusted = self.lookup(aux, self.cell_shape_of(fin))
        if trusted:
            return plan.apply_trusted(fin, aux, out, accumulate)
        return plan.apply(fin, aux, out, accumulate=accumulate)

    def apply_faces(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        face_map: FaceMap,
        aux: Dict[str, AuxValue],
        penalty: Optional[float] = None,
    ) -> np.ndarray:
        """Apply this flux operator across the faces of ``face_map``, from
        the trace slots of ``src`` into those of ``dst``
        (:meth:`ExecutionPlan.apply_faces`)."""
        plan, trusted = self.lookup(aux, face_map.cell_shape)
        return plan.apply_faces(src, dst, face_map, aux, penalty, trusted)

    def lookup(
        self, aux: Dict[str, AuxValue], cell_shape: Tuple[int, ...]
    ) -> Tuple[ExecutionPlan, bool]:
        """The plan for ``aux`` and ``cell_shape``, and whether the aux value
        objects are the very ones its last application here saw (the plan's
        own identity guard would re-scan the same objects)."""
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
            return self._fast_plan, True
        plan = self.plan_for(aux, cell_shape)
        self._fast_vals = vals
        self._fast_shape = cell_shape
        self._fast_plan = plan
        return plan, False

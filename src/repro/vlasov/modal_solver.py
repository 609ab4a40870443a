"""The paper's algorithm: alias-free, matrix-free, quadrature-free modal DG
update of the Vlasov equation.

The right-hand side of the semi-discrete system (paper Eq. 12)

.. math::

   \\frac{df_l}{dt} = \\sum_{mn} C_{lmn} \\alpha_n f_m
                    + \\sum_m U_{lm} \\hat F_m

is evaluated by applying the CAS-generated sparse kernels
(:mod:`repro.kernels`) to every phase-space cell at once.  No quadrature is
performed at runtime, no mass/stiffness matrix exists (the orthonormal basis
makes the mass matrix the identity), and every integral entering the update
was computed exactly at generation time — eliminating the aliasing errors
that destabilize nodal kinetic schemes.

State is **cell-major** (:class:`~repro.engine.layout.StateLayout`):
distribution coefficients are ``(*cfg_cells, Np, *vel_cells)`` and the EM
state is ``(*cfg_cells, 8, Npc)``, so every per-cell sweep in the
precompiled-plan engine (:mod:`repro.engine`) reads and writes the state
directly — no transpose or ``ascontiguousarray`` pass anywhere in the
steady-state RHS.

The surface terms :math:`U_{lm} \\hat F_m` are evaluated in the **face-mode
space**.  In the orthonormal basis a mode restricted to the face
:math:`\\xi_d = \\pm 1` is a number times one of the :math:`N_f` modes of
the same family in the other :math:`d - 1` variables (20 of 48 for 2X2V
p=2 serendipity), and the Vlasov flux along :math:`d` does not depend on
:math:`\\xi_d`, so every surface kernel factors exactly as
:math:`\\sigma_t (T^t)^T \\hat H T^s`
(:func:`~repro.kernels.generator.generate_face_termsets`): **trace** (both
face traces of a cell, ``2 Nf`` rows per direction) → **flux** (for every
face the face state — upwinded and periodic for streaming; central on
interior faces, zero on the velocity-domain boundary for acceleration — is
formed from the two trace slots that meet there and the ``Nf x Nf`` flux
operator applied) → **lift** (the face fluxes added to the cell).

The solver keeps the streaming directions, whose faces join neighbouring
configuration cells, apart from the acceleration directions, whose faces
join velocity cells of *one* configuration cell: each set has its own trace
and lift operator, every direction its flux operator and
:class:`~repro.engine.faces.FaceMap`, all ordinary termsets compiled by the
plan engine.  One ``rhs`` is one call of the
:class:`~repro.engine.program.CellProgram` built from them: the streaming
traces and fluxes over the whole grid (a ``2 cdim Nf``-row buffer is the
only state-sized scratch), then one configuration cell at a time — the
acceleration trace → flux in a cell-local block, volume, both lifts — with
no state-sized arithmetic in this module on either kernel tier.  A solver
built with a collision operator (``collisions``: the LBO) has a second
program with the operator's cell table appended, which ``rhs(...,
collide=True)`` runs.  ``rhs`` can also take the time stepper's Shu–Osher
``stage``: each cell's ``df/dt`` is then combined into the state as soon as
it is formed and never exists for the whole grid.

The solver also runs on one block of a larger grid (a ``process:N`` shard):
the grid then declares ghost layers along its decomposed axes
(``Grid.ghost``), ``rhs`` takes ``f`` with the neighbours' cells in them,
and the face map of a decomposed axis names a ghost cell's trace where the
periodic one names the cell a roll away — the same operators on the same
per-cell data, so the block's result is the whole grid's restricted to it,
bit for bit.  Ghost cells get streaming traces only; nothing reads their
acceleration traces.

Numerical fluxes follow Juno et al. (2018) / Gkeyll:

* configuration-space faces: upwind on the sign of the cell-center velocity
  (exact when velocity cells do not straddle ``v = 0``; cells that do
  straddle fall back to a central flux);
* velocity-space faces: central flux, which preserves the discrete
  :math:`J \\cdot E` energy-exchange identity (total particle+field energy
  conservation with a central-flux Maxwell solver);
* velocity-space domain boundaries: zero flux.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..engine.layout import StateLayout
from ..engine.faces import FaceMap, conf_face_map
from ..engine.pool import ScratchPool
from ..engine.program import CellProgram, Stage
from ..grid.phase import PhaseGrid
from ..kernels.generator import FACE_SIGN
from ..kernels.grouped import GroupedOperator
from ..kernels.registry import get_vlasov_kernels
from ..kernels.termset import merge_termsets, stack_termsets
from ..kernels.vlasov import _CROSS

__all__ = ["VlasovModalSolver"]


class VlasovModalSolver:
    """Matrix-free modal DG discretization of the Vlasov equation for one
    species.

    Parameters
    ----------
    phase_grid:
        The configuration x velocity phase-space grid.
    poly_order, family:
        Basis selection (``tensor`` / ``serendipity`` / ``maximal-order``).
    charge, mass:
        Species charge and mass (normalized units).
    collisions:
        Optional collision operator whose term runs inside the cell program
        (``rhs(..., collide=True)``): an object with a ``cell_table`` —
        :class:`~repro.engine.program.CellProgram`'s ``tail`` — and the
        ``aux`` its operators read (:class:`~repro.collisions.LBOCollisions`),
        built on this phase grid.
    """

    def __init__(
        self,
        phase_grid: PhaseGrid,
        poly_order: int,
        family: str = "serendipity",
        charge: float = -1.0,
        mass: float = 1.0,
        collisions=None,
    ):
        self.grid = phase_grid
        self.poly_order = int(poly_order)
        self.family = family
        self.charge = float(charge)
        self.mass = float(mass)
        self.pool = ScratchPool()
        self.kernels = get_vlasov_kernels(
            phase_grid.cdim, phase_grid.vdim, poly_order, family
        )
        self.num_basis = self.kernels.num_basis
        self.num_conf_basis = self.kernels.cfg_basis.num_basis
        self.layout = StateLayout.for_grid(phase_grid, self.num_basis)
        self._cfl = CflEstimate(
            phase_grid, self.poly_order, self.kernels.cfg_basis, self.charge, self.mass
        )
        self._base_aux = phase_grid.base_aux()
        self._base_aux["qm"] = self.charge / self.mass
        # working aux dict refreshed in place by field_aux (geometry symbols
        # plus views of the EM coefficients); the views are rebuilt only when
        # a different em array is passed — under in-place stepping the same
        # array arrives every stage, so they persist
        self._aux = dict(self._base_aux)
        self._aux_src: Optional[np.ndarray] = None
        # Streaming upwind weights per configuration direction: the sign of
        # the paired velocity coordinate at the cell center; 0.5 for cells
        # straddling v = 0 (central fallback).  Aux-style cell-axis shape.
        self._upwind_pos = []
        for j in range(phase_grid.cdim):
            w = phase_grid.velocity_center_array(j)
            self._upwind_pos.append(np.where(w > 0, 1.0, np.where(w < 0, 0.0, 0.5)))
        # Every termset runs through a plan-cached GroupedOperator sharing
        # one scratch pool, every kernel on its exact sparsity (field-coupled
        # ones with per-configuration-cell entries).  All volume kernels
        # are merged into a single operator (one pass over f).
        cdim, vdim = phase_grid.cdim, phase_grid.vdim

        def _op(ts):
            return GroupedOperator(ts, cdim, vdim, pool=self.pool)

        kern = self.kernels
        self._vol_op = _op(merge_termsets(kern.vol_stream + kern.vol_accel))
        # Surface terms in the face-mode space, the streaming directions
        # apart from the acceleration ones: each set has its own trace
        # buffer, trace operator (``f`` -> both face traces of every
        # direction of the set) and lift operator (the fluxes back onto the
        # cell).  The ``j``-th direction of a set owns the slots
        # [2 j Nf, 2 (j+1) Nf) of its buffer: first the cell's trace on its
        # upper face (the face's "L" state), then on its lower face; the
        # lift reads each cell's upper-/lower-face flux from the same slots.
        self.num_face_modes = nf = kern.face_stream[0].flux.nout
        shape = self.layout.shape
        # On one block of a larger grid, ``rhs`` is handed ``f`` with the
        # neighbours' cells in ghost layers along the decomposed axes
        # (``grid.conf.ghost``; none on a whole grid, where every
        # configuration axis wraps periodically instead).
        ghost = phase_grid.conf.ghost
        self._in_shape = tuple(n + 2 * g for n, g in zip(shape, ghost)) + shape[cdim:]
        self._interior = (
            tuple(slice(g, g + n) for n, g in zip(shape, ghost)) if any(ghost) else None
        )
        sets = []
        for first, faces in ((0, kern.face_stream), (cdim, kern.face_accel)):
            sides = [(fk, side) for fk in faces for side in ("L", "R")]
            trace = _op(stack_termsets([fk.trace[side] for fk, side in sides]))
            lift = _op(
                stack_termsets(
                    [fk.trace[side].scaled(FACE_SIGN[side]) for fk, side in sides]
                ).transposed()
            )
            # per direction, the ``Nf x Nf`` flux operator (the central-flux
            # 1/2 of the acceleration ones folded into the generated
            # coefficients) and the map of its faces onto the trace slots
            fluxes = [
                (_op(fk.flux.scaled(0.5) if first else fk.flux),
                 self._face_map(first + j, 2 * len(faces) * nf))
                for j, fk in enumerate(faces)
            ]
            sets.append((trace, lift, fluxes))
        self._flux_ops = sets[0][2] + sets[1][2]
        # One RHS is one call of the program built from these plans: the
        # streaming set over the whole grid, then everything else one
        # configuration cell at a time (``repro.engine.program``).
        self._program = CellProgram(
            self.pool, cdim, self._vol_op, *sets, interior=self._interior
        )
        # ... and with the collision operator's cell table appended, the
        # program of ``rhs(..., collide=True)``; its symbols join the aux
        # (the operator's own value objects, so its plans bind once)
        self.collisions = collisions
        self._collisional = None
        if collisions is not None:
            self._aux.update(collisions.aux)
            self._collisional = CellProgram(
                self.pool, cdim, self._vol_op, *sets, interior=self._interior,
                tail=collisions.cell_table,
            )

    def _face_map(self, q: int, nrows: int) -> FaceMap:
        """The faces normal to phase direction ``q``, as cells of its set's
        ``nrows``-row trace buffers: streaming faces as
        :func:`~repro.engine.faces.conf_face_map` lays them out, upwinded on
        the velocity sign; velocity faces stay inside their (own)
        configuration cell."""
        cdim = self.grid.cdim
        cfg = self.layout.cfg_cells
        vel = self.layout.shape[cdim + 1 :]
        nf = self.num_face_modes
        if q < cdim:
            pos = self._upwind_pos[q][(0,) * cdim]
            return conf_face_map(
                cfg, self.grid.conf.ghost, q, nrows, nf, vel, upwind=(pos, 1.0 - pos)
            )
        j = q - cdim
        dst_shape = cfg + (nrows,) + vel
        own = np.arange(self.layout.ncfg)
        return FaceMap(
            np.stack([own] * 5, axis=1), dst_shape, dst_shape, cdim,
            slots=(2 * j * nf, (2 * j + 1) * nf), nf=nf, vaxis=j,
        )

    # ------------------------------------------------------------------ #
    # aux symbol assembly
    # ------------------------------------------------------------------ #
    def field_aux(self, em: np.ndarray) -> Dict[str, object]:
        """Broadcastable field-coefficient symbols from the EM state.

        Parameters
        ----------
        em:
            EM modal coefficients, cell-major ``(*cfg_cells, >=6, Npc)``
            ordered ``(Ex, Ey, Ez, Bx, By, Bz, ...)`` on the component axis.

        The returned dict is owned by the solver and refreshed in place on
        every call; the field entries are views into ``em``.
        """
        aux = self._aux
        if em is self._aux_src:
            return aux
        g = self.grid
        npc = self.num_conf_basis
        if (
            em.ndim != g.cdim + 2
            or em.shape[: g.cdim] != g.conf.cells
            or em.shape[-2] < 6
            or em.shape[-1] != npc
        ):
            raise ValueError(
                f"EM state must be cell-major {g.conf.cells + ('>=6', npc)}; "
                f"got {em.shape}"
            )
        for comp in range(3):
            for k in range(npc):
                aux[f"E{comp}_{k}"] = g.conf_coefficient_array(em[..., comp, k])
                aux[f"B{comp}_{k}"] = g.conf_coefficient_array(em[..., 3 + comp, k])
        self._aux_src = em
        return aux

    # ------------------------------------------------------------------ #
    # RHS evaluation
    # ------------------------------------------------------------------ #
    def rhs(
        self,
        f: np.ndarray,
        em: np.ndarray,
        out: Optional[np.ndarray] = None,
        stage: Optional[Stage] = None,
        collide: bool = False,
    ) -> np.ndarray:
        """Evaluate ``df/dt`` for the collisionless Vlasov equation, or with
        ``collide`` plus the term of the collision operator the solver was
        built with.

        Parameters
        ----------
        f:
            Distribution coefficients, cell-major
            ``(*cfg_cells, Np, *vel_cells)``, carrying the configuration
            grid's ghost layers (none on a whole grid).
        em:
            EM coefficients, cell-major ``(*cfg_cells, >=6, Npc)``.
        out:
            Optional output array, ``(*cfg_cells, Np, *vel_cells)`` without
            ghosts (contents discarded and replaced).
        stage:
            Optional Shu–Osher stage (:class:`~repro.engine.program.Stage`)
            applied as each configuration cell's ``df/dt`` is formed:
            ``stage.target = a u0 + b (f + dt df/dt)``, returned instead of
            ``df/dt`` — which then exists one cell at a time only.  The
            target is ``f`` itself on a whole grid (updated in place), a
            separate ghost-free array on a block.  The caller must be the
            last writer of ``df/dt`` (nothing else accumulates into it).
        collide:
            Run the collision operator's cell table after the Vlasov terms
            of each cell.  Its primitive moments must be those of ``f``'s
            own cells, refreshed before this call
            (:meth:`~repro.collisions.LBOCollisions.refresh`).
        """
        if f.shape != self._in_shape:
            raise ValueError(
                f"f has shape {f.shape}, expected cell-major {self._in_shape}"
            )
        if out is None and stage is None:
            out = np.empty(self.layout.shape)
        aux = self.field_aux(em)
        program = self._program
        if collide:
            if self._collisional is None:
                raise ValueError("the solver was built without a collision operator")
            program = self._collisional
        return program.run(f, aux, out, stage)

    # ------------------------------------------------------------------ #
    # CFL support
    # ------------------------------------------------------------------ #
    def max_frequency(self, em: np.ndarray) -> float:
        """CFL frequency: sum over directions of
        ``(2p+1) * max|alpha_d| / dx_d`` (Gkeyll's stability estimate)."""
        return self._cfl(em)


class CflEstimate:
    """A species' CFL frequency from the EM coefficients: the sum over
    phase directions of ``(2p+1) * max|alpha_d| / dx_d``.  Everything but
    the field's maxima is fixed at construction — the streaming terms' sum,
    the norm of the constant configuration mode, per velocity direction the
    speeds its magnetic terms multiply — so a call adds the floats of the
    whole estimate in the same order."""

    def __init__(self, grid: PhaseGrid, poly_order: int, cfg_basis, charge: float, mass: float):
        k = 2 * int(poly_order) + 1
        self.stream = 0.0
        for j in range(grid.cdim):
            self.stream += k * grid.max_velocity(j) / grid.dx[j]
        self.phi0 = cfg_basis.norm(0)
        self.kqm = k * abs(charge / mass)
        # per velocity direction: (its axis, [(velocity bound, B component)
        # of each cross term], its cell width)
        self.accel = [
            (
                j,
                [(grid.max_velocity(vj), 3 + bk) for vj, bk, _sign in _CROSS[j] if vj < grid.vdim],
                grid.dx[grid.cdim + j],
            )
            for j in range(grid.vdim)
        ]

    def __call__(self, em: np.ndarray) -> float:
        freq, phi0 = self.stream, self.phi0
        for j, cross, dv in self.accel:
            accel = float(np.max(np.abs(em[..., j, 0]))) * phi0
            for vmax, comp in cross:
                accel += vmax * (float(np.max(np.abs(em[..., comp, 0]))) * phi0)
            freq += self.kqm * accel / dv
        return freq


"""Dougherty / Lenard–Bernstein (LBO) Fokker–Planck collision operator.

The paper's footnote 7 reports that the alias-free modal DG discretization of
this operator roughly doubles the cost of the spatial update (the
``~8e6`` vs ``1.67e7`` DOFs/s/core efficiency numbers).  The operator is

.. math::

   C[f] = \\nu \\, \\nabla_v \\cdot
          \\big[ (\\mathbf{v} - \\mathbf{u}) f + v_{th}^2 \\nabla_v f \\big],

with primitive moments :math:`\\mathbf{u}(x)` and :math:`v_{th}^2(x)`
obtained from the distribution by *weak division* (no aliasing), the drag
flux :math:`\\nu (u_d(x) - v_d)` with a central numerical flux, and the
diffusion term by a two-pass LDG scheme with alternating one-sided fluxes
and exact weak multiplication by :math:`v_{th}^2`.

Every pass is a DG advection along one velocity direction and runs the way
the Vlasov acceleration does: volume, then **trace** (each cell's two face
traces into a ``2 Nf``-row block) → **flux** (across the velocity faces of
the configuration cell: the sum of the two traces meeting there, zero on the
domain boundary) → **lift**.  Per direction the passes share the face map
and the lift; the numerical flux's weights of the lower / upper cell live in
the trace operator — (1, 1) for the drag, whose flux operator carries the
central 1/2, (0, 1) for the LDG gradient, (1, 0) for the divergence.  The
drag flux depends on ``v_d``, but on a face it is the face velocity, one
value for both cells, so it factors through the face modes as well
(:func:`~repro.kernels.generator.generate_face_termsets`).

No velocity face leaves its configuration cell, so after its moments the
whole operator is a table of cell instructions (:attr:`LBOCollisions.cell_table`)
that a modal species' solver appends to its cell program
(:mod:`repro.engine.program`); :meth:`LBOCollisions.refresh` computes the
moments first, :meth:`LBOCollisions.rhs` runs the table as state-sized
passes — the reference form, bit for bit the compiled one.

Conservation: density is conserved to machine precision (all interior face
terms cancel; domain velocity boundaries are zero-flux).  Momentum and
energy are conserved up to the truncation of the velocity domain (Gkeyll
adds explicit boundary corrections; here the tests bound the residual).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.faces import FaceMap
from ..engine.pool import ScratchPool
from ..engine.program import Faces, Scale, Subtract, Sweep, bound_plans, run_passes
from ..grid.phase import PhaseGrid
from ..kernels.grouped import GroupedOperator
from ..kernels.registry import get_lbo_kernels
from ..moments.calc import MomentCalculator
from ..moments.weak_ops import weak_divide, weak_multiplication_matrix, weak_multiply

__all__ = ["LBOCollisions"]


class LBOCollisions:
    """Self-species Dougherty collisions with constant collisionality ``nu``.

    Parameters
    ----------
    phase_grid, poly_order, family:
        Discretization (must match the species' Vlasov solver).
    nu:
        Collision frequency (normalized).
    fixed_u, fixed_vtsq:
        Optional frozen primitive moments (cell-major configuration-space
        modal coefficient arrays: ``fixed_u`` is ``(vdim, *cfg, Npc)``,
        ``fixed_vtsq`` is ``(*cfg, Npc)``).  Each one given replaces its
        counterpart computed from ``f`` every evaluation (self-consistent
        collisions).
    """

    def __init__(
        self,
        phase_grid: PhaseGrid,
        poly_order: int,
        family: str = "serendipity",
        nu: float = 1.0,
        fixed_u: Optional[np.ndarray] = None,
        fixed_vtsq: Optional[np.ndarray] = None,
    ):
        self.grid = phase_grid
        self.nu = float(nu)
        self.poly_order = int(poly_order)
        self.family = family
        cdim, vdim = phase_grid.cdim, phase_grid.vdim
        #: the generated termsets, shared by every operator of this
        #: discretization in the process; the operators below are this grid's
        self.kernels = get_lbo_kernels(cdim, vdim, poly_order, family)
        self.basis = self.kernels.phase_basis
        self.cfg_basis = self.kernels.cfg_basis
        self.fixed_u = fixed_u
        self.fixed_vtsq = fixed_vtsq
        npc = self.cfg_basis.num_basis
        self._moment_names = ("M0",) + tuple(f"M1{'xyz'[j]}" for j in range(vdim)) + ("M2",)
        #: the symbols the operators read: ``u{j}_{k}`` / ``vtsq_{k}`` are
        #: views into ``_prim``, which :meth:`refresh` rewrites in place, so
        #: the plans — a solver's program adopts these values — bind once
        self.aux = aux = phase_grid.base_aux()
        aux["nu"] = self.nu
        self._prim = np.zeros((vdim + 1, npc) + phase_grid.conf.cells)
        # (state token, id of f) that ``_prim`` holds the moments of
        self._prim_key: Optional[tuple] = None
        self._norm0 = self.cfg_basis.norm(0)
        for k in range(npc):
            for j in range(vdim):
                aux[f"u{j}_{k}"] = phase_grid.conf_coefficient_array(self._prim[j, k])
            aux[f"vtsq_{k}"] = phase_grid.conf_coefficient_array(self._prim[vdim, k])
        # every generated termset executes through a plan-cached
        # GroupedOperator on cell-major state, sharing one scratch pool
        self.pool = ScratchPool()

        def _op(ts):
            return GroupedOperator(ts, cdim, vdim, pool=self.pool)

        # Per velocity direction ``j``: the volume, trace and flux operator of
        # each pass (drag, LDG gradient and divergence), the lift, and the
        # velocity faces of every configuration cell as the two slots of the
        # ``2 Nf``-row trace block (upper face, then lower face).
        nf = self.kernels.nf
        cells = phase_grid.conf.cells
        trace_shape = cells + (2 * nf,) + phase_grid.vel.cells
        own = np.stack([np.arange(int(np.prod(cells)))] * 5, axis=1)
        vtsq_mult = _op(self.kernels.vtsq_mult)
        drag_table, ldg_table = [], []
        for j, kj in enumerate(self.kernels.directions):
            # the face state reads the lower cell's upper-face trace ("L")
            # and / or the upper cell's lower-face trace ("R")
            trace = {sides: _op(ts) for sides, ts in kj.trace.items()}
            lift = _op(kj.lift)
            faces = FaceMap(own, trace_shape, trace_shape, cdim, slots=(0, nf), nf=nf, vaxis=j)

            def advect(vol, sides, flux, src, dst, accumulate):
                """One pass along ``j``: volume, then trace -> flux -> lift."""
                return [Sweep(vol, src, dst, accumulate), Sweep(trace[sides], src, "trace"),
                        Faces(flux, faces, "trace"), Sweep(lift, "trace", dst, True)]

            # drag: central flux on interior velocity faces, zero-flux
            # boundaries; diffusion: two-pass LDG, the gradient with the
            # right-biased flux, the divergence with the left-biased one
            drag_table += advect(_op(kj.drag_vol), "LR", _op(kj.drag_flux), "f", "out", True)
            unit_vol, unit_flux = _op(kj.unit_vol), _op(kj.unit_flux)
            ldg_table += advect(unit_vol, "R", unit_flux, "f", "grad", False) + [
                Scale("grad", -1.0),  # weak derivative = -(unit advection RHS)
                Sweep(vtsq_mult, "grad", "vg"),  # vtsq(x) weakly, alias-free
                Scale("vg", self.nu),
            ] + advect(unit_vol, "L", unit_flux, "vg", "grad", False) + [
                # the divergence, in the gradient's block (dead by then):
                # out += -(unit advection RHS)(vg) = +d(vg)/dv
                Subtract("out", "grad"),
            ]
        nb = self.basis.num_basis
        #: ``C[f]`` after the moments, accumulated into ``out``, as a
        #: :class:`~repro.engine.program.CellProgram` ``tail``: its scratch
        #: blocks (name -> rows) and its instructions, every drag pass first
        self.cell_table = ({"trace": 2 * nf, "grad": nb, "vg": nb}, drag_table + ldg_table)

    def on_grid(self, phase_grid: PhaseGrid) -> "LBOCollisions":
        """The same operator on another phase grid (collisions are
        configuration-local, so on a block of this grid it is this operator
        restricted to the block's cells)."""
        if self.fixed_u is not None or self.fixed_vtsq is not None:
            raise ValueError(
                "frozen LBO moments are shaped on their grid; build the "
                "operator on the new grid instead"
            )
        return LBOCollisions(phase_grid, self.poly_order, self.family, nu=self.nu)

    # ------------------------------------------------------------------ #
    def primitive_moments(self, f: np.ndarray, moments: MomentCalculator):
        """Weak-division primitive moments ``(u, vtsq)`` from ``f``
        (cell-major: ``u`` is ``(vdim, *cfg, Npc)``, ``vtsq`` ``(*cfg, Npc)``),
        a frozen one in place of its computed counterpart."""
        if self.fixed_u is not None and self.fixed_vtsq is not None:
            return self.fixed_u, self.fixed_vtsq
        vdim = self.grid.vdim
        m = moments.stacked(self._moment_names, f)
        m0, m2 = m[0], m[vdim + 1]
        a = weak_multiplication_matrix(m0, self.cfg_basis)  # one for every division
        u = np.zeros((vdim,) + m0.shape)
        u_dot_m1 = np.zeros_like(m0)
        for j in range(vdim):
            u[j] = weak_divide(m[1 + j], m0, self.cfg_basis, a)
            u_dot_m1 += weak_multiply(u[j], m[1 + j], self.cfg_basis)
        vtsq = weak_divide((m2 - u_dot_m1) / vdim, m0, self.cfg_basis, a)
        return (
            u if self.fixed_u is None else self.fixed_u,
            vtsq if self.fixed_vtsq is None else self.fixed_vtsq,
        )

    def refresh(
        self, f: np.ndarray, moments: MomentCalculator, token: Optional[tuple] = None
    ) -> None:
        """Set the primitive-moment symbols of :attr:`aux` to those of ``f``
        (the own cells) — what :attr:`cell_table` reads; run it before the
        table, whose stage may overwrite ``f``.  With ``token``, the owning
        system's state token (``f`` is its state under it), symbols already
        set from the same ``f`` under the same token are kept."""
        key = None if token is None else (token, id(f))
        if key is not None and key == self._prim_key:
            return
        u, vtsq = self.primitive_moments(f, moments)
        cdim, vdim = self.grid.cdim, self.grid.vdim
        cells = tuple(range(cdim))
        # the coefficient axis ahead of the configuration cells
        self._prim[:vdim] = u.transpose((0, cdim + 1) + tuple(c + 1 for c in cells))
        self._prim[vdim] = vtsq.transpose((cdim,) + cells)
        self._prim_key = key

    def rhs(
        self,
        f: np.ndarray,
        moments: MomentCalculator,
        out: Optional[np.ndarray] = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Evaluate (or accumulate) ``C[f]``: :attr:`cell_table` as
        state-sized passes."""
        if out is None:
            out = np.zeros_like(f)
        elif not accumulate:
            out.fill(0.0)
        self.refresh(f, moments)
        g = self.grid
        blocks, table = self.cell_table
        arrays = {"f": f, "out": out}
        for name, rows in blocks.items():
            arrays[name] = self.pool.get(f"program.{name}", g.conf.cells + (rows,) + g.vel.cells)
        cells = g.conf.cells + g.vel.cells
        plans = bound_plans([(getattr(ins, "op", None), cells) for ins in table], self.aux)
        run_passes(table, plans, arrays, self.aux)
        return out

    def max_frequency(
        self, f: np.ndarray, moments: MomentCalculator, token: Optional[tuple] = None
    ) -> float:
        """CFL estimate: drag ``nu (2p+1) vmax/dv`` plus parabolic diffusion
        limit ``nu vtsq (2p+1)^2 / dv^2`` per velocity direction, with
        ``vtsq`` the largest cell-average thermal speed of ``f`` — a
        function of the state alone, like the Vlasov solver's estimate.
        The moments are taken through :meth:`refresh` (``token`` as there),
        so the next stage with that token reuses them."""
        g = self.grid
        p = self.poly_order
        self.refresh(f, moments, token)
        vtsq_max = max(float(np.max(np.abs(self._prim[g.vdim, 0]))) * self._norm0, 1e-30)
        freq = 0.0
        for j in range(g.vdim):
            dv = g.vel.dx[j]
            vmax = g.max_velocity(j)
            freq += self.nu * (2 * p + 1) * vmax / dv
            freq += self.nu * vtsq_max * (2 * p + 1) ** 2 / dv ** 2
        return freq

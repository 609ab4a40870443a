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
the Vlasov acceleration does (:mod:`repro.vlasov.modal_solver`): the volume
kernel, then **trace** (each cell's two face traces into the ``2 Nf`` rows
of a trace buffer) → **flux** (one
:meth:`~repro.engine.plan.ExecutionPlan.apply_faces` over the velocity
faces of every configuration cell: the face state is the sum of the two
traces meeting there, zero on the velocity-domain boundary) → **lift** (the
face flux back onto both cells).  Per direction the passes share the face
map and the lift; the numerical flux's weights of the lower / upper cell
live in the trace operator — (1, 1) for the drag, whose flux operator
carries the central 1/2, (0, 1) for the LDG gradient, (1, 0) for the LDG
divergence — and the drag and the unit flux each have a flux operator.  The
drag flux depends on ``v_d``, but on a face it is the face velocity, one
value for both cells, so it factors through the face modes as well
(:func:`~repro.kernels.generator.generate_face_termsets`).

Conservation: density is conserved to machine precision (all interior face
terms cancel; domain velocity boundaries are zero-flux).  Momentum and
energy are conserved up to the truncation of the velocity domain (Gkeyll
adds explicit boundary corrections; here the tests bound the residual).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cas.poly import Poly
from ..engine.faces import FaceMap
from ..engine.pool import ScratchPool
from ..grid.phase import PhaseGrid
from ..kernels.generator import (
    FACE_SIGN,
    FluxSpec,
    FluxTerm,
    generate_face_termsets,
    generate_multiply_termset,
    generate_volume_termset,
)
from ..kernels.grouped import GroupedOperator
from ..kernels.registry import get_vlasov_kernels
from ..kernels.termset import TermSet, stack_termsets
from ..kernels.vlasov import _cfg_poly_unnormalized
from ..moments.calc import MomentCalculator
from ..moments.weak_ops import weak_divide

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
        ``fixed_vtsq`` is ``(*cfg, Npc)``).  When omitted they are
        recomputed from ``f`` every evaluation (self-consistent collisions).
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
        self.kernels = get_vlasov_kernels(cdim, vdim, poly_order, family)
        self.basis = self.kernels.phase_basis
        self.cfg_basis = self.kernels.cfg_basis
        self.fixed_u = fixed_u
        self.fixed_vtsq = fixed_vtsq
        pdim = phase_grid.pdim
        npc = self.cfg_basis.num_basis
        # One aux dict for the operator's lifetime: the primitive-moment
        # symbols ``u{j}_{k}`` / ``vtsq_{k}`` are views into ``_prim``, which
        # every evaluation refreshes in place — the plans see the same value
        # objects on every apply, so they bind once.
        self._aux = aux = phase_grid.base_aux()
        aux["nu"] = self.nu
        self._prim = np.zeros((vdim + 1, npc) + phase_grid.conf.cells)
        for k in range(npc):
            for j in range(vdim):
                aux[f"u{j}_{k}"] = phase_grid.conf_coefficient_array(self._prim[j, k])
            aux[f"vtsq_{k}"] = phase_grid.conf_coefficient_array(self._prim[vdim, k])
        # every generated termset executes through a plan-cached
        # GroupedOperator on cell-major state, sharing one scratch pool
        self.pool = ScratchPool()

        def _op(ts):
            return GroupedOperator(ts, cdim, vdim, pool=self.pool)

        cfg_poly = [
            (_cfg_poly_unnormalized(pdim, alpha), self.cfg_basis.norm(k))
            for k, alpha in enumerate(self.cfg_basis.indices)
        ]
        # Per velocity direction ``j``: the volume, trace and flux operator of
        # each pass (``drag``, LDG ``grad`` and ``div``), the lift, and the
        # velocity faces of every configuration cell as slots of one
        # ``2 Nf``-row trace buffer (upper face, then lower face).
        self._passes: List[Dict[str, Tuple[GroupedOperator, ...]]] = []
        self._lift: List[GroupedOperator] = []
        self._faces: List[FaceMap] = []
        nf = self.kernels.face_accel[0].flux.nout
        cells = phase_grid.conf.cells
        self._trace_shape = cells + (2 * nf,) + phase_grid.vel.cells
        table = np.stack([np.arange(int(np.prod(cells)))] * 5, axis=1)
        zero = TermSet(nf, self.basis.num_basis, {})
        for j in range(vdim):
            dv = cdim + j
            # drag flux alpha_j = nu * (u_j(x) - v_j)
            drag = FluxSpec(
                dim=dv,
                terms=(
                    FluxTerm(sym=("nu", f"w{dv}"), poly=Poly.one(pdim), scale=-1.0),
                    FluxTerm(
                        sym=("nu", f"half_dxv{dv}"), poly=Poly.variable(pdim, dv), scale=-1.0
                    ),
                )
                + tuple(
                    FluxTerm(sym=("nu", f"u{j}_{k}"), poly=poly, scale=norm)
                    for k, (poly, norm) in enumerate(cfg_poly)
                ),
            )
            unit = FluxSpec(dim=dv, terms=(FluxTerm(sym=(), poly=Poly.one(pdim)),))
            fk = generate_face_termsets(self.basis, drag)
            # the face state reads the lower cell's upper-face trace ("L")
            # and / or the upper cell's lower-face trace ("R")
            trace = {
                sides: _op(
                    stack_termsets([fk.trace[s] if s in sides else zero for s in "LR"])
                )
                for sides in ("LR", "R", "L")
            }
            unit_vol = _op(generate_volume_termset(self.basis, unit))
            unit_flux = _op(generate_face_termsets(self.basis, unit).flux)
            self._passes.append(
                {
                    "drag": (
                        _op(generate_volume_termset(self.basis, drag)),
                        trace["LR"],
                        _op(fk.flux.scaled(0.5)),  # the central flux's 1/2
                    ),
                    "grad": (unit_vol, trace["R"], unit_flux),
                    "div": (unit_vol, trace["L"], unit_flux),
                }
            )
            self._lift.append(
                _op(
                    stack_termsets(
                        [fk.trace[s].scaled(FACE_SIGN[s]) for s in "LR"]
                    ).transposed()
                )
            )
            self._faces.append(
                FaceMap(
                    table, self._trace_shape, self._trace_shape, cdim,
                    slots=(0, nf), nf=nf, vaxis=j,
                )
            )
        self._vtsq_mult = _op(
            generate_multiply_termset(
                self.basis,
                [
                    FluxTerm(sym=(f"vtsq_{k}",), poly=poly, scale=norm)
                    for k, (poly, norm) in enumerate(cfg_poly)
                ],
            )
        )

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
        (cell-major: ``u`` is ``(vdim, *cfg, Npc)``, ``vtsq`` ``(*cfg, Npc)``)."""
        if self.fixed_u is not None and self.fixed_vtsq is not None:
            return self.fixed_u, self.fixed_vtsq
        vdim = self.grid.vdim
        m0 = moments.compute("M0", f)
        m2 = moments.compute("M2", f)
        npc = self.cfg_basis.num_basis
        u = np.zeros((vdim,) + self.grid.conf.cells + (npc,))
        from ..moments.weak_ops import weak_multiply

        u_dot_m1 = np.zeros_like(m0)
        for j in range(vdim):
            m1 = moments.compute(f"M1{'xyz'[j]}", f)
            u[j] = weak_divide(m1, m0, self.cfg_basis)
            u_dot_m1 += weak_multiply(u[j], m1, self.cfg_basis)
        vtsq = weak_divide((m2 - u_dot_m1) / vdim, m0, self.cfg_basis)
        return u, vtsq

    # ------------------------------------------------------------------ #
    def rhs(
        self,
        f: np.ndarray,
        moments: MomentCalculator,
        out: Optional[np.ndarray] = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Evaluate (or accumulate) ``C[f]``."""
        if out is None:
            out = np.zeros_like(f)
            accumulate = True  # freshly zeroed
        elif not accumulate:
            out.fill(0.0)
        g = self.grid
        u, vtsq = self.primitive_moments(f, moments)
        aux = self._aux
        self._prim[: g.vdim] = np.moveaxis(u, -1, 1)
        self._prim[g.vdim] = np.moveaxis(vtsq, -1, 0)

        # drag: central flux on interior velocity faces, zero-flux boundaries
        for j in range(g.vdim):
            self._advect(f, out, j, "drag")
        # diffusion: two-pass LDG; grad uses right-biased flux, div left-biased
        for j in range(g.vdim):
            grad = self.pool.get("lbo.grad", f.shape)
            self._advect(f, grad, j, "grad", accumulate=False)
            grad *= -1.0  # weak derivative = -(unit advection RHS)
            # multiply by vtsq(x) weakly (alias-free projection)
            vg = self.pool.get("lbo.vg", f.shape)
            self._vtsq_mult.apply(grad, aux, vg, accumulate=False)
            vg *= self.nu
            div = self.pool.get("lbo.div", f.shape)
            self._advect(vg, div, j, "div", accumulate=False)
            out -= div  # out += -(unit advection RHS)(vg) = +d(vg)/dv
        return out

    def _advect(
        self, f: np.ndarray, out: np.ndarray, j: int, name: str, accumulate: bool = True
    ) -> None:
        """One DG advection pass along velocity direction ``j`` into ``out``:
        volume, then trace -> flux -> lift through the velocity faces."""
        vol, trace, flux = self._passes[j][name]
        aux = self._aux
        g = self.pool.get("lbo.trace", self._trace_shape)
        vol.apply(f, aux, out, accumulate)
        trace.apply(f, aux, g, accumulate=False)
        flux.apply_faces(g, g, self._faces[j], aux)
        self._lift[j].apply(g, aux, out)

    def max_frequency(self, f: np.ndarray, moments: MomentCalculator) -> float:
        """CFL estimate: drag ``nu (2p+1) vmax/dv`` plus parabolic diffusion
        limit ``nu vtsq (2p+1)^2 / dv^2`` per velocity direction, with
        ``vtsq`` the largest cell-average thermal speed of ``f`` — a pure
        function of the state, like the Vlasov solver's estimate."""
        g = self.grid
        p = self.poly_order
        _, vtsq = self.primitive_moments(f, moments)
        vtsq_max = max(
            float(np.max(np.abs(vtsq[..., 0]))) * self.cfg_basis.norm(0), 1e-30
        )
        freq = 0.0
        for j in range(g.vdim):
            dv = g.vel.dx[j]
            vmax = g.max_velocity(j)
            freq += self.nu * (2 * p + 1) * vmax / dv
            freq += self.nu * vtsq_max * (2 * p + 1) ** 2 / dv ** 2
        return freq

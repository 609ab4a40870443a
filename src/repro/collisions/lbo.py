"""Dougherty / Lenard–Bernstein (LBO) Fokker–Planck collision operator.

The paper's footnote 7 reports that the alias-free modal DG discretization of
this operator roughly doubles the cost of the spatial update (the
``~8e6`` vs ``1.67e7`` DOFs/s/core efficiency numbers).  The operator is

.. math::

   C[f] = \\nu \\, \\nabla_v \\cdot
          \\big[ (\\mathbf{v} - \\mathbf{u}) f + v_{th}^2 \\nabla_v f \\big],

with primitive moments :math:`\\mathbf{u}(x)` and :math:`v_{th}^2(x)`
obtained from the distribution by *weak division* (no aliasing), the drag
flux handled by the same CAS-generated volume/surface kernels as the Vlasov
acceleration (it is linear in ``v``), and the diffusion term by a two-pass
LDG scheme with alternating one-sided fluxes and exact weak multiplication
by :math:`v_{th}^2`.

Conservation: density is conserved to machine precision (all interior face
terms cancel; domain velocity boundaries are zero-flux).  Momentum and
energy are conserved up to the truncation of the velocity domain (Gkeyll
adds explicit boundary corrections; here the tests bound the residual).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..cas.poly import Poly
from ..engine.pool import ScratchPool
from ..grid.phase import PhaseGrid
from ..kernels.generator import (
    FluxSpec,
    FluxTerm,
    generate_surface_termsets,
    generate_volume_termset,
)
from ..kernels.grouped import GroupedOperator
from ..kernels.registry import get_vlasov_kernels
from ..kernels.vlasov import _cfg_poly_unnormalized
from ..moments.calc import MomentCalculator
from ..moments.weak_ops import weak_divide
from .ops import apply_advection, slice_aux

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
        # objects on every apply, so they bind once.  The face-restricted
        # variants (velocity factors sliced to the interior faces of one
        # velocity axis) are views of the same arrays, built once as well.
        self._aux = aux = phase_grid.base_aux()
        aux["nu"] = self.nu
        self._prim = np.zeros((vdim + 1, npc) + phase_grid.conf.cells)
        for k in range(npc):
            for j in range(vdim):
                aux[f"u{j}_{k}"] = phase_grid.conf_coefficient_array(self._prim[j, k])
            aux[f"vtsq_{k}"] = phase_grid.conf_coefficient_array(self._prim[vdim, k])
        self._face_aux = [
            (
                slice_aux(aux, cdim + j, slice(0, n - 1)),
                slice_aux(aux, cdim + j, slice(1, n)),
            )
            for j, n in enumerate(phase_grid.vel.cells)
        ]
        # every generated termset executes through a plan-cached
        # GroupedOperator on cell-major state, sharing one scratch pool
        self.pool = ScratchPool()

        def _op(ts):
            return GroupedOperator(ts, cdim, vdim, pool=self.pool)

        # Drag kernels: flux alpha_j = nu * (u_j(x) - v_j) along velocity dim j
        self._drag_vol = []
        self._drag_surf = []
        for j in range(vdim):
            dv = cdim + j
            terms: List[FluxTerm] = [
                FluxTerm(sym=("nu", f"w{dv}"), poly=Poly.one(pdim), scale=-1.0),
                FluxTerm(
                    sym=("nu", f"half_dxv{dv}"), poly=Poly.variable(pdim, dv), scale=-1.0
                ),
            ]
            for k in range(npc):
                terms.append(
                    FluxTerm(
                        sym=("nu", f"u{j}_{k}"),
                        poly=_cfg_poly_unnormalized(pdim, self.cfg_basis.indices[k]),
                        scale=self.cfg_basis.norm(k),
                    )
                )
            spec = FluxSpec(dim=dv, terms=tuple(terms))
            self._drag_vol.append(_op(generate_volume_termset(self.basis, spec)))
            self._drag_surf.append(
                {
                    side: _op(ts)
                    for side, ts in generate_surface_termsets(self.basis, spec).items()
                }
            )
        # Diffusion kernels: unit advection along each velocity dim (LDG), and
        # weak multiplication by the config field vtsq.
        self._unit_vol = []
        self._unit_surf = []
        for j in range(vdim):
            dv = cdim + j
            spec = FluxSpec(
                dim=dv, terms=(FluxTerm(sym=(), poly=Poly.one(pdim)),)
            )
            self._unit_vol.append(_op(generate_volume_termset(self.basis, spec)))
            self._unit_surf.append(
                {
                    side: _op(ts)
                    for side, ts in generate_surface_termsets(self.basis, spec).items()
                }
            )
        from ..kernels.generator import generate_multiply_termset

        mult_terms = [
            FluxTerm(
                sym=(f"vtsq_{k}",),
                poly=_cfg_poly_unnormalized(pdim, self.cfg_basis.indices[k]),
                scale=self.cfg_basis.norm(k),
            )
            for k in range(npc)
        ]
        self._vtsq_mult = _op(generate_multiply_termset(self.basis, mult_terms))

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
        cdim = g.cdim
        u, vtsq = self.primitive_moments(f, moments)
        aux = self._aux
        self._prim[: g.vdim] = np.moveaxis(u, -1, 1)
        self._prim[g.vdim] = np.moveaxis(vtsq, -1, 0)

        # drag: central flux on interior velocity faces, zero-flux boundaries
        for j in range(g.vdim):
            apply_advection(
                f,
                aux,
                out,
                self._drag_vol[j],
                self._drag_surf[j],
                self._face_aux[j],
                cdim,
                j,
                self.pool,
                weights=(0.5, 0.5),
            )
        # diffusion: two-pass LDG; grad uses right-biased flux, div left-biased
        for j in range(g.vdim):
            grad = self.pool.get("lbo.grad", f.shape, zero=True)
            apply_advection(
                f,
                aux,
                grad,
                self._unit_vol[j],
                self._unit_surf[j],
                self._face_aux[j],
                cdim,
                j,
                self.pool,
                weights=(0.0, 1.0),
            )
            grad *= -1.0  # weak derivative = -(unit advection RHS)
            # multiply by vtsq(x) weakly (alias-free projection)
            vg = self.pool.get("lbo.vg", f.shape, zero=True)
            self._vtsq_mult.apply(grad, aux, vg)
            vg *= self.nu
            div = self.pool.get("lbo.div", f.shape, zero=True)
            apply_advection(
                vg,
                aux,
                div,
                self._unit_vol[j],
                self._unit_surf[j],
                self._face_aux[j],
                cdim,
                j,
                self.pool,
                weights=(1.0, 0.0),
            )
            out -= div  # out += -(unit advection RHS)(vg) = +d(vg)/dv
        return out

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

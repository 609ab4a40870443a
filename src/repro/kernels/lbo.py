"""Generated kernels of the Dougherty / LBO collision operator.

The operator (:class:`repro.collisions.LBOCollisions`) runs, per velocity
direction, three DG advection passes — the drag and the two LDG diffusion
passes — each as volume, then trace → flux → lift.  Their termsets depend
only on the discretization ``(cdim, vdim, poly_order, family)``: the grid
enters through the runtime symbols ``w*`` / ``half_dxv*``, the collision
frequency through ``nu`` and the primitive moments through ``u{j}_{k}`` /
``vtsq_{k}``.  So the bundle below is generated once per key and process by
:func:`repro.kernels.registry.get_lbo_kernels`, beside the Vlasov bundle
whose bases it shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..basis.modal import ModalBasis
from ..cas.poly import Poly
from .generator import (
    FACE_SIGN,
    FluxSpec,
    FluxTerm,
    generate_face_termsets,
    generate_multiply_termset,
    generate_volume_termset,
)
from .termset import TermSet, stack_termsets
from .vlasov import VlasovKernels, _cfg_poly_unnormalized

__all__ = ["LBODirection", "LBOKernels", "build_lbo_kernels"]


@dataclass(frozen=True)
class LBODirection:
    """One velocity direction's termsets.  The drag and the unit advection
    (the LDG passes) share the trace and the lift; ``trace[sides]`` is the
    ``2 Nf``-row stack of the lower cell's upper-face trace (``"L"``) and the
    upper cell's lower-face trace (``"R"``), a side not in ``sides`` zero."""

    drag_vol: TermSet
    drag_flux: TermSet  # the central flux, its 1/2 folded in
    unit_vol: TermSet
    unit_flux: TermSet
    trace: Dict[str, TermSet]  # "LR", "R", "L"
    lift: TermSet


@dataclass(frozen=True)
class LBOKernels:
    """The LBO kernel bundle for one ``(cdim, vdim, poly_order, family)``."""

    phase_basis: ModalBasis
    cfg_basis: ModalBasis
    nf: int  # face modes
    vtsq_mult: TermSet  # weak multiplication by vtsq(x)
    directions: List[LBODirection]

    def termsets(self) -> List[TermSet]:
        """Every termset the bundle holds (for nnz accounting)."""
        out = [self.vtsq_mult]
        for d in self.directions:
            out += [d.drag_vol, d.drag_flux, d.unit_vol, d.unit_flux, d.lift]
            out += [d.trace[sides] for sides in sorted(d.trace)]
        return out


def build_lbo_kernels(vlasov: VlasovKernels) -> LBOKernels:
    """Generate the LBO bundle on the bases of a Vlasov bundle."""
    basis, cfg_basis = vlasov.phase_basis, vlasov.cfg_basis
    cdim, vdim = vlasov.cdim, vlasov.vdim
    pdim = cdim + vdim
    cfg_poly = [
        (_cfg_poly_unnormalized(pdim, alpha), cfg_basis.norm(k))
        for k, alpha in enumerate(cfg_basis.indices)
    ]
    vtsq_mult = generate_multiply_termset(
        basis,
        [FluxTerm(sym=(f"vtsq_{k}",), poly=poly, scale=norm) for k, (poly, norm) in enumerate(cfg_poly)],
    )
    nf = vlasov.face_accel[0].flux.nout
    zero = TermSet(nf, basis.num_basis, {})
    directions = []
    for j in range(vdim):
        dv = cdim + j
        # drag flux alpha_j = nu * (u_j(x) - v_j)
        drag = FluxSpec(
            dim=dv,
            terms=(
                FluxTerm(sym=("nu", f"w{dv}"), poly=Poly.one(pdim), scale=-1.0),
                FluxTerm(sym=("nu", f"half_dxv{dv}"), poly=Poly.variable(pdim, dv), scale=-1.0),
            )
            + tuple(
                FluxTerm(sym=("nu", f"u{j}_{k}"), poly=poly, scale=norm)
                for k, (poly, norm) in enumerate(cfg_poly)
            ),
        )
        unit = FluxSpec(dim=dv, terms=(FluxTerm(sym=(), poly=Poly.one(pdim)),))
        fk = generate_face_termsets(basis, drag)
        directions.append(
            LBODirection(
                drag_vol=generate_volume_termset(basis, drag),
                drag_flux=fk.flux.scaled(0.5),
                unit_vol=generate_volume_termset(basis, unit),
                unit_flux=generate_face_termsets(basis, unit).flux,
                trace={
                    sides: stack_termsets([fk.trace[s] if s in sides else zero for s in "LR"])
                    for sides in ("LR", "R", "L")
                },
                lift=stack_termsets([fk.trace[s].scaled(FACE_SIGN[s]) for s in "LR"]).transposed(),
            )
        )
    return LBOKernels(basis, cfg_basis, nf, vtsq_mult, directions)

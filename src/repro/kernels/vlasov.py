"""Flux specifications and kernel bundles for the Vlasov equation.

Phase space has ``cdim`` configuration dimensions (phase dims
``0 .. cdim-1``) followed by ``vdim`` velocity dimensions (phase dims
``cdim .. cdim+vdim-1``); velocity dimension ``j`` pairs with Cartesian
component ``j`` of (vx, vy, vz).

The collisionless phase-space flux is
:math:`\\alpha = (v, (q/m)(\\mathbf{E} + \\mathbf{v} \\times \\mathbf{B}))`:

* streaming along configuration dim ``j``:
  ``v_j = w_j + (dv_j/2) xi_j`` with ``w``/``dv`` the velocity cell center
  and width — runtime symbols ``w{dj}`` / ``half_dxv{dj}``;
* acceleration along velocity dim ``j``: the fields enter through their
  modal configuration-space coefficients (symbols ``E{j}_{k}``/``B{j}_{k}``),
  multiplied by the *exact* polynomial of the corresponding configuration
  basis function, so the nonlinear field–particle coupling is integrated
  without aliasing.

A bundle holds what the solvers apply: per direction the volume kernel and
the surface kernels factored through the face modes
(:func:`~repro.kernels.generator.generate_face_termsets`), plus the moment
kernels.  The paper's four-sided ``Np x Np`` surface kernels are not part of
it; the Fig. 1/2 cost model generates them on demand
(:func:`repro.kernels.flops.four_sided_kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..basis.legendre import legendre_coefficients
from ..basis.modal import ModalBasis
from ..cas.poly import Poly
from .generator import (
    FaceKernels,
    FluxSpec,
    FluxTerm,
    generate_face_termsets,
    generate_moment_termset,
    generate_volume_termset,
)
from .termset import TermSet

__all__ = [
    "streaming_flux",
    "acceleration_flux",
    "VlasovKernels",
    "build_vlasov_kernels",
]

# (v x B) components in terms of velocity components and B components:
# (v x B)_i = sum over (j, k, sign): v_j * B_k * sign
_CROSS = {
    0: ((1, 2, +1.0), (2, 1, -1.0)),  # vy*Bz - vz*By
    1: ((2, 0, +1.0), (0, 2, -1.0)),  # vz*Bx - vx*Bz
    2: ((0, 1, +1.0), (1, 0, -1.0)),  # vx*By - vy*Bx
}


def _cfg_poly_unnormalized(phase_ndim: int, cfg_alpha: Tuple[int, ...]) -> Poly:
    """Configuration basis function (unnormalized Legendre product) lifted to
    the full phase-space variable set."""
    poly = Poly.one(phase_ndim)
    for var, a in enumerate(cfg_alpha):
        if a:
            poly = poly * Poly.from_univariate(phase_ndim, var, legendre_coefficients(a))
    return poly


def streaming_flux(cdim: int, vdim: int, j: int) -> FluxSpec:
    """Flux ``alpha = v_j`` along configuration dimension ``j``."""
    if not 0 <= j < cdim:
        raise ValueError("streaming direction out of range")
    pdim = cdim + vdim
    dv = cdim + j  # paired velocity phase-dimension
    if j >= vdim:
        raise ValueError(
            f"configuration dim {j} has no paired velocity dim (vdim={vdim})"
        )
    terms = (
        FluxTerm(sym=(f"w{dv}",), poly=Poly.one(pdim)),
        FluxTerm(sym=(f"half_dxv{dv}",), poly=Poly.variable(pdim, dv)),
    )
    return FluxSpec(dim=j, terms=terms)


def acceleration_flux(cfg_basis: ModalBasis, cdim: int, vdim: int, j: int) -> FluxSpec:
    """Flux ``alpha = (q/m)(E_j + (v x B)_j)`` along velocity dimension ``j``."""
    if not 0 <= j < vdim:
        raise ValueError("acceleration direction out of range")
    pdim = cdim + vdim
    dim = cdim + j
    terms: List[FluxTerm] = []
    for k in range(cfg_basis.num_basis):
        phi = _cfg_poly_unnormalized(pdim, cfg_basis.indices[k])
        nk = cfg_basis.norm(k)
        terms.append(FluxTerm(sym=("qm", f"E{j}_{k}"), poly=phi, scale=nk))
        for vj, bk, sign in _CROSS[j]:
            if vj >= vdim:
                continue  # that velocity component is not evolved
            dvj = cdim + vj
            terms.append(
                FluxTerm(sym=("qm", f"w{dvj}", f"B{bk}_{k}"), poly=phi, scale=sign * nk)
            )
            terms.append(
                FluxTerm(
                    sym=("qm", f"half_dxv{dvj}", f"B{bk}_{k}"),
                    poly=phi * Poly.variable(pdim, dvj),
                    scale=sign * nk,
                )
            )
    return FluxSpec(dim=dim, terms=tuple(terms))


def moment_weight_terms(cdim: int, vdim: int, moment: str) -> Tuple[FluxTerm, ...]:
    """Cell-local expansion of the moment weights 1, v_d, |v|^2.

    ``moment`` is ``"M0"``, ``"M1x"``/``"M1y"``/``"M1z"`` or ``"M2"``.
    The weight is expressed with runtime symbols for the velocity cell
    center/width: ``v_d = w + (dv/2) xi``,
    ``v_d^2 = w^2 + w dv xi + (dv/2)^2 xi^2``.
    """
    pdim = cdim + vdim
    if moment == "M0":
        return (FluxTerm(sym=(), poly=Poly.one(pdim)),)
    if moment.startswith("M1"):
        d = "xyz".index(moment[2])
        if d >= vdim:
            raise ValueError(f"moment {moment} undefined for vdim={vdim}")
        dv = cdim + d
        return (
            FluxTerm(sym=(f"w{dv}",), poly=Poly.one(pdim)),
            FluxTerm(sym=(f"half_dxv{dv}",), poly=Poly.variable(pdim, dv)),
        )
    if moment == "M2":
        terms: List[FluxTerm] = []
        for d in range(vdim):
            dv = cdim + d
            xi = Poly.variable(pdim, dv)
            terms.append(FluxTerm(sym=(f"w{dv}", f"w{dv}"), poly=Poly.one(pdim)))
            terms.append(FluxTerm(sym=(f"w{dv}", f"half_dxv{dv}"), poly=xi, scale=2.0))
            terms.append(
                FluxTerm(sym=(f"half_dxv{dv}", f"half_dxv{dv}"), poly=xi * xi)
            )
        return tuple(terms)
    raise ValueError(f"unknown moment {moment!r}")


@dataclass
class VlasovKernels:
    """The complete generated kernel bundle for one (cdim, vdim, p, family)."""

    cdim: int
    vdim: int
    poly_order: int
    family: str
    phase_basis: ModalBasis
    cfg_basis: ModalBasis
    vol_stream: List[TermSet]                      # per configuration dim
    vol_accel: List[TermSet]                       # per velocity dim
    # the surface terms, factored through the face modes (the paper's
    # four-sided Fig. 1/2 form is kernels.flops.four_sided_kernels)
    face_stream: List[FaceKernels]
    face_accel: List[FaceKernels]
    moments: Dict[str, TermSet]

    @property
    def num_basis(self) -> int:
        return self.phase_basis.num_basis

    def termsets(self) -> List[TermSet]:
        """Every termset the bundle holds (for nnz accounting)."""
        out = list(self.vol_stream) + list(self.vol_accel)
        for fk in self.face_stream + self.face_accel:
            out.extend([fk.trace["L"], fk.trace["R"], fk.flux])
        return out + [self.moments[name] for name in sorted(self.moments)]


def build_vlasov_kernels(
    cdim: int, vdim: int, poly_order: int, family: str = "serendipity"
) -> VlasovKernels:
    """Generate (or fetch from cache via :mod:`repro.kernels.registry`) the
    full Vlasov kernel bundle."""
    pdim = cdim + vdim
    phase_basis = ModalBasis(pdim, poly_order, family)
    cfg_basis = ModalBasis(cdim, poly_order, family)
    vol_stream, face_stream = [], []
    for j in range(cdim):
        flux = streaming_flux(cdim, vdim, j)
        vol_stream.append(generate_volume_termset(phase_basis, flux))
        face_stream.append(generate_face_termsets(phase_basis, flux))
    vol_accel, face_accel = [], []
    for j in range(vdim):
        flux = acceleration_flux(cfg_basis, cdim, vdim, j)
        vol_accel.append(generate_volume_termset(phase_basis, flux))
        face_accel.append(generate_face_termsets(phase_basis, flux))
    moments = {}
    names = ["M0", "M2"] + [f"M1{'xyz'[d]}" for d in range(vdim)]
    for name in names:
        moments[name] = generate_moment_termset(
            phase_basis, cfg_basis, cdim, moment_weight_terms(cdim, vdim, name)
        )
    return VlasovKernels(
        cdim=cdim,
        vdim=vdim,
        poly_order=poly_order,
        family=family,
        phase_basis=phase_basis,
        cfg_basis=cfg_basis,
        vol_stream=vol_stream,
        vol_accel=vol_accel,
        face_stream=face_stream,
        face_accel=face_accel,
        moments=moments,
    )

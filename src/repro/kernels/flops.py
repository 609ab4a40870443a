"""Operation-count accounting: modal (sparse, exact) vs nodal (quadrature).

Reproduces the paper's cost bookkeeping: the modal kernel cost is the exact
nonzero count of the generated tensors (Sec. II / Fig. 1), while the
alias-free nodal scheme pays dense interpolate -> pointwise flux -> project
matrix products of size :math:`N_p \\times N_q` for every integral
(Sec. III), with the number of quadrature points :math:`N_q` growing
exponentially with dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Tuple

from ..cas.codegen import count_multiplications
from .generator import generate_surface_termsets
from .registry import get_vlasov_kernels
from .termset import TermSet
from .vlasov import VlasovKernels, acceleration_flux, streaming_flux

__all__ = [
    "alias_free_quadrature_points_1d",
    "four_sided_kernels",
    "modal_update_multiplications",
    "modal_update_traffic",
    "nodal_update_multiplications",
    "UpdateCost",
    "compare_costs",
]


def alias_free_quadrature_points_1d(poly_order: int) -> int:
    """Gauss points per direction needed to integrate the quadratically
    nonlinear Vlasov volume term exactly (degree <= 3p + 1 per direction),
    i.e. the paper's ``N_q = (3p+1)/2``-style over-integration rounded up."""
    return ceil((3 * poly_order + 2) / 2)


#: one direction's four side kernels, keyed ``(cell updated, cell read)``
Sides = Dict[Tuple[str, str], TermSet]


def four_sided_kernels(kernels: VlasovKernels) -> Tuple[List[Sides], List[Sides]]:
    """The paper's Fig. 1 surface kernels of a bundle, ``(streaming,
    acceleration)``: per direction the four ``Np x Np`` side kernels of
    :func:`~repro.kernels.generator.generate_surface_termsets`.  No solver
    applies them (they run the same terms factored through the face modes);
    they are generated here, on every call, for the cost model and as the
    tests' reference."""
    cdim, vdim, basis = kernels.cdim, kernels.vdim, kernels.phase_basis
    return (
        [generate_surface_termsets(basis, streaming_flux(cdim, vdim, j)) for j in range(cdim)],
        [
            generate_surface_termsets(basis, acceleration_flux(kernels.cfg_basis, cdim, vdim, j))
            for j in range(vdim)
        ],
    )


def _face_multiplications(faces) -> int:
    """Trace (both sides), face flux and lift (the trace entries again) of
    each direction."""
    return sum(
        2 * sum(count_multiplications(ts) for ts in fk.trace.values())
        + count_multiplications(fk.flux)
        for fk in faces
    )


def modal_update_multiplications(kernels: VlasovKernels) -> Dict[str, int]:
    """Exact multiplication counts of every generated kernel group for one
    forward-Euler update of one cell.

    ``surface_*`` / ``total`` count the four ``Np x Np`` side kernels per
    direction (the paper's Fig. 1/2 model); ``surface_*_face`` /
    ``total_face`` count the same terms as the solvers evaluate them, in the
    face-mode space (trace + flux + lift)."""
    vol_stream = sum(count_multiplications(ts) for ts in kernels.vol_stream)
    vol_accel = sum(count_multiplications(ts) for ts in kernels.vol_accel)
    surf_stream, surf_accel = (
        sum(count_multiplications(ts) for sides in group for ts in sides.values())
        for group in four_sided_kernels(kernels)
    )
    face_stream = _face_multiplications(kernels.face_stream)
    face_accel = _face_multiplications(kernels.face_accel)
    return {
        "volume_streaming": vol_stream,
        "volume_acceleration": vol_accel,
        "surface_streaming": surf_stream,
        "surface_acceleration": surf_accel,
        "volume_total": vol_stream + vol_accel,
        "total": vol_stream + vol_accel + surf_stream + surf_accel,
        "surface_streaming_face": face_stream,
        "surface_acceleration_face": face_accel,
        "total_face": vol_stream + vol_accel + face_stream + face_accel,
    }


def modal_update_traffic(
    cdim: int, vdim: int, poly_order: int, family: str = "serendipity"
) -> Dict[str, Dict[str, Tuple[int, int]]]:
    """Doubles ``(read, written)`` through *state-sized* arrays per
    phase-space cell per right-hand side — the traffic model beside
    :func:`modal_update_multiplications`, from the same termsets' shapes
    (``Np`` coefficients, ``Nf`` face modes, ``2 Nf`` trace rows per
    direction: ``ns`` streaming, ``na`` acceleration).

    Two forms of the same update (:mod:`repro.engine.program`), each a dict
    of phases with a ``total``:

    ``passes``
        every operator a pass over the whole grid — the reference form:
        volume ``f -> L``; trace ``f -> g`` (all ``ns + na`` rows); the flux
        of every direction in place on ``g``; lift ``g -> L`` accumulating;
        ``stage`` is the stepper's five in-place passes over ``k``, ``u0``
        and the state (``k *= dt; f += k; f *= b; k = u0 * a; f += k``) that
        one SSP-RK3 stage adds on top.
    ``cell_local``
        the compiled program: the streaming trace and flux over the whole
        grid, then one pass per configuration cell that reads ``f`` and the
        streaming fluxes and writes ``L`` (``cell``) or, with the stage
        riding along, also reads ``u0`` and writes the state instead
        (``cell_staged``); the acceleration traces and ``L`` stay in a
        cell-sized block and are not counted.  ``total`` ends in ``L``,
        ``total_staged`` in the updated state.
    """
    kern = get_vlasov_kernels(cdim, vdim, poly_order, family)
    npb = kern.num_basis
    nf = kern.face_stream[0].flux.nout
    ns, na = 2 * nf * len(kern.face_stream), 2 * nf * len(kern.face_accel)

    def totalled(phases, *names):
        return tuple(sum(phases[name][i] for name in names) for i in (0, 1))

    passes = {
        "volume": (npb, npb),
        "trace": (npb, ns + na),
        "flux": (ns + na, ns + na),
        "lift": (ns + na + npb, npb),
        "stage": (7 * npb, 5 * npb),
    }
    passes["total"] = totalled(passes, "volume", "trace", "flux", "lift")
    cell = {
        "trace_streaming": (npb, ns),
        "flux_streaming": (ns, ns),
        "cell": (npb + ns, npb),
        "cell_staged": (2 * npb + ns, npb),
    }
    cell["total"] = totalled(cell, "trace_streaming", "flux_streaming", "cell")
    cell["total_staged"] = totalled(
        cell, "trace_streaming", "flux_streaming", "cell_staged"
    )
    return {"passes": passes, "cell_local": cell}


def nodal_update_multiplications(
    num_basis: int, cdim: int, vdim: int, poly_order: int
) -> Dict[str, int]:
    """Multiplication count of the alias-free nodal/quadrature update of one
    cell: per direction, interpolate to the quadrature grid (``Np*Nq``),
    multiply by the flux pointwise (``Nq``), and project back with the
    (derivative-)matrix (``Np*Nq``); surfaces do the same on the two
    ``(d-1)``-dimensional face quadrature grids of each direction."""
    pdim = cdim + vdim
    nq1 = alias_free_quadrature_points_1d(poly_order)
    nq_vol = nq1 ** pdim
    nq_face = nq1 ** (pdim - 1)
    per_dir_vol = 2 * num_basis * nq_vol + nq_vol
    per_dir_surf = 2 * (2 * num_basis * nq_face + nq_face)
    total_vol = pdim * per_dir_vol
    total_surf = pdim * per_dir_surf
    return {
        "quad_points_volume": nq_vol,
        "quad_points_face": nq_face,
        "volume_total": total_vol,
        "surface_total": total_surf,
        "total": total_vol + total_surf,
    }


@dataclass
class UpdateCost:
    modal: Dict[str, int]
    nodal: Dict[str, int]

    @property
    def speedup(self) -> float:
        return self.nodal["total"] / max(self.modal["total"], 1)


def compare_costs(kernels: VlasovKernels) -> UpdateCost:
    """Side-by-side modal vs nodal multiplication counts for one update."""
    return UpdateCost(
        modal=modal_update_multiplications(kernels),
        nodal=nodal_update_multiplications(
            kernels.num_basis, kernels.cdim, kernels.vdim, kernels.poly_order
        ),
    )

"""CAS-driven generation of DG volume, surface, and moment kernels.

This module performs the role of the Maxima scripts in Gkeyll: it evaluates
every weak-form integral *analytically* (exact rational arithmetic via
:mod:`repro.cas`), detects exact zeros, and packages the surviving entries
into sparse :class:`~repro.kernels.termset.TermSet` kernels.  No quadrature
is performed and no mass matrix is ever built: the modal orthonormal basis
makes the mass matrix the identity.

The phase-space flux in direction ``dim`` is described by a
:class:`FluxSpec`: a sum of terms, each a product of a *runtime symbol*
(cell size, cell-center velocity, modal field coefficient, ...), an exact
polynomial in the reference coordinates, and a float scale (normalization of
the field basis function, signs from the cross product).  Because the Vlasov
flux :math:`\\alpha = (v, (q/m)(E + v \\times B))` is polynomial in phase
space, this description is exact and the resulting scheme is alias-free.

Assembly is factorised.  Every integral separates into 1-D integrals
``int x^r P_a D P_b dx`` (:mod:`repro.cas.integrate`); per dimension that
small table is scaled by the lcm of its denominators to integers and gathered
on the basis multi-indices, so the tensor of one flux monomial is an
element-wise product over dimensions of ``(nout, nin)`` integer arrays, and
monomials add as integers over the lcm of their coefficient denominators
(Python ints in ``object`` arrays: no overflow).  An entry is kept iff its
numerator is non-zero; its float is ``numerator / denominator`` -- one
correctly rounded division, which is what ``float(Fraction)`` does -- times
the float normalisations in a fixed left-to-right order, so the generated
kernels are reproducible to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..basis.legendre import legendre_norm_squared, legendre_value_at_one
from ..basis.modal import ModalBasis
from ..cas.integrate import legendre_product_integral_1d
from ..cas.poly import Poly
from .termset import Symbol, TermSet

__all__ = [
    "FluxTerm",
    "FluxSpec",
    "generate_volume_termset",
    "generate_surface_termsets",
    "FaceKernels",
    "FACE_SIGN",
    "generate_face_termsets",
    "generate_moment_termset",
    "generate_multiply_termset",
]


@dataclass(frozen=True)
class FluxTerm:
    """One additive contribution ``scale * prod(aux[sym]) * poly(xi)``."""

    sym: Symbol
    poly: Poly
    scale: float = 1.0


@dataclass(frozen=True)
class FluxSpec:
    """The phase-space flux component along phase dimension ``dim``."""

    dim: int
    terms: Tuple[FluxTerm, ...]


# One dimension of the factorisation: ``(den, table)`` where ``table[r] / den``
# is that dimension's exact factor for the monomial power ``r``.
_Factor = Tuple[int, Sequence]


def _factors(
    terms: Sequence[FluxTerm], col_deg: np.ndarray, row_deg: np.ndarray, deriv_dim: int = -1
) -> List[_Factor]:
    """Per dimension ``k``: ``int x^r P_col D P_row dx`` (``D`` only for
    ``k == deriv_dim``) for every power ``r`` the terms use, as Python ints
    over one common denominator, gathered on the ``(nin, ndim)`` / ``(nout,
    ndim)`` Legendre degrees of the modes into ``(nout, nin)`` object arrays."""
    out = []
    for k in range(col_deg.shape[1]):
        rmax = max((e[k] for t in terms for e in t.poly.coeffs), default=0)
        nrow, ncol = int(row_deg[:, k].max()) + 1, int(col_deg[:, k].max()) + 1
        vals = [
            legendre_product_integral_1d((a, b), (False, k == deriv_dim), r)
            for r in range(rmax + 1)
            for b in range(nrow)
            for a in range(ncol)
        ]
        den = lcm(*(v.denominator for v in vals))
        table = np.array([int(v * den) for v in vals], dtype=object)
        table = table.reshape(rmax + 1, nrow, ncol)
        out.append((den, table[:, row_deg[:, k, None], col_deg[None, :, k]]))
    return out


def _norms(basis: ModalBasis) -> np.ndarray:
    return np.array([basis.norm(i) for i in range(basis.num_basis)])


_Exact = List[Tuple[FluxTerm, np.ndarray, np.ndarray, np.ndarray]]


def _exact_terms(
    terms: Sequence[FluxTerm], factors: Sequence[_Factor], shape: Tuple[int, int]
) -> _Exact:
    """Per term, the exactly integrated tensor ``sum_mono c prod_k factor_k``:
    its non-zeros in row-major ``(l, m)`` order and their correctly rounded
    float values, as ``(term, rows, cols, values)``."""
    fden = prod(den for den, _ in factors)
    out: _Exact = []
    for term in terms:
        monos = term.poly.coeffs
        cden = lcm(*(c.denominator for c in monos.values()))
        num = np.zeros(shape, dtype=object)
        for expo, c in monos.items():
            mono = int(c * cden)
            for (_, table), r in zip(factors, expo):
                mono = mono * table[r]
            num = num + mono
        rows, cols = np.nonzero(num)
        den = cden * fden
        vals = np.array([n / den for n in num[rows, cols]], dtype=float)
        out.append((term, rows, cols, vals))
    return out


def _termset(
    shape: Tuple[int, int],
    prefix: Symbol,
    exact: _Exact,
    weights: Sequence[Tuple[np.ndarray, np.ndarray]],
    sign: float = 1.0,
) -> TermSet:
    """Package exact entries as a kernel.  The coefficient is the exact value
    times each ``(row, column)`` weight pair in order, then ``term.scale`` and
    ``sign`` -- evaluated left to right, which fixes the float64 bits."""
    chunks: Dict[Symbol, list] = {}
    for term, rows, cols, vals in exact:
        for wrow, wcol in weights:
            vals = vals * wrow[rows] * wcol[cols]
        vals = vals * term.scale * sign
        chunks.setdefault(prefix + term.sym, []).append((rows, cols, vals))
    return TermSet.from_arrays(*shape, chunks)


def _pair_termset(
    basis: ModalBasis, terms: Sequence[FluxTerm], prefix: Symbol, deriv_dim: int = -1
) -> TermSet:
    """``int Q_s w_m D_{deriv_dim} w_l`` kernel (no derivative for ``-1``)."""
    shape = (basis.num_basis, basis.num_basis)
    deg = np.array(basis.indices)
    norms = _norms(basis)
    exact = _exact_terms(terms, _factors(terms, deg, deg, deriv_dim), shape)
    return _termset(shape, prefix, exact, [(norms, norms)])


def generate_volume_termset(basis: ModalBasis, flux: FluxSpec) -> TermSet:
    """Volume kernel for one flux direction.

    Produces the exact contraction
    ``out[l] += rdx_dim * sum_s aux_s * sum_m K_s[l, m] f[m]`` with
    ``K_s[l, m] = int Q_s w_m (d w_l / d xi_dim) dxi``.
    """
    return _pair_termset(basis, flux.terms, (f"rdx{flux.dim}",), flux.dim)


def generate_surface_termsets(
    basis: ModalBasis, flux: FluxSpec
) -> Dict[Tuple[str, str], TermSet]:
    """Surface kernels for the face between a left and a right cell.

    Returns four :class:`TermSet` objects keyed by
    ``(test_side, state_side)`` with sides in ``{"L", "R"}``.  The sign
    convention folds the outward normals in: accumulating

    ``out_L += rdx * sum_s weight_s * K[("L", s)] f_s`` and
    ``out_R += rdx * sum_s weight_s * K[("R", s)] f_s``

    with the runtime choosing upwind/central weights reproduces the weak-form
    surface integral exactly.  The flux polynomial is restricted to the face
    by substituting ``xi_dim = +-1`` on the *state* side; the exact tensor
    depends on the state side only and serves both test sides.

    No solver applies these: they are the paper's Fig. 1/2 cost model
    (:func:`repro.kernels.flops.four_sided_kernels`) and the tests'
    reference for the face-mode factors of :func:`generate_face_termsets`.
    """
    shape = (basis.num_basis, basis.num_basis)
    d = flux.dim
    norms = _norms(basis)
    deg = np.array(basis.indices)
    factors = _factors(flux.terms, deg, deg)
    face = {
        sign: np.array([legendre_value_at_one(a[d], sign) for a in basis.indices])
        for sign in (1, -1)
    }
    exact = {}
    for state_sign in (1, -1):
        # xi_dim factor of the flux polynomial at the face
        factors[d] = (1, [state_sign**r for r in range(len(factors[d][1]))])
        exact[state_sign] = _exact_terms(flux.terms, factors, shape)
    return {
        (test_side, state_side): _termset(
            shape,
            (f"rdx{d}",),
            exact[state_sign],
            [(face[test_sign], face[state_sign]), (norms, norms)],
            global_sign,
        )
        for test_side, test_sign, global_sign in (("L", 1, -1.0), ("R", -1, 1.0))
        for state_side, state_sign in (("L", 1), ("R", -1))
    }


#: outward-normal sign ``sigma_t`` of the face's left / right cell
FACE_SIGN = {"L": -1.0, "R": 1.0}


@dataclass(frozen=True)
class FaceKernels:
    """One direction's surface kernels, factored through the face modes:
    ``K[(t, s)] = FACE_SIGN[t] * trace[t].T @ flux @ trace[s]`` exactly.

    ``trace[side]`` is ``(Nf, Np)`` with one entry per phase mode and no
    runtime symbol (``"L"``: the left cell's trace at ``xi_dim = +1``,
    ``"R"``: the right cell's at ``-1``); ``flux`` is the ``(Nf, Nf)`` kernel
    ``int psi_a alpha psi_b`` carrying the flux's runtime symbols."""

    dim: int
    trace: Dict[str, TermSet]
    flux: TermSet


def _mode_norms(indices: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """Orthonormalisation constants of Legendre-product modes (the formula of
    :meth:`~repro.basis.modal.ModalBasis.norm`)."""
    return np.array(
        [float(np.sqrt(float(prod(1 / legendre_norm_squared(a) for a in alpha)))) for alpha in indices]
    )


def generate_face_termsets(basis: ModalBasis, flux: FluxSpec) -> FaceKernels:
    """Surface kernels of :func:`generate_surface_termsets` in the face-mode
    space.

    A mode restricted to the face ``xi_dim = +-1`` is its 1-D factor's value
    there, ``sqrt((2 l_dim + 1) / 2) (+-1)^l_dim``, times the mode ``a(l)`` of
    the orthonormal basis of the same family in the remaining ``ndim - 1``
    variables (``l`` with its ``dim``-th index dropped).  So the weak-form
    face integral is taken once over the ``Nf`` face modes and the traces
    carry the rest.

    The flux is evaluated on the face as seen from the cell below it: its
    polynomial at ``xi_dim = +1``, with the runtime symbols of that cell.
    This is exact when the flux is one value on the face for both cells —
    independent of ``xi_dim``, or depending on it only through a coordinate
    the two cells share there (the LBO drag ``nu (u - v_dim)``: the face
    velocity ``w + dv/2`` of the lower cell is ``w - dv/2`` of the upper one)
    — and the caller reads the symbols at the lower cell, as
    :meth:`~repro.engine.plan.ExecutionPlan.apply_faces` does.
    """
    d = flux.dim
    terms = [
        FluxTerm(term.sym, term.poly.substitute_value(d, 1), term.scale)
        for term in flux.terms
    ]
    dropped = [a[:d] + a[d + 1 :] for a in basis.indices]
    modes = sorted(set(dropped), key=lambda a: (sum(a), a))  # canonical order
    where = {a: i for i, a in enumerate(modes)}
    nf, npb = len(modes), basis.num_basis
    rows = np.array([where[a] for a in dropped])
    deg_d = [a[d] for a in basis.indices]
    one_d = _mode_norms([(a,) for a in deg_d])
    trace = {
        side: TermSet.from_arrays(
            nf,
            npb,
            {(): [(rows, np.arange(npb), one_d * [legendre_value_at_one(a, sign) for a in deg_d])]},
        )
        for side, sign in (("L", 1), ("R", -1))
    }
    # face modes lifted back to ndim variables as degree 0 in xi_dim, whose
    # factor is then the flux polynomial's (constant) value on the face
    deg = np.insert(np.array(modes, dtype=int).reshape(nf, -1), d, 0, axis=1)
    factors = _factors(terms, deg, deg)
    factors[d] = (1, [1])
    norms = _mode_norms(modes)
    exact = _exact_terms(terms, factors, (nf, nf))
    return FaceKernels(
        dim=d, trace=trace, flux=_termset((nf, nf), (f"rdx{d}",), exact, [(norms, norms)])
    )


def generate_moment_termset(
    phase_basis: ModalBasis,
    cfg_basis: ModalBasis,
    cdim: int,
    weight_terms: Sequence[FluxTerm],
) -> TermSet:
    """Velocity-moment kernel mapping phase coefficients to configuration
    coefficients.

    For a moment weight ``g(v) = sum_s aux_s * Q_s(xi_v)`` (e.g. 1, ``v_d``,
    ``|v|^2`` expressed in cell-local form), the kernel computes the exact
    reference-cell integral

    ``W_s[k, m] = int phi_k(xi_cfg) Q_s(xi) w_m(xi) dxi``

    so that the physical moment is
    ``M_k(cfg cell) = sum_{v cells} vjac * sum_s aux_s (W_s f)[k]`` with
    ``vjac = prod_j dv_j / 2``.
    """
    shape = (cfg_basis.num_basis, phase_basis.num_basis)
    pdeg = np.array(phase_basis.indices)
    # lifted to phase space, phi_k is constant (P_0) in the velocity dimensions
    cdeg = np.pad(np.array(cfg_basis.indices), ((0, 0), (0, phase_basis.ndim - cdim)))
    exact = _exact_terms(weight_terms, _factors(weight_terms, pdeg, cdeg), shape)
    return _termset(shape, ("vjac",), exact, [(_norms(cfg_basis), _norms(phase_basis))])


def generate_multiply_termset(
    basis: ModalBasis, multiplier_terms: Sequence[FluxTerm]
) -> TermSet:
    """Weak (exactly projected) multiplication kernel.

    Computes the modal coefficients of the L2 projection of
    ``(sum_s aux_s Q_s(xi)) * f`` onto the basis:
    ``out[l] += sum_s aux_s sum_m (int Q_s w_m w_l) f[m]``.
    Used e.g. to multiply by a configuration-space thermal-speed field in the
    LBO collision operator without introducing aliasing.
    """
    return _pair_termset(basis, multiplier_terms, ())

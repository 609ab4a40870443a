"""Modal orthonormal bases on the reference cube ``[-1, 1]^d``.

A :class:`ModalBasis` holds the multi-index set of one of the three families
(tensor / serendipity / maximal-order) together with exact normalization
data and float evaluation helpers.  Basis function ``i`` is

.. math::

   w_i(\\xi) = \\Big[\\prod_k \\sqrt{\\tfrac{2 a_k + 1}{2}}\\Big]
              \\prod_k P_{a_k}(\\xi_k),

with :math:`a = \\text{indices}[i]`, so that
:math:`\\int w_i w_j \\, d\\xi = \\delta_{ij}` holds exactly — the mass matrix
is the identity and never needs to be stored or inverted (the matrix-free
property of the paper).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from ..cas.poly import Poly
from .legendre import (
    eval_legendre_float,
    legendre_coefficients,
    legendre_norm_squared,
)
from .multiindex import FAMILIES, multi_indices

__all__ = ["ModalBasis", "gauss_points_1d", "tensor_gauss_points"]


@lru_cache(maxsize=None)
def gauss_points_1d(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on ``[-1, 1]`` (exact to degree 2n-1)."""
    if n < 1:
        raise ValueError("need at least one quadrature point")
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def tensor_gauss_points(n_per_dim: int, ndim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss quadrature on the reference cube.

    Returns ``(points, weights)`` with ``points`` of shape ``(npts, ndim)``.
    """
    x1, w1 = gauss_points_1d(n_per_dim)
    grids = np.meshgrid(*([x1] * ndim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(points.shape[0])
    wgrids = np.meshgrid(*([w1] * ndim), indexing="ij")
    for wg in wgrids:
        weights *= wg.ravel()
    return points, weights


def _norm_squared(alpha: Tuple[int, ...]) -> Fraction:
    out = Fraction(1)
    for a in alpha:
        out /= legendre_norm_squared(a)
    return out


@lru_cache(maxsize=None)
def _norm(alpha: Tuple[int, ...]) -> float:
    """:meth:`ModalBasis.norm` of multi-index ``alpha``, once per index
    (kernel generation asks for it hundreds of times per build)."""
    return float(np.sqrt(float(_norm_squared(alpha))))


class ModalBasis:
    """Orthonormal modal basis on the reference cube.

    Parameters
    ----------
    ndim:
        Dimensionality of the reference cell (phase-space dimension for the
        kinetic equation, configuration-space dimension for the fields).
    poly_order:
        Polynomial order ``p``.
    family:
        ``tensor``, ``serendipity`` or ``maximal-order``.
    """

    def __init__(self, ndim: int, poly_order: int, family: str = "serendipity"):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.ndim = int(ndim)
        self.poly_order = int(poly_order)
        self.family = family
        self.indices: List[Tuple[int, ...]] = multi_indices(ndim, poly_order, family)
        self.num_basis = len(self.indices)

    # ------------------------------------------------------------------ #
    # exact data
    # ------------------------------------------------------------------ #
    def norm(self, i: int) -> float:
        return _norm(self.indices[i])

    def poly(self, i: int, normalized: bool = True) -> Poly:
        """Basis function ``i`` as a :class:`Poly`.

        With ``normalized=True`` the (generally irrational) normalization is
        folded in approximately via a float->Fraction conversion only for
        testing convenience; symbolic pipelines should use
        ``normalized=False`` plus the exact :func:`_norm_squared`.
        """
        poly = Poly.one(self.ndim)
        for var, a in enumerate(self.indices[i]):
            poly = poly * Poly.from_univariate(self.ndim, var, legendre_coefficients(a))
        if normalized:
            poly = poly * Fraction(self.norm(i)).limit_denominator(10**15)
        return poly

    # ------------------------------------------------------------------ #
    # float evaluation
    # ------------------------------------------------------------------ #
    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions at reference points.

        Parameters
        ----------
        points:
            Array of shape ``(npts, ndim)`` in ``[-1, 1]^ndim``.

        Returns
        -------
        Array of shape ``(num_basis, npts)``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.ndim:
            raise ValueError("points have wrong dimensionality")
        max_deg = self.poly_order
        # Legendre values per dimension and degree: P[d][a] shape (npts,)
        table = [
            [eval_legendre_float(a, points[:, d]) for a in range(max_deg + 1)]
            for d in range(self.ndim)
        ]
        out = np.empty((self.num_basis, points.shape[0]))
        for i, alpha in enumerate(self.indices):
            vals = np.full(points.shape[0], self.norm(i))
            for d, a in enumerate(alpha):
                if a:
                    vals = vals * table[d][a]
            out[i] = vals
        return out

    def eval_deriv_at(self, points: np.ndarray, var: int) -> np.ndarray:
        """Evaluate :math:`\\partial w_i/\\partial \\xi_{var}` at reference points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        npts = points.shape[0]
        out = np.empty((self.num_basis, npts))
        # derivative via exact coefficient tables (cheap: generation-time only)
        for i, alpha in enumerate(self.indices):
            vals = np.full(npts, self.norm(i))
            for d, a in enumerate(alpha):
                coeffs = legendre_coefficients(a)
                if d == var:
                    dcoeffs = [float(coeffs[k] * k) for k in range(1, len(coeffs))]
                    vals = vals * _polyval_ascending(dcoeffs, points[:, d])
                elif a:
                    vals = vals * eval_legendre_float(a, points[:, d])
            out[i] = vals
        return out

    # ------------------------------------------------------------------ #
    # projections
    # ------------------------------------------------------------------ #
    def project(self, func, quad_order: int | None = None) -> np.ndarray:
        """L2-project a callable ``func(points) -> (npts,)`` defined on the
        reference cube onto the basis; returns ``(num_basis,)`` coefficients."""
        nq = quad_order if quad_order is not None else self.poly_order + 2
        pts, wts = tensor_gauss_points(nq, self.ndim)
        vals = np.asarray(func(pts), dtype=float)
        basis_vals = self.eval_at(pts)
        return basis_vals @ (wts * vals)


def _polyval_ascending(coeffs, x):
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out

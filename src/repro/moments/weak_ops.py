"""Weak (modal, alias-free) binary operations on DG fields.

Computing flow velocity ``u = M1/M0`` or thermal speed from moments requires
*dividing* DG fields.  Pointwise division at nodes would reintroduce exactly
the aliasing the scheme eliminates, so — following Gkeyll — division is done
weakly: find ``u`` such that the L2 projection of ``M0 * u`` equals ``M1``.
With the exact triple-product tensor
:math:`T_{lmk} = \\int \\phi_l \\phi_m \\phi_k d\\xi`
this is a small dense solve per cell; multiplication is the corresponding
contraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from ..basis.modal import ModalBasis
from ..cas.integrate import legendre_product_integral_1d

__all__ = [
    "triple_product_tensor",
    "weak_multiply",
    "weak_multiplication_matrix",
    "weak_divide",
]


@lru_cache(maxsize=None)
def _triple_product_cached(
    ndim: int, poly_order: int, family: str
) -> np.ndarray:
    basis = ModalBasis(ndim, poly_order, family)
    n = basis.num_basis
    out = np.zeros((n, n, n))
    for l in range(n):
        al = basis.indices[l]
        for m in range(l, n):
            am = basis.indices[m]
            for k in range(n):
                ak = basis.indices[k]
                val = Fraction(1)
                for d in range(ndim):
                    fac = legendre_product_integral_1d(
                        (al[d], am[d], ak[d]), (False, False, False), 0
                    )
                    if fac == 0:
                        val = Fraction(0)
                        break
                    val *= fac
                if val != 0:
                    entry = (
                        float(val) * basis.norm(l) * basis.norm(m) * basis.norm(k)
                    )
                    out[l, m, k] = entry
                    out[m, l, k] = entry
    return out


def triple_product_tensor(basis: ModalBasis) -> np.ndarray:
    """Exact :math:`T_{lmk} = \\int w_l w_m w_k d\\xi` (memoized)."""
    return _triple_product_cached(basis.ndim, basis.poly_order, basis.family)


def weak_multiply(a: np.ndarray, b: np.ndarray, basis: ModalBasis) -> np.ndarray:
    """Modal coefficients of the L2 projection of ``a * b``.

    ``a``, ``b``: cell-major coefficient arrays ``(*cells, Np)``.
    """
    t = triple_product_tensor(basis)
    return np.einsum("lmk,...m,...k->...l", t, a, b)


def weak_multiplication_matrix(den: np.ndarray, basis: ModalBasis) -> np.ndarray:
    """Per cell the matrix ``A[l, m] = sum_k T_{lmk} den_k`` of
    ``u -> Proj(den * u)`` (cell-major ``(*cells, Np)`` in,
    ``(*cells, Np, Np)`` out)."""
    return np.einsum("lmk,...k->...lm", triple_product_tensor(basis), den)


def weak_divide(
    num: np.ndarray,
    den: np.ndarray,
    basis: ModalBasis,
    matrix: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Weak division: solve ``Proj(den * u) = num`` for ``u`` cell by cell
    (cell-major ``(*cells, Np)`` operands — the per-cell solve batches
    directly, no transpose).  ``matrix``: ``den``'s
    :func:`weak_multiplication_matrix`, when the caller divides several
    numerators by one denominator (``den`` is then not read).

    Raises ``numpy.linalg.LinAlgError`` if the denominator is (numerically)
    singular in some cell — e.g. a vanishing density.
    """
    if matrix is None:
        matrix = weak_multiplication_matrix(den, basis)
    return np.linalg.solve(matrix, num[..., None])[..., 0]

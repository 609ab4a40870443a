"""Weak (modal, alias-free) binary operations on DG fields.

Computing flow velocity ``u = M1/M0`` or thermal speed from moments requires
*dividing* DG fields.  Pointwise division at nodes would reintroduce exactly
the aliasing the scheme eliminates, so — following Gkeyll — division is done
weakly: find ``u`` such that the L2 projection of ``M0 * u`` equals ``M1``.
With the exact triple-product tensor
:math:`T_{lmk} = \\int \\phi_l \\phi_m \\phi_k d\\xi`
this is a small dense solve per cell; multiplication is the corresponding
contraction.  :func:`weak_primitive` runs both for the LBO's primitive
moments.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..basis.modal import ModalBasis
from ..cas.integrate import legendre_product_integral_1d

__all__ = ["triple_product_tensor", "weak_primitive"]


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


def weak_primitive(m: np.ndarray, t: np.ndarray, prim: np.ndarray) -> None:
    """The LBO's primitive moments by weak division, per configuration cell.

    ``m`` holds ``M0, M1_0 .. M1_{vdim-1}, M2`` as ``(ncfg, vdim + 2, Np)``,
    ``t`` is :func:`triple_product_tensor`.  Per cell: ``A[l, m] = sum_k
    T[l, m, k] M0[k]``, its LU with partial pivoting (the first largest
    magnitude wins), ``u_j = A^-1 M1_j`` and ``vtsq = A^-1 (M2 - sum_j
    Proj(u_j M1_j)) / vdim``, ``Proj(u_j M1_j)[l] = sum_m (sum_k T[l, m, k]
    M1_j[k]) u_j[m]`` — every sum sequential, from ``+0.0``.  Written into
    ``prim`` ``(vdim + 1, Np, ncfg)``: ``u_j`` at ``[j]``, ``vtsq`` at
    ``[vdim]``.

    This is the numpy form of the compiled kernel's ``weak_primitive``,
    operation for operation over every cell at once, so both end in the
    same bits.  An exact-zero pivot — e.g. a vanishing density — raises
    ``numpy.linalg.LinAlgError``.
    """
    ncfg, nmom, n = m.shape
    vdim = nmom - 2
    cells = np.arange(ncfg)

    def contract(v):
        a = np.zeros((ncfg, n, n))
        for k in range(n):
            a += t[:, :, k] * v[:, k, None, None]
        return a

    a = contract(m[:, 0])
    piv = np.empty((n, ncfg), dtype=np.intp)
    for k in range(n):
        p = piv[k] = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        if (a[cells, p, k] == 0.0).any():
            raise np.linalg.LinAlgError("weak division by a singular density")
        row = a[cells, k].copy()
        a[cells, k] = a[cells, p]
        a[cells, p] = row
        low = a[:, k + 1 :, k] / a[:, k, k, None]
        a[:, k + 1 :, k] = low
        a[:, k + 1 :, k + 1 :] -= low[:, :, None] * a[:, k, None, k + 1 :]

    def solve(rhs):
        b = rhs.copy()
        for k in range(n):
            bk = b[cells, piv[k]].copy()
            b[cells, piv[k]] = b[:, k]
            b[:, k] = bk
            b[:, k + 1 :] -= a[:, k + 1 :, k] * b[:, k, None]
        x = np.empty_like(b)
        for i in range(n - 1, -1, -1):
            acc = b[:, i].copy()
            for j in range(i + 1, n):
                acc -= a[:, i, j] * x[:, j]
            x[:, i] = acc / a[:, i, i]
        return x

    u_dot_m1 = np.zeros((ncfg, n))
    for j in range(vdim):
        u = solve(m[:, 1 + j])
        prim[j] = u.T
        b = contract(m[:, 1 + j])
        acc = np.zeros((ncfg, n))
        for k in range(n):
            acc += b[:, :, k] * u[:, k, None]
        u_dot_m1 += acc
    prim[vdim] = solve((m[:, vdim + 1] - u_dot_m1) / vdim).T

"""The einsum + LAPACK weak operations: the test oracle of the per-cell
weak division the LBO runs (``repro.moments.weak_ops.weak_primitive`` and
the compiled kernel's ``weak_primitive``)."""

from typing import Optional

import numpy as np

from repro.basis.modal import ModalBasis
from repro.moments.weak_ops import triple_product_tensor


def weak_multiply(a: np.ndarray, b: np.ndarray, basis: ModalBasis) -> np.ndarray:
    """Modal coefficients of the L2 projection of ``a * b`` (cell-major
    ``(*cells, Np)`` operands)."""
    return np.einsum("lmk,...m,...k->...l", triple_product_tensor(basis), a, b)


def weak_multiplication_matrix(den: np.ndarray, basis: ModalBasis) -> np.ndarray:
    """Per cell the matrix ``A[l, m] = sum_k T_{lmk} den_k`` of
    ``u -> Proj(den * u)``."""
    return np.einsum("lmk,...k->...lm", triple_product_tensor(basis), den)


def weak_divide(
    num: np.ndarray,
    den: np.ndarray,
    basis: ModalBasis,
    matrix: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve ``Proj(den * u) = num`` for ``u`` cell by cell (LAPACK);
    ``numpy.linalg.LinAlgError`` on a singular denominator."""
    if matrix is None:
        matrix = weak_multiplication_matrix(den, basis)
    return np.linalg.solve(matrix, num[..., None])[..., 0]


def primitive_moments(m: np.ndarray, basis: ModalBasis):
    """``(u, vtsq)`` of the moments ``M0, M1_0 .., M2`` (moment-first,
    ``(vdim + 2, *cells, Np)``), cell-major: ``u`` ``(vdim, *cells, Np)``."""
    vdim = m.shape[0] - 2
    a = weak_multiplication_matrix(m[0], basis)
    u = np.stack([weak_divide(m[1 + j], m[0], basis, a) for j in range(vdim)])
    u_dot_m1 = sum(weak_multiply(u[j], m[1 + j], basis) for j in range(vdim))
    return u, weak_divide((m[vdim + 1] - u_dot_m1) / vdim, m[0], basis, a)

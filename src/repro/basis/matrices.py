"""Small exact operator matrices on the reference cell.

The field solvers (Maxwell, Poisson) are linear constant-coefficient systems
in low-dimensional configuration space; their cost is negligible next to the
kinetic update (paper Table I), so they use small dense per-cell matrices
computed *exactly* by the same CAS machinery as the kinetic kernels (no
quadrature anywhere).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from ..basis.legendre import legendre_value_at_one
from ..cas.integrate import legendre_product_integral_1d
from .modal import ModalBasis

__all__ = ["derivative_matrix", "face_matrices", "mass_matrix"]


def mass_matrix(basis: ModalBasis) -> np.ndarray:
    """The identity, by orthonormality — provided for tests/documentation."""
    return np.eye(basis.num_basis)


def derivative_matrix(basis: ModalBasis, d: int) -> np.ndarray:
    """Exact :math:`D_{lm} = \\int (\\partial w_l/\\partial \\xi_d) w_m d\\xi`."""
    n = basis.num_basis
    out = np.zeros((n, n))
    for l in range(n):
        al = basis.indices[l]
        if al[d] == 0:
            continue
        for m in range(n):
            am = basis.indices[m]
            val = Fraction(1)
            for k in range(basis.ndim):
                fac = legendre_product_integral_1d((am[k], al[k]), (False, k == d), 0)
                if fac == 0:
                    val = Fraction(0)
                    break
                val *= fac
            if val != 0:
                out[l, m] = float(val) * basis.norm(l) * basis.norm(m)
    return out


def face_matrices(basis: ModalBasis, d: int) -> Dict[Tuple[str, str], np.ndarray]:
    """Exact face coupling matrices with weak-form signs folded in.

    Keyed by ``(test_side, state_side)``; for the face between a left and a
    right cell, accumulating ``out_t += rdx_d * M[(t, s)] @ q_s`` over both
    test sides and any state-weight combination reproduces the DG surface
    integral (same convention as the four-sided kernels of
    :func:`repro.kernels.flops.four_sided_kernels`).
    """
    n = basis.num_basis
    out: Dict[Tuple[str, str], np.ndarray] = {}
    for t_side, t_sign, g_sign in (("L", 1, -1.0), ("R", -1, 1.0)):
        for s_side, s_sign in (("L", 1), ("R", -1)):
            mat = np.zeros((n, n))
            for l in range(n):
                al = basis.indices[l]
                pl = legendre_value_at_one(al[d], t_sign)
                for m in range(n):
                    am = basis.indices[m]
                    pm = legendre_value_at_one(am[d], s_sign)
                    val = Fraction(1)
                    for k in range(basis.ndim):
                        if k == d:
                            continue
                        fac = legendre_product_integral_1d((am[k], al[k]), (False, False), 0)
                        if fac == 0:
                            val = Fraction(0)
                            break
                        val *= fac
                    if val != 0:
                        mat[l, m] = (
                            float(val) * pl * pm * basis.norm(l) * basis.norm(m) * g_sign
                        )
            out[(t_side, s_side)] = mat
    return out

"""Small exact operator matrices on the reference cell.

The Maxwell solver is a linear constant-coefficient system in
low-dimensional configuration space: it folds the exact derivative matrix
below into the constant kernels the plan engine runs, computed by the same
CAS machinery as the kinetic kernels (no quadrature anywhere).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..cas.integrate import legendre_product_integral_1d
from .modal import ModalBasis

__all__ = ["derivative_matrix"]


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


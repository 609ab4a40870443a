"""Exact, factorized integration of Legendre-product expressions.

Every integral the DG weak form needs has the separable structure

.. math::

    \\int_{[-1,1]^d} \\prod_k g_k(\\xi_k)\\, d\\xi = \\prod_k \\int_{-1}^{1} g_k \\, d\\xi_k,

where each 1-D factor ``g_k`` is a product of (at most three) Legendre
polynomials, possibly differentiated, possibly multiplied by a monomial
``xi^r`` coming from the phase-space flux.  This module memoizes those 1-D
integrals in exact rational arithmetic and is their single source:
:mod:`repro.kernels.generator` evaluates each one once per ``(degrees,
power)``, scales the per-dimension table to integers and assembles the
d-dimensional tensors as vectorised element-wise products of table gathers.
The cost of generation is therefore the array arithmetic (about 0.1 s for the
48-mode 2X2V p=2 bundle), not the number of ``Fraction`` operations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from ..basis.legendre import legendre_coefficients

__all__ = ["legendre_product_integral_1d"]


def _coeffs_1d(degree: int, deriv: bool) -> Tuple[Fraction, ...]:
    coeffs = legendre_coefficients(degree)
    if not deriv:
        return coeffs
    return tuple(coeffs[k] * k for k in range(1, len(coeffs)))


def _integrate_monomial_coeffs(coeffs) -> Fraction:
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        if c and k % 2 == 0:
            total += c * Fraction(2, k + 1)
    return total


def _multiply_coeffs(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return tuple(out)


@lru_cache(maxsize=None)
def legendre_product_integral_1d(
    degrees: Tuple[int, ...],
    derivs: Tuple[bool, ...],
    monomial_power: int = 0,
) -> Fraction:
    """Exact :math:`\\int_{-1}^1 x^r \\prod_i D^{e_i} P_{n_i}(x)\\,dx`.

    Parameters
    ----------
    degrees:
        Degrees of the Legendre factors.
    derivs:
        Whether each factor is differentiated once.
    monomial_power:
        The extra monomial power ``r`` from the flux expansion.
    """
    if len(degrees) != len(derivs):
        raise ValueError("degrees and derivs must have the same length")
    prod: Tuple[Fraction, ...] = (Fraction(1),)
    for n, d in zip(degrees, derivs):
        fac = _coeffs_1d(n, d)
        if not fac:  # derivative of P_0 is zero
            return Fraction(0)
        prod = _multiply_coeffs(prod, fac)
    if monomial_power:
        prod = tuple([Fraction(0)] * monomial_power) + prod
    return _integrate_monomial_coeffs(prod)

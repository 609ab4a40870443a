"""Exact sparse multivariate polynomial algebra over the rationals.

This module is the core of the mini computer algebra system (CAS) that plays
the role Maxima plays in Gkeyll: every integral appearing in the DG weak form
is evaluated *exactly* in rational arithmetic, so that entries of the update
tensors which are mathematically zero are exactly zero.  That exact sparsity
is what makes the modal algorithm matrix-free and sub-quadratic in cost.

A :class:`Poly` is a sparse map from exponent multi-indices to
:class:`fractions.Fraction` coefficients over a fixed number of variables
``nvars``.  The variables are the reference-cell coordinates
``xi_0 .. xi_{nvars-1}`` living on ``[-1, 1]``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Exponents = Tuple[int, ...]
Scalar = Union[int, Fraction]

__all__ = ["Poly"]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"Poly coefficients must be int or Fraction, got {type(value)!r}")


class Poly:
    """A sparse multivariate polynomial with exact rational coefficients.

    Parameters
    ----------
    nvars:
        Number of variables.
    coeffs:
        Mapping from exponent tuples (length ``nvars``) to coefficients.
        Zero coefficients are dropped.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[Exponents, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        self.nvars = nvars
        cleaned: Dict[Exponents, Fraction] = {}
        if coeffs:
            for expo, c in coeffs.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != nvars:
                    raise ValueError(
                        f"exponent tuple {expo} has length {len(expo)}, expected {nvars}"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                frac = _as_fraction(c)
                if frac != 0:
                    cleaned[expo] = cleaned.get(expo, Fraction(0)) + frac
                    if cleaned[expo] == 0:
                        del cleaned[expo]
        self.coeffs = cleaned

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, var: int) -> "Poly":
        """The monomial ``xi_var``."""
        if not 0 <= var < nvars:
            raise ValueError(f"variable index {var} out of range for nvars={nvars}")
        expo = [0] * nvars
        expo[var] = 1
        return cls(nvars, {tuple(expo): 1})

    @classmethod
    def from_univariate(cls, nvars: int, var: int, coeffs_1d: Iterable[Scalar]) -> "Poly":
        """Lift a 1-D polynomial (ascending coefficients in ``xi_var``)."""
        data: Dict[Exponents, Scalar] = {}
        for power, c in enumerate(coeffs_1d):
            expo = [0] * nvars
            expo[var] = power
            data[tuple(expo)] = c
        return cls(nvars, data)

    # ------------------------------------------------------------------ #
    # ring operations
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            out[expo] = out.get(expo, Fraction(0)) + c
            if out[expo] == 0:
                del out[expo]
        result = Poly(self.nvars)
        result.coeffs = out
        return result

    def __neg__(self) -> "Poly":
        result = Poly(self.nvars)
        result.coeffs = {e: -c for e, c in self.coeffs.items()}
        return result

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            frac = _as_fraction(other)
            if frac == 0:
                return Poly.zero(self.nvars)
            result = Poly(self.nvars)
            result.coeffs = {e: c * frac for e, c in self.coeffs.items()}
            return result
        self._check_compatible(other)
        out: Dict[Exponents, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(expo, Fraction(0)) + c1 * c2
                if acc == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = acc
        result = Poly(self.nvars)
        result.coeffs = out
        return result

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"incompatible polynomials: nvars {self.nvars} != {other.nvars}"
            )

    # ------------------------------------------------------------------ #
    # calculus
    # ------------------------------------------------------------------ #
    def diff(self, var: int) -> "Poly":
        """Partial derivative with respect to ``xi_var``."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        out: Dict[Exponents, Fraction] = {}
        for expo, c in self.coeffs.items():
            k = expo[var]
            if k == 0:
                continue
            new = list(expo)
            new[var] = k - 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + c * k
        result = Poly(self.nvars)
        result.coeffs = {e: c for e, c in out.items() if c != 0}
        return result

    def integrate_cube(self) -> Fraction:
        """Exact integral over the reference cube ``[-1, 1]^nvars``.

        Uses ``int_{-1}^{1} x^k dx = 2/(k+1)`` for even ``k`` (zero for odd).
        """
        total = Fraction(0)
        for expo, c in self.coeffs.items():
            if any(e % 2 for e in expo):
                continue
            term = c
            for e in expo:
                term *= Fraction(2, e + 1)
            total += term
        return total

    def substitute_value(self, var: int, value: Scalar) -> "Poly":
        """Substitute ``xi_var -> value`` (a rational number).

        The result keeps the same ``nvars`` with exponent 0 in ``var`` —
        callers that need a lower-dimensional polynomial can
        :meth:`drop_var` afterwards.
        """
        val = _as_fraction(value)
        out: Dict[Exponents, Fraction] = {}
        for expo, c in self.coeffs.items():
            new = list(expo)
            k = new[var]
            new[var] = 0
            key = tuple(new)
            acc = out.get(key, Fraction(0)) + c * (val ** k)
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
        result = Poly(self.nvars)
        result.coeffs = out
        return result

    def drop_var(self, var: int) -> "Poly":
        """Remove a variable whose exponent is zero in every term."""
        out: Dict[Exponents, Fraction] = {}
        for expo, c in self.coeffs.items():
            if expo[var] != 0:
                raise ValueError(
                    f"cannot drop variable {var}: appears with exponent {expo[var]}"
                )
            out[expo[:var] + expo[var + 1:]] = c
        result = Poly(self.nvars - 1)
        result.coeffs = out
        return result

    # ------------------------------------------------------------------ #
    # evaluation / inspection
    # ------------------------------------------------------------------ #
    def eval(self, point: Iterable[float]) -> float:
        """Evaluate at a point (floating point)."""
        pt = tuple(point)
        if len(pt) != self.nvars:
            raise ValueError("point dimensionality mismatch")
        total = 0.0
        for expo, c in self.coeffs.items():
            term = float(c)
            for x, e in zip(pt, expo):
                if e:
                    term *= x ** e
            total += term
        return total

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def degree_in(self, var: int) -> int:
        if not self.coeffs:
            return -1
        return max(e[var] for e in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for expo in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            c = self.coeffs[expo]
            mono = "*".join(
                f"xi{i}^{e}" if e > 1 else f"xi{i}" for i, e in enumerate(expo) if e
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(parts) + ")"

"""Exact intersection arithmetic on smooth hypersurface threefolds in P^4.

A smooth degree-r hypersurface X_r in P^4 has Picard group generated by the
hyperplane class H.  Numerical classes are written in the basis

    (1, H, ell, pt)

where ell is the degree-one curve class with H . ell = pt, and pt is the
class of a point.  The multiplication table is H . H = r * ell together with
H . ell = pt; every product of total codimension above three vanishes.  With
this basis the degree of a codimension-two class (its intersection with H) is
literally its ell-coefficient, which keeps all the bundle invariants used
elsewhere in this package integral.

The ring operations are methods of Hypersurface; QUINTIC is X_5, the one
degree the rank-2 catalog lives on.

All coefficients are exact rationals.  Floats are rejected outright: every
quantity in this calculus is an exact integer or rational and equality tests
must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

__all__ = [
    "ChowClass",
    "Hypersurface",
    "QUINTIC",
    "integrate",
]

Rational = int | Fraction


def _rat(value: Rational) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact rational required, got {type(value).__name__}")
    return Fraction(value)


@dataclass(frozen=True)
class ChowClass:
    """A class a0 + a1*H + a2*ell + a3*pt with exact rational coefficients."""

    a0: Fraction = Fraction(0)
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    a3: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "a2", "a3"):
            object.__setattr__(self, name, _rat(getattr(self, name)))

    @staticmethod
    def one() -> "ChowClass":
        return ChowClass(1)

    @staticmethod
    def zero() -> "ChowClass":
        return ChowClass()

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2, self.a3)

    def __add__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        return ChowClass(
            self.a0 + other.a0,
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.a3 + other.a3,
        )

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ChowClass":
        return ChowClass(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, scalar: Rational) -> "ChowClass":
        # Products of two classes need the ambient degree r: use Hypersurface.mul.
        if isinstance(scalar, ChowClass):
            raise TypeError("use Hypersurface.mul(x, y) to multiply two classes")
        k = _rat(scalar)
        return ChowClass(k * self.a0, k * self.a1, k * self.a2, k * self.a3)

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for coeff, symbol in zip(self.coefficients(), ("", "H", "ell", "pt")):
            if coeff == 0:
                continue
            parts.append(str(coeff) if not symbol else f"{coeff}*{symbol}")
        return " + ".join(parts) if parts else "0"


def integrate(x: ChowClass) -> Fraction:
    """Degree map: the pt-coefficient of a class."""
    return x.a3


@lru_cache(maxsize=None)
def _tangent_h_coefficients(r: int) -> tuple[int, int, int, int]:
    # Coefficients of (1+H)^5 / (1+rH) in powers of H, truncated at H^3.
    return tuple(
        sum(comb(5, k - j) * (-r) ** j for j in range(k + 1)) for k in range(4)
    )


@dataclass(frozen=True)
class Hypersurface:
    """A smooth degree-r hypersurface threefold X_r in P^4 (default: the quintic)."""

    r: int = 5

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise ValueError(f"degree must be a positive integer, got {self.r!r}")

    def mul(self, x: ChowClass, y: ChowClass) -> ChowClass:
        """Graded truncated product under H^2 = r*ell, H.ell = pt."""
        return ChowClass(
            x.a0 * y.a0,
            x.a0 * y.a1 + x.a1 * y.a0,
            x.a0 * y.a2 + x.a2 * y.a0 + self.r * x.a1 * y.a1,
            x.a0 * y.a3 + x.a3 * y.a0 + x.a1 * y.a2 + x.a2 * y.a1,
        )

    def exp_h(self, n: int) -> ChowClass:
        """Chern character of O_X(n): the truncated exponential of n*H.

        The series 1 + nH + n^2 H^2/2 + n^3 H^3/6 becomes
        (1, n, r n^2/2, r n^3/6) in basis units.
        """
        return ChowClass(
            1,
            n,
            Fraction(self.r * n * n, 2),
            Fraction(self.r * n**3, 6),
        )

    def tangent_chern(self) -> ChowClass:
        """Total Chern class of the tangent bundle T_X, via (1+H)^5/(1+rH)."""
        c0, c1, c2, c3 = _tangent_h_coefficients(self.r)
        return ChowClass(c0, c1, self.r * c2, self.r * c3)

    @lru_cache(maxsize=None)
    def todd(self) -> ChowClass:
        """Todd class 1 + c1/2 + (c1^2 + c2)/12 + c1*c2/24 of T_X, cached per degree."""
        c = self.tangent_chern()
        c1, c2 = c.a1, c.a2
        return ChowClass(
            1,
            Fraction(c1, 2),
            (self.r * c1 * c1 + c2) / 12,
            c1 * c2 / 24,
        )


QUINTIC = Hypersurface(5)

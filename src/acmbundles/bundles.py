"""Bundle descriptors and their characteristic-class calculus.

A descriptor records the rank and integer Chern classes of a vector bundle on
a hypersurface threefold: c1 in H-units, c2 in ell-units (so c2 is the degree
of the second Chern class), c3 in pt-units, and nothing else.  It records no
degree and no cohomology: whether a bundle is normalized, ACM or stable is a
fact about a particular bundle on a particular threefold (the catalog states
it for its fourteen entries), not data that duals, twists and sums could carry
onto another.

Every descriptor, whichever operation returns it, is built through the one
constructor, which checks the same rule on every value it is given.
``_exact_int`` reads an integer off an exact value (a chi), an int or a
Fraction alike, through ``as_integer_ratio``; ``from_ch`` reads c1..c3 by one
``%`` on ints each, and calls it only for the message of a failing one.

Conversion between Chern classes and the Chern character uses the Newton
identities truncated at codimension three; on this ring

    ch1 = c1,   ch2 = (r c1^2 - 2 c2)/2,   ch3 = (r c1^3 - 3 c1 c2 + 3 c3)/6.

``twist`` multiplies two characters and reads the product back.  ``tensor``
builds no character: for E = (s; a1, a2, a3) and F = (t; b1, b2, b3) it is
(st; c1, c2, c3) with

    c1 = t a1 + s b1,
    c2 = r (C(t,2) a1^2 + (st - 1) a1 b1 + C(s,2) b1^2) + s b2 + t a2,
    c3 = (6 P3 - r c1^3 + 3 c1 c2)/3,

where 6 P3 = s(r b1^3 - 3 b1 b2 + 3 b3) + t(r a1^3 - 3 a1 a2 + 3 a3)
+ 3 a1 (r b1^2 - 2 b2) + 3 b1 (r a1^2 - 2 a2) is six times the product's ch3.
The division by 3 is exact: mod 3, 6 P3 - r c1^3 + 3 c1 c2 is
r (s b1^3 + t a1^3 - (t a1 + s b1)^3), and (x + y)^3 = x^3 + y^3, t^3 = t
there.  So ``tensor`` of two valid descriptors never raises.

Euler characteristics come from Hirzebruch-Riemann-Roch, chi(E) = chi(O_X, E)
= integral of ch(E).td(X), and so does the Euler pairing chi(E, F) = sum
(-1)^i ext^i(E, F) = integral of ch(E*).ch(F).td(X), with no tensor built;
``Hypersurface._point`` reads its point coefficient with no product formed.
``chi_rank2`` is chi of a rank-2 bundle on the quintic: 5/6 c1^3 - 1/2 c1 c2 + 25/6 c1.
"""

from __future__ import annotations

from fractions import Fraction

from .chowring import QUINTIC, ChowClass, Hypersurface, Rational, _integer, _over, _Record

__all__ = [
    "BundleDescriptor",
    "NotBundleClassError",
    "to_ch",
    "from_ch",
    "dual",
    "twist",
    "tensor",
    "direct_sum",
    "chi_hrr",
    "chi_rank2",
    "euler_pairing",
]


class NotBundleClassError(ValueError):
    """A synthetic Chern character has no integral bundle descriptor."""


class BundleDescriptor(_Record):
    """Rank plus integer Chern classes (c1, c2, c3)."""

    rank: int
    c1: int
    c2: int = 0
    c3: int = 0

    def _validate(self) -> None:
        rank, c1, c2, c3 = self.rank, self.c1, self.c2, self.c3
        # Every descriptor an operation returns is checked here; one type test keeps that cheap.
        if not (type(rank) is type(c1) is type(c2) is type(c3) is int):
            for name, value in zip(self._fields, self._values()):  # names the first bad field
                _integer(value, name)
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if rank == 1 and (c2 != 0 or c3 != 0):
            raise ValueError("a rank-1 bundle has c2 = c3 = 0")
        if rank == 2 and c3 != 0:
            raise ValueError("a rank-2 bundle has c3 = 0")

    def chern_tuple(self) -> tuple[int, int, int]:
        return (self.c1, self.c2, self.c3)


def to_ch(E: BundleDescriptor, X: Hypersurface) -> ChowClass:
    """Chern character ch0 + ch1 H + ch2 ell + ch3 pt of E (Newton identities)."""
    r, c1, c2, c3 = X.r, E.c1, E.c2, E.c3
    return _over(
        6, 6 * E.rank, 6 * c1, 3 * (r * c1 * c1 - 2 * c2), r * c1**3 - 3 * c1 * c2 + 3 * c3
    )


def _exact_int(num: Rational, what: str, den: int = 1) -> int:
    """The integer num/den; a non-integral value is no bundle invariant."""
    num, d = num.as_integer_ratio()
    den *= d
    if num % den:
        raise NotBundleClassError(f"{what} is not an integer: {Fraction(num, den)}")
    return num // den


def from_ch(ch: ChowClass, X: Hypersurface) -> BundleDescriptor:
    """Invert the Newton identities; reject non-integral synthetic characters."""
    r = X.r
    d, n0, n1, n2, n3 = ch.scaled
    if n0 % d or n0 <= 0:
        raise NotBundleClassError(f"rank must be a positive integer, got {Fraction(n0, d)}")
    # A failing numerator goes to _exact_int only for its message.
    if n1 % d:
        _exact_int(n1, "c1", d)
    c1 = n1 // d
    if (num := r * c1 * c1 * d - 2 * n2) % (2 * d):
        _exact_int(num, "c2", 2 * d)
    c2 = num // (2 * d)
    if (num := 6 * n3 - (r * c1**3 - 3 * c1 * c2) * d) % (3 * d):
        _exact_int(num, "c3", 3 * d)
    c3 = num // (3 * d)
    try:
        return BundleDescriptor(n0 // d, c1, c2, c3)
    except ValueError as exc:
        raise NotBundleClassError(str(exc)) from exc


def dual(E: BundleDescriptor) -> BundleDescriptor:
    """Dual bundle: ch_i flips sign for odd i, so (c1, c2, c3) -> (-c1, c2, -c3)."""
    return BundleDescriptor(E.rank, -E.c1, E.c2, -E.c3)


def twist(E: BundleDescriptor, n: int, X: Hypersurface) -> BundleDescriptor:
    """E(n) = E tensor O_X(n), through the Chern character."""
    if (n if type(n) is int else _integer(n, "twist n")) == 0:
        return E
    return from_ch(X.mul(to_ch(E, X), X.exp_h(n)), X)


def tensor(E: BundleDescriptor, F: BundleDescriptor, X: Hypersurface) -> BundleDescriptor:
    """Tensor product by the closed form in the integer Chern classes; ranks multiply."""
    r, s, t = X.r, E.rank, F.rank
    a1, a2, a3, b1, b2, b3 = E.c1, E.c2, E.c3, F.c1, F.c2, F.c3
    c1 = t * a1 + s * b1
    c2 = r * (t * (t - 1) // 2 * a1 * a1 + (s * t - 1) * a1 * b1 + s * (s - 1) // 2 * b1 * b1) + s * b2 + t * a2
    p3 = (s * (r * b1**3 - 3 * b1 * b2 + 3 * b3) + t * (r * a1**3 - 3 * a1 * a2 + 3 * a3)
          + 3 * a1 * (r * b1 * b1 - 2 * b2) + 3 * b1 * (r * a1 * a1 - 2 * a2))  # 6 P3 of the docstring
    return BundleDescriptor(s * t, c1, c2, (p3 - r * c1**3 + 3 * c1 * c2) // 3)


def direct_sum(E: BundleDescriptor, F: BundleDescriptor, X: Hypersurface) -> BundleDescriptor:
    """Direct sum: ranks add and total Chern classes multiply (Whitney)."""
    r = X.r
    return BundleDescriptor(
        E.rank + F.rank,
        E.c1 + F.c1,
        E.c2 + F.c2 + r * E.c1 * F.c1,
        E.c3 + F.c3 + E.c1 * F.c2 + E.c2 * F.c1,
    )


def chi_hrr(E: BundleDescriptor, X: Hypersurface) -> Fraction:
    """Euler characteristic by Hirzebruch-Riemann-Roch: integral of ch(E).td(X).

    This is the Euler pairing chi(O_X, E), read from the Newton numerators of
    ``to_ch``, written out again so that ``to_ch`` stays one call, with no class
    built.  The exact value is an integer whenever the descriptor satisfies the
    parity constraint of an honest bundle class (every catalog and analysis bundle).
    """
    r, c1, c2 = X.r, E.c1, E.c2
    f, t0, t1, t2, t3 = X.todd().scaled
    return Fraction(
        6 * E.rank * t3 + 6 * c1 * t2 + 3 * (r * c1 * c1 - 2 * c2) * t1 + (r * c1**3 - 3 * c1 * c2 + 3 * E.c3) * t0,
        6 * f,
    )


def euler_pairing(E: BundleDescriptor, F: BundleDescriptor, X: Hypersurface) -> Fraction:
    """chi(E, F) = sum (-1)^i ext^i(E, F), by Riemann-Roch the integral of ch(E*).ch(F).td(X)."""
    return Fraction(*X._point(to_ch(dual(E), X), to_ch(F, X), X.todd()))


def chi_rank2(c1: int, c2: int) -> Fraction:
    """Euler characteristic of a rank-2 bundle on the quintic threefold (r = 5)."""
    return chi_hrr(BundleDescriptor(2, c1, c2), QUINTIC)


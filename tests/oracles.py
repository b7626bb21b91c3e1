"""The per-coefficient Fraction arithmetic that the Chern kernel replaced.

A class here is a plain tuple (a0, a1, a2, a3) of Fractions in the basis
(1, H, ell, pt) of X_r, and every formula works one coefficient at a time,
as the library did before ChowClass stored its coefficients over one common
denominator.  ``chi_rank2`` is the hand-derived closed form for rank 2 on the
quintic, which the library now computes through the kernel.  The tests
compare the kernel against these formulas.  ``descriptor_rule`` is the
descriptor's validation as it was written before its one-chain type test.
"""

from fractions import Fraction
from math import comb

from acmbundles import BundleDescriptor, NotBundleClassError


def mul(r, x, y):
    return (
        x[0] * y[0],
        x[0] * y[1] + x[1] * y[0],
        x[0] * y[2] + x[2] * y[0] + r * x[1] * y[1],
        x[0] * y[3] + x[3] * y[0] + x[1] * y[2] + x[2] * y[1],
    )


def exp_h(r, n):
    return (Fraction(1), Fraction(n), Fraction(r * n * n, 2), Fraction(r * n**3, 6))


def todd(r):
    # c(T_X) = (1+H)^5 / (1+rH); only c1 (H-units) and c2 (ell-units) enter.
    c1, c2 = (sum(comb(5, k - j) * (-r) ** j for j in range(k + 1)) for k in (1, 2))
    c2 *= r
    return (Fraction(1), Fraction(c1, 2), Fraction(r * c1 * c1 + c2, 12), Fraction(c1 * c2, 24))


def to_ch(r, E):
    c1, c2, c3 = E.c1, E.c2, E.c3
    return (
        Fraction(E.rank),
        Fraction(c1),
        Fraction(r * c1 * c1 - 2 * c2, 2),
        Fraction(r * c1**3 - 3 * c1 * c2 + 3 * c3, 6),
    )


def _exact_int(q, what):
    if q.denominator != 1:
        raise NotBundleClassError(f"{what} is not an integer: {q}")
    return int(q)


def from_ch(r, ch):
    a0, a1, a2, a3 = ch
    if a0.denominator != 1 or a0 <= 0:
        raise NotBundleClassError(f"rank must be a positive integer, got {a0}")
    c1 = _exact_int(a1, "c1")
    c2 = _exact_int(Fraction(r * c1 * c1, 2) - a2, "c2")
    c3 = _exact_int(2 * a3 - Fraction(r * c1**3, 3) + c1 * c2, "c3")
    try:
        return BundleDescriptor(int(a0), c1, c2, c3)
    except ValueError as exc:
        raise NotBundleClassError(str(exc)) from exc


def twist(r, E, n):
    if n == 0:
        return E
    bare = from_ch(r, mul(r, to_ch(r, E), exp_h(r, n)))
    b = None if E.b is None else E.b + n
    return BundleDescriptor(bare.rank, bare.c1, bare.c2, bare.c3, b=b, acm=E.acm)


def tensor(r, E, F):
    if F.rank == 1:
        return twist(r, E, F.c1)
    if E.rank == 1:
        return twist(r, F, E.c1)
    return from_ch(r, mul(r, to_ch(r, E), to_ch(r, F)))


def chi(r, E):
    return mul(r, to_ch(r, E), todd(r))[3]


def chi_rank2(c1, c2):
    # 5/6 c1^3 - 1/2 c1 c2 + 25/6 c1 on the quintic.
    return Fraction(5 * c1**3 - 3 * c1 * c2 + 25 * c1, 6)


def descriptor_rule(rank, c1, c2, c3, b):
    # The descriptor's check as it stood before its one-chain type test: one integer test per field.
    for name, value in (("rank", rank), ("c1", c1), ("c2", c2), ("c3", c3)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if rank == 1 and (c2 != 0 or c3 != 0):
        raise ValueError("a rank-1 bundle has c2 = c3 = 0")
    if rank == 2 and c3 != 0:
        raise ValueError("a rank-2 bundle has c3 = 0")
    if b is not None and (not isinstance(b, int) or isinstance(b, bool)):
        raise ValueError(f"b must be an integer or None, got {b!r}")

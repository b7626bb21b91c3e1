"""The per-coefficient Fraction arithmetic that the Chern kernel replaced.

A class here is a plain tuple (a0, a1, a2, a3) of Fractions in the basis
(1, H, ell, pt) of X_r, and every formula works one coefficient at a time,
as the library did before ChowClass stored its coefficients over one common
denominator.  ``chi_rank2`` is the hand-derived closed form for rank 2 on the
quintic, which the library now computes through the kernel.  The tests
compare the kernel against these formulas.  ``descriptor_rule`` is the
descriptor's validation as it was written before its one-chain type test.

``chi_line``, ``chi_rank2_serre`` and ``pairing_serre`` derive chi without the
Todd class: from binomials on P^4 and, for rank 2, from the Serre curve of a
section, whose genus comes from adjunction.  They are numerical identities, so
no section needs to exist; they only share the descriptor's Chern classes with
the Riemann-Roch path, so a wrong Todd or tangent class shows against them.
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
    return from_ch(r, mul(r, to_ch(r, E), exp_h(r, n)))


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


def binom4(m):
    # C(m, 4) as a polynomial in m: the product of four consecutive integers is divisible by 24.
    return m * (m - 1) * (m - 2) * (m - 3) // 24


def chi_line(r, n):
    # chi(O_X(n)) on X_r, from 0 -> O_P4(n - r) -> O_P4(n) -> O_X(n) -> 0.
    return binom4(n + 4) - binom4(n + 4 - r)


def serre_one_minus_genus(r, c1, c2):
    # 1 - p_a(C) for the zero curve C of a section of a rank-2 E = (c1, c2) on X_r:
    # deg C = c2 and, by adjunction with omega_X = O_X(r - 5), 2 p_a - 2 = c2 (c1 + r - 5).
    twice, odd = divmod(c2 * (c1 + r - 5), 2)
    if odd:
        raise ValueError(f"c2 (c1 + r - 5) is odd for (c1, c2) = ({c1}, {c2}) on X_{r}")
    return -twice


def chi_rank2_serre(r, c1, c2, n):
    # chi(E(n)) from 0 -> O_X(n) -> E(n) -> I_C(c1 + n) -> 0 and chi(O_C(k)) = k deg C + 1 - p_a.
    return chi_line(r, n) + chi_line(r, c1 + n) - (c2 * (c1 + n) + serre_one_minus_genus(r, c1, c2))


def pairing_serre(r, E, F, m):
    # chi(E, F(m)) = chi(E* (x) F(m)) for rank-2 pairs E, F = (c1, c2).  E* = E(-c1E) gives
    # 0 -> O_X(-c1E) -> E* -> I_C -> 0 with C the Serre curve of E; tensored with F(m),
    # chi = chi(F(m - c1E)) + chi(F(m)) - chi(F(m)|_C), and F(m)|_C has rank 2, degree (c1F + 2m) c2E.
    (e1, e2), (f1, f2) = E, F
    restricted = (f1 + 2 * m) * e2 + 2 * serre_one_minus_genus(r, e1, e2)
    return chi_rank2_serre(r, f1, f2, m - e1) + chi_rank2_serre(r, f1, f2, m) - restricted


def descriptor_rule(rank, c1, c2, c3):
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

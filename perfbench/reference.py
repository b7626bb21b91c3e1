"""An independent reference for the expression workload.

It evaluates a corpus tree (see workloads.py) straight to its Chern character
in the ring Q[H]/(H^4) with H^2 = r*ell, H*ell = pt, using only products,
sums, duals and exp(nH); the Todd class comes from expanding
(1+H)^5 / (1+rH) in that ring.  Chern classes are recovered from the
character with the general Newton recurrence.  None of the program's
conversions is used, so an error in the program's calculus shows up as a
mismatch here.

A class is ``(d, a0, a1, a2, a3)``: integer coefficients of
(1, H, ell, pt) over one positive common denominator d, kept in lowest
terms.  Integers keep the reference several times faster than Fractions,
which matters because every answer the benchmark times is checked here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

Class = tuple[int, int, int, int, int]


def _reduce(d: int, a0: int, a1: int, a2: int, a3: int) -> Class:
    g = gcd(d, a0, a1, a2, a3)
    return (d // g, a0 // g, a1 // g, a2 // g, a3 // g)


def cls(a0: int = 0, a1: int = 0, a2: int = 0, a3: int = 0) -> Class:
    return (1, a0, a1, a2, a3)


ONE = cls(1)


def add(x: Class, y: Class) -> Class:
    return _reduce(
        x[0] * y[0], x[1] * y[0] + y[1] * x[0], x[2] * y[0] + y[2] * x[0],
        x[3] * y[0] + y[3] * x[0], x[4] * y[0] + y[4] * x[0],
    )


def scale(k: int | Fraction, x: Class) -> Class:
    k = Fraction(k)
    p, q = k.numerator, k.denominator
    return _reduce(x[0] * q, p * x[1], p * x[2], p * x[3], p * x[4])


def mul(r: int, x: Class, y: Class) -> Class:
    _, x0, x1, x2, x3 = x
    _, y0, y1, y2, y3 = y
    return _reduce(
        x[0] * y[0],
        x0 * y0,
        x0 * y1 + x1 * y0,
        x0 * y2 + x2 * y0 + r * x1 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1,
    )


def coefficient(x: Class, k: int) -> Fraction:
    """The coefficient of the codimension-k basis class."""
    return Fraction(x[k + 1], x[0])


def part(x: Class, k: int) -> Class:
    """The codimension-k component of x."""
    return _reduce(x[0], *(a if i == k else 0 for i, a in enumerate(x[1:])))


def dual(x: Class) -> Class:
    return (x[0], x[1], -x[2], x[3], -x[4])


@lru_cache(maxsize=None)
def exp_h(r: int, n: int) -> Class:
    """exp(nH) = 1 + nH + (nH)^2/2 + (nH)^3/6, expanded with ring products."""
    nh = cls(0, n)
    nh2 = mul(r, nh, nh)
    nh3 = mul(r, nh2, nh)
    return add(add(ONE, nh), add(scale(Fraction(1, 2), nh2), scale(Fraction(1, 6), nh3)))


@lru_cache(maxsize=None)
def todd(r: int) -> Class:
    """td(X_r) from c(T_X) = (1+H)^5 * (1 - rH + (rH)^2 - (rH)^3)."""
    h = cls(0, 1)
    binomial = ONE
    for _ in range(5):
        binomial = mul(r, binomial, add(ONE, h))
    rh = cls(0, r)
    geometric, power = ONE, ONE
    for sign in (-1, 1, -1):
        power = mul(r, power, rh)
        geometric = add(geometric, scale(sign, power))
    c = mul(r, binomial, geometric)
    c1, c2 = part(c, 1), part(c, 2)
    return add(
        add(ONE, scale(Fraction(1, 2), c1)),
        add(scale(Fraction(1, 12), add(mul(r, c1, c1), c2)), scale(Fraction(1, 24), mul(r, c1, c2))),
    )


def chi(r: int, ch: Class) -> Fraction:
    """Hirzebruch-Riemann-Roch: the pt-coefficient of ch * td(X_r)."""
    return coefficient(mul(r, ch, todd(r)), 3)


def ch_of_chern(r: int, rank: int, c1: int, c2: int, c3: int) -> Class:
    """Chern character from Chern classes via power sums p_k = k! ch_k."""
    e1, e2, e3 = cls(0, c1), cls(0, 0, c2), cls(0, 0, 0, c3)
    p1 = e1
    p2 = add(mul(r, e1, p1), scale(-2, e2))
    p3 = add(add(mul(r, e1, p2), scale(-1, mul(r, e2, p1))), scale(3, e3))
    return add(add(cls(rank), p1), add(scale(Fraction(1, 2), p2), scale(Fraction(1, 6), p3)))


def chern_of_ch(r: int, ch: Class) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(rank, c1, c2, c3) from a Chern character by the Newton recurrence."""
    p1, p2, p3 = part(ch, 1), scale(2, part(ch, 2)), scale(6, part(ch, 3))
    e1 = p1
    e2 = scale(Fraction(1, 2), add(mul(r, e1, p1), scale(-1, p2)))
    e3 = scale(Fraction(1, 3), add(add(mul(r, e2, p1), scale(-1, mul(r, e1, p2))), p3))
    return (coefficient(ch, 0), coefficient(e1, 1), coefficient(e2, 2), coefficient(e3, 3))


def evaluate(r: int, tree: tuple) -> Class:
    """The Chern character of a corpus tree on X_r."""
    kind = tree[0]
    if kind == "o":
        return exp_h(r, tree[1])
    if kind == "bundle":
        return ch_of_chern(r, *tree[1:])
    if kind == "cat":
        return ch_of_chern(r, 2, tree[1], tree[2], 0)
    if kind == "dual":
        return dual(evaluate(r, tree[1]))
    if kind == "twist":
        return mul(r, evaluate(r, tree[1]), exp_h(r, tree[2]))
    if kind == "tensor":
        return mul(r, evaluate(r, tree[1]), evaluate(r, tree[2]))
    if kind == "sum":
        return add(evaluate(r, tree[1]), evaluate(r, tree[2]))
    raise ValueError(f"not a corpus tree: {tree!r}")


def serre_holds(r: int, ch: Class) -> bool:
    """Serre duality with K = O(r-5): chi(E*) = -chi(E(r-5))."""
    return chi(r, dual(ch)) == -chi(r, mul(r, ch, exp_h(r, r - 5)))


def answer_of(r: int, query: str, ch: Class):
    """The expected answer, in the form the benchmark records the program's."""
    if query == "chi":
        return str(chi(r, ch))
    if query == "ch":
        return [str(coefficient(ch, k)) for k in range(4)]
    return [int(v) if v.denominator == 1 else str(v) for v in chern_of_ch(r, ch)]

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

The ring operations are methods of Hypersurface; QUINTIC is X_5 (the field
default), the one degree the rank-2 catalog lives on.  ``todd`` is memoised
in a dict keyed by the integer degree r, so chi never hashes a Hypersurface;
no Chern character is formed here, not even ch(O_X(n)) (see ``bundles._newton``).
A ChowClass is read, not combined: a0..a3, ``coefficients()``, equality,
hash, ``repr`` (which ``str`` falls back to) and pickling.  It has no +, -
or scalar *; the one product is ``Hypersurface.mul``, and the degree map is
the pt-coefficient ``x.a3``.  The product and the integral against td(X) are
each written once, as integer kernels on (denominator, four numerators):
``_product``, which ``mul`` wraps, and ``_td_integral``.

All coefficients are exact rationals; floats are rejected, as equality tests
must be exact.  A ChowClass keeps four integer numerators over one positive
common denominator in lowest terms, so each ring operation is integer
arithmetic with one gcd, whose division a gcd of 1 skips; a0..a3 still read
back as Fractions.

``_Record`` is the base of the package's value classes (ChowClass,
Hypersurface, the descriptors, catalog entries, analysis records, expression
nodes): immutable, but not dataclasses, so ``dataclasses.fields``, ``replace``
and ``asdict`` do not apply.  Fields are slots, with no instance dict, stored
through a hidden mutable twin that ``__subclasses__()`` lists; a subclass
that defines its own ``__init__`` keeps it, with no twin (ChowClass does).
``expr.evaluate`` checks the degree at each cat() (``UnsupportedDegreeError``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "ChowClass",
    "Hypersurface",
    "QUINTIC",
    "UnsupportedDegreeError",
]

Rational = int | Fraction
_TWIN = {"__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__}


def _rat(value: Rational) -> Rational:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact rational required, got {type(value).__name__}")
    return value


def _integer(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _frozen(verb: str, name: str) -> AttributeError:
    from dataclasses import FrozenInstanceError  # only on this error path

    return FrozenInstanceError(f"cannot {verb} field {name!r}")


class _RecordType(type):
    """Gives each record class ``__slots__`` equal to its fields; their defaults move into ``__init__``."""

    def __new__(meta, name, bases, ns):
        if not bases:  # _Record itself
            return super().__new__(meta, name, bases, ns)
        names = tuple(ns.get("__annotations__", ()))
        defaults = {n: ns.pop(n) for n in names if n in ns}  # a slot cannot share a class attribute's name
        cls = super().__new__(meta, name, bases, {**ns, "__slots__": names, "_fields": names})
        s = "_" * (1 + max(map(len, names), default=0))  # longer than any field, so no field shadows it
        env = {f"{s}d{n}": v for n, v in defaults.items()} | {f"{s}c": cls, f"{s}r": object.__dict__["__class__"].__set__}
        if "__init__" not in ns:  # __setattr__ and __delattr__ share a type slot, so _TWIN resets both
            env[f"{s}t"] = super().__new__(meta, name, (cls,), {**_TWIN, "__module__": cls.__module__})
        exec(compile(
            f"def __init__({s}, {', '.join(f'{n}={s}d{n}' if n in defaults else n for n in names)}):\n"
            + f" {s}r({s}, {s}t)\n" + "".join(f" {s}.{n} = {n}\n" for n in names) + f" {s}.__class__ = {s}c\n"
            + (f" {s}._validate()\n" if hasattr(cls, "_validate") else "")
            + f"def _values({s}):\n return ({''.join(f'{s}.{n}, ' for n in names)})",
            f"<record {cls.__qualname__}>", "exec",  # a filename per class, so profilers count each apart
        ), env)
        env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls._values, cls.__init__ = env["_values"], ns.get("__init__", env["__init__"])
        return cls


class _Record(metaclass=_RecordType):
    """Base of an immutable value class whose fields are its class annotations.

    Trailing fields may have class-level defaults.  A subclass gets an
    ``__init__`` over its fields (unless it defines its own) that calls
    ``_validate`` if a class below this base defines one, and the repr,
    equality (within one class), hash and frozenness of a frozen dataclass.
    Each field is a slot, so a record is one object with no instance dict, and
    ``vars()`` does not apply (tracemalloc on CPython 3.11: 72 rather than 176
    bytes per four-field record held in a list).  ``__init__`` stores the
    fields through a hidden twin subclass with object's ``__setattr__``, which
    ``__subclasses__()`` lists; pickling and copying go through the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = (f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return (self.__class__, self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen("assign to", name)

    def __delattr__(self, name: str) -> None:
        raise _frozen("delete", name)


def _coefficient(i: int) -> property:
    return property(lambda self: Fraction(self.scaled[i + 1], self.scaled[0]))


class ChowClass(_Record):
    """A class a0 + a1*H + a2*ell + a3*pt with exact rational coefficients.

    Immutable; ``scaled`` = (d, n0, n1, n2, n3) with a_i = n_i/d, d > 0 and
    gcd(d, n0, n1, n2, n3) = 1, so equal classes have equal ``scaled``.
    """

    scaled: tuple[int, int, int, int, int]

    def __init__(self, a0: Rational = 0, a1: Rational = 0, a2: Rational = 0, a3: Rational = 0):
        coeffs = [_rat(a) for a in (a0, a1, a2, a3)]
        d = lcm(*(a.denominator for a in coeffs))
        _store(self, (d, *(a.numerator * (d // a.denominator) for a in coeffs)))

    a0, a1, a2, a3 = (_coefficient(i) for i in range(4))

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2, self.a3)

    def __reduce__(self):
        return (_over, self.scaled)

    def __repr__(self) -> str:
        fields = (f"a{i}={coeff!r}" for i, coeff in enumerate(self.coefficients()))
        return f"ChowClass({', '.join(fields)})"


_store = ChowClass.scaled.__set__  # the one write, past the frozen __setattr__


def _over(d: int, n0: int, n1: int, n2: int, n3: int) -> ChowClass:
    """The class (n0 + n1*H + n2*ell + n3*pt)/d for integers n_i and d > 0."""
    g = gcd(d, n0, n1, n2, n3)
    x = object.__new__(ChowClass)
    _store(x, (d, n0, n1, n2, n3) if g == 1 else (d // g, n0 // g, n1 // g, n2 // g, n3 // g))
    return x


# The Todd class of X_r for each degree r that has asked for it, at most 64 of them.
_TODD: dict[int, ChowClass] = {}


class Hypersurface(_Record):
    """A smooth degree-r hypersurface threefold X_r in P^4 (default: the quintic)."""

    r: int = 5

    def _validate(self) -> None:
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise ValueError(f"degree must be a positive integer, got {self.r!r}")

    def mul(self, x: ChowClass, y: ChowClass) -> ChowClass:
        """Graded truncated product under H^2 = r*ell, H.ell = pt."""
        d, n0, n1, n2, n3 = _product(self.r, x.scaled, y.scaled)  # unpacked: a starred call is slower
        return _over(d, n0, n1, n2, n3)

    def tangent_chern(self) -> ChowClass:
        """Total Chern class of the tangent bundle T_X: (1+H)^5/(1+rH) up to H^3."""
        r = self.r
        return _over(1, 1, 5 - r, r * (10 - 5 * r + r * r), r * (10 - 10 * r + 5 * r * r - r**3))

    def todd(self) -> ChowClass:
        """Todd class 1 + c1/2 + (c1^2 + c2)/12 + c1*c2/24 of T_X, memoised per degree r."""
        if self.r not in _TODD:
            if len(_TODD) >= 64:  # the degree comes from outside, so a miss may evict
                _TODD.clear()
            _, _, c1, c2, _ = self.tangent_chern().scaled
            _TODD[self.r] = _over(24, 24, 12 * c1, 2 * (self.r * c1 * c1 + c2), c1 * c2)
        return _TODD[self.r]


def _product(r: int, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """The truncated product on X_r of two classes as (denominator, four numerators), in that form."""
    d, x0, x1, x2, x3 = x
    e, y0, y1, y2, y3 = y
    return d * e, x0 * y0, x0 * y1 + x1 * y0, x0 * y2 + x2 * y0 + r * x1 * y1, x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1


def _td_integral(X: Hypersurface, x: tuple[int, ...]) -> tuple[int, int]:
    """The integral of x.td(X) for x = (denominator, four numerators), as (numerator, positive denominator)."""
    d, n0, n1, n2, n3 = x
    f, t0, t1, t2, t3 = X.todd().scaled
    return n0 * t3 + n1 * t2 + n2 * t1 + n3 * t0, d * f


QUINTIC = Hypersurface()


class UnsupportedDegreeError(ValueError):
    """A catalog bundle, cat(), exists only on the quintic."""

"""The catalog of normalized indecomposable rank-2 ACM bundles on the quintic.

On a smooth quintic threefold the admissible (c1, c2) pairs for a normalized
indecomposable rank-2 bundle without intermediate cohomology fall into two
families:

    A = {(-2,1), (-1,2), (0,3), (0,4), (0,5), (1,4), (1,6), (1,8), (4,30)}
    B = {(2,11), (2,12), (2,13), (2,14), (3,20)}

Every pair in A arises on a general quintic; the pairs in B are admissible
but their existence is conditional, and the entries (immutable value classes,
not dataclasses) carry that distinction.  An entry's descriptor is built on
each call and kept off the entry; hashing sees its fields, pickling its pair.
``lookup`` reads one (c1, c2) index, built once from ``catalog()``.

An entry is its pair: ``CatalogEntry(c1, c2)`` refuses a pair outside the
catalog and computes each statistic itself, by one rule: the family from the
lists above, chi through the Riemann-Roch kernel ``chi_hrr``, h0 =
``h0_acm_twist(E, 0)``, and stability from the sign of c1 (every entry is
normalized, b = 0).  The twist oracle ``h0_acm_twist`` takes an entry, and
nothing else, and gives the section count of E(n):

* n < 0: zero, because the bundle is normalized;
* c1 + n > 0 (and n >= 0): chi of ``twist(E, n)`` — the ACM condition kills
  h1 and h2, and Serre duality with trivial canonical class kills h3 because
  h0(E(-c1-n)) = 0;
* n = 0 with c1 = 0: one — chi vanishes identically there, but a normalized
  bundle has a section, and counting exactly one reproduces every exclusion
  downstream;
* anything else: undetermined (returned as None, never guessed).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Literal

from .bundles import BundleDescriptor, _exact_int, chi_hrr, twist
from .chowring import QUINTIC, _integer, _Record

__all__ = [
    "CatalogEntry", "catalog", "lookup", "h0_acm_twist", "FAMILY_A", "FAMILY_B", "CASE_INDICES"
]

FAMILY_A: tuple[tuple[int, int], ...] = (
    (-2, 1),
    (-1, 2),
    (0, 3),
    (0, 4),
    (0, 5),
    (1, 4),
    (1, 6),
    (1, 8),
    (4, 30),
)

FAMILY_B: tuple[tuple[int, int], ...] = (
    (2, 11),
    (2, 12),
    (2, 13),
    (2, 14),
    (3, 20),
)
_PAIRS = frozenset(FAMILY_A + FAMILY_B)

# The (F, E, m) rows of the extension table that ``analysis`` builds; here, so
# that the command line can name the cases without importing the analysis.
_TABLE_ROWS: tuple[tuple[tuple[int, int], tuple[int, int], int], ...] = (
    ((4, 30), (1, 8), 0),
    ((4, 30), (0, 3), -1),
    ((4, 30), (0, 4), -1),
    ((4, 30), (0, 5), -1),
    ((1, 8), (0, 3), 0),
    ((1, 8), (0, 4), 0),
    ((1, 8), (0, 5), 0),
)

CASE_INDICES = range(1, len(_TABLE_ROWS) + 1)


class CatalogEntry(_Record):
    """One admissible (c1, c2) pair and the statistics it determines, computed when built; b = 0."""

    c1: int
    c2: int
    family: Literal["A", "B"]
    exists_on_general: bool | Literal["conditional"]
    chi: int
    h0: int | None
    stable: bool

    def __init__(self, c1: int, c2: int):
        if (_integer(c1, "c1"), _integer(c2, "c2")) not in _PAIRS:
            raise ValueError(f"unknown catalog pair ({c1},{c2})")
        family = "A" if (c1, c2) in FAMILY_A else "B"
        _set = object.__setattr__  # the slot writes, past the frozen __setattr__
        _set(self, "c1", c1)
        _set(self, "c2", c2)
        _set(self, "family", family)
        _set(self, "exists_on_general", True if family == "A" else "conditional")
        _set(self, "chi", _exact_int(chi_hrr(self.descriptor(), QUINTIC), "chi"))
        _set(self, "h0", h0_acm_twist(self, 0))
        _set(self, "stable", c1 > 0)  # b = 0: stable iff 2b - c1 < 0, semistable iff 2b - c1 <= 0

    def __reduce__(self):
        return (CatalogEntry, self.pair)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.c1, self.c2)

    @property
    def semistable(self) -> bool:
        return self.c1 >= 0

    def descriptor(self) -> BundleDescriptor:
        return BundleDescriptor(2, self.c1, self.c2)


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """All fourteen entries, family A first, in the fixed listed order."""
    return tuple(CatalogEntry(c1, c2) for c1, c2 in FAMILY_A + FAMILY_B)


def lookup(c1: int, c2: int) -> CatalogEntry | None:
    """The catalog entry with the given Chern classes, or None."""
    return _by_pair().get((_integer(c1, "c1"), _integer(c2, "c2")))


@lru_cache(maxsize=1)
def _by_pair() -> dict[tuple[int, int], CatalogEntry]:
    return {entry.pair: entry for entry in catalog()}


def h0_acm_twist(entry: CatalogEntry, n: int) -> int | None:
    """Number of sections of E(n) for the normalized catalog bundle E of an entry.

    Returns None where the Euler characteristic cannot pin the count down:
    every 0 <= n <= -c1 of the c1 < 0 entries, n = 0 included.  Anything but
    a catalog entry raises ValueError, a descriptor included: only the catalog
    pairs are known to be normalized and ACM.
    """
    _integer(n, "twist n")
    if not isinstance(entry, CatalogEntry):
        raise ValueError(f"the section-count oracle applies to the catalog bundles, not {entry}")
    E = entry.descriptor()
    if n < 0:
        return 0
    if E.c1 + n > 0:
        value = _exact_int(chi_hrr(twist(E, n, QUINTIC), QUINTIC), "chi")
        if value < 0:
            raise ValueError(f"chi = {value} < 0 for {E} twisted by {n}: no normalized ACM bundle")
        return value
    if n == 0 and E.c1 == 0:
        return 1
    return None

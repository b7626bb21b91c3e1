"""The catalog of normalized indecomposable rank-2 ACM bundles on the quintic.

On a smooth quintic threefold the admissible (c1, c2) pairs for a normalized
indecomposable rank-2 bundle without intermediate cohomology fall into two
families:

    A = {(-2,1), (-1,2), (0,3), (0,4), (0,5), (1,4), (1,6), (1,8), (4,30)}
    B = {(2,11), (2,12), (2,13), (2,14), (3,20)}

Every pair in A arises on a general quintic; the pairs in B are admissible
but their existence is conditional, and the entries (immutable value classes,
not dataclasses) carry that distinction.  An entry's descriptor is built once
per (c1, c2) and kept off the entry: pickling and hashing see only its fields.
``lookup`` reads one (c1, c2) index, built once from ``catalog()``.

Each entry comes with derived statistics, each computed by one rule: the
Euler characteristic through the Riemann-Roch kernel ``chi_hrr``, the
section count h0 = ``h0_acm_twist(E, 0)``, and stability from the sign of
c1 (every entry is normalized, b = 0).  The twist oracle ``h0_acm_twist``
gives the section count of E(n):

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
    """One admissible (c1, c2) pair with derived statistics; always b = 0."""

    c1: int
    c2: int
    family: Literal["A", "B"]
    exists_on_general: bool | Literal["conditional"]
    chi: int
    h0: int | None
    stable: bool

    @property
    def pair(self) -> tuple[int, int]:
        return (self.c1, self.c2)

    @property
    def semistable(self) -> bool:
        return self.c1 >= 0

    def descriptor(self) -> BundleDescriptor:
        return _descriptor(self.c1, self.c2)


@lru_cache(maxsize=32, typed=True)
def _descriptor(c1: int, c2: int) -> BundleDescriptor:
    # ``typed`` keeps True apart from 1, so a non-integer class still fails validation.
    return BundleDescriptor(2, c1, c2)


def _make_entry(c1: int, c2: int, family: Literal["A", "B"]) -> CatalogEntry:
    E = _descriptor(c1, c2)
    return CatalogEntry(
        c1=c1,
        c2=c2,
        family=family,
        exists_on_general=True if family == "A" else "conditional",
        chi=_exact_int(chi_hrr(E, QUINTIC), "chi"),
        h0=h0_acm_twist(E, 0),
        # A normalized rank-2 bundle (b = 0) is stable iff 2b - c1 < 0, i.e. c1 > 0,
        # and semistable iff 2b - c1 <= 0, i.e. c1 >= 0.
        stable=c1 > 0,
    )


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """All fourteen entries, family A first, in the fixed listed order."""
    return tuple(
        [_make_entry(c1, c2, "A") for c1, c2 in FAMILY_A]
        + [_make_entry(c1, c2, "B") for c1, c2 in FAMILY_B]
    )


def lookup(c1: int, c2: int) -> CatalogEntry | None:
    """The catalog entry with the given Chern classes, or None."""
    return _by_pair().get((_integer(c1, "c1"), _integer(c2, "c2")))


@lru_cache(maxsize=1)
def _by_pair() -> dict[tuple[int, int], CatalogEntry]:
    return {entry.pair: entry for entry in catalog()}


def h0_acm_twist(entry: CatalogEntry | BundleDescriptor, n: int) -> int | None:
    """Number of sections of E(n) for a normalized catalog bundle E.

    Returns None where the Euler characteristic cannot pin the count down:
    every 0 <= n <= -c1 of the c1 < 0 entries, n = 0 included.  Accepts the
    BundleDescriptor of a catalog entry as well; any other descriptor raises
    ValueError, since only the catalog pairs are known to be normalized and ACM.
    """
    _integer(n, "twist n")
    E = entry.descriptor() if isinstance(entry, CatalogEntry) else entry
    if E.rank != 2 or (E.c1, E.c2) not in FAMILY_A + FAMILY_B:
        raise ValueError(f"the section-count oracle applies to the catalog bundles, not {E}")
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

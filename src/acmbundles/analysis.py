"""Extension table and splitting-exclusion analysis for rank-4 bundles.

Rank-4 bundles without intermediate cohomology arise on the quintic threefold
as extensions

    0 -> F(m) -> G -> E -> 0,    m <= 0,

of catalog bundles E by twisted catalog bundles F(m).  The Euler pairing
chi(E, F(m)) = hom - ext^1 + ext^2 - ext^3 (``euler_pairing``) bounds ext^1
from below by -chi, and so makes Ext^1(E, F(m)) nonempty when chi < 0, only
once ext^3 = h3(F(m) tensor E*) vanishes (``h3_vanishes``: c1(F) + m > 0).  Seven
(F, E, m) triples make this work:

    (1) F=(4,30)  E=(1,8)  m=0      (5) F=(1,8)  E=(0,3)  m=0
    (2) F=(4,30)  E=(0,3)  m=-1     (6) F=(1,8)  E=(0,4)  m=0
    (3) F=(4,30)  E=(0,4)  m=-1     (7) F=(1,8)  E=(0,5)  m=0
    (4) F=(4,30)  E=(0,5)  m=-1

All chi values are computed through the Riemann-Roch pipeline, never stored.
Everything here is a statement about the quintic, so no function takes a
degree: each uses ``QUINTIC``.  ``require_quintic`` (re-exported from
``chowring``) guards a caller that gets a degree from outside; the table rows
and ``CASE_INDICES`` live in ``catalog``.  The records are immutable value
classes, not dataclasses.

The splitting engine then certifies that a nontrivial extension G cannot be a
direct sum of two rank-2 catalog bundles.  Candidate pairs {G1, G2} are
normalized catalog entries whose c1 values add up to c1(G).  The pairs of a
pool are built once, grouped by c1 sum, each with its ``direct_sum`` (the
Whitney sum), c1 values, chi sum, the h0 of both entries and whether either
has c1 = 0 (the section-count convention flag); the catalog's table is built
on first use, and F(m) is twisted once per (entry, m) in a bounded cache.  Each
candidate is disposed of by the first applicable filter:

* ``chern-mismatch``  — the direct sum's c2 misses c2(G);
* ``trivial-split``   — the pair is exactly {F(m), E}, which a nontrivial
  extension class rules out;
* ``h0-mismatch``     — section counts differ: an extension of ACM bundles
  has h0(G) = h0(F(m)) + h0(E), while a sum has h0(G1) + h0(G2).  Every count
  is the catalog's ``h0`` (each entry is normalized, so F(m) has none for
  m < 0); the pair's two counts come with its row of the pair table;
* ``undecided``       — no numeric filter applies (never happens in the
  seven table cases).

A case report keeps the Whitney survivors as its verdict list; pairs rejected
on Chern classes are carried separately for auditing, each flagged with
whether its c1 values avoid {c1(F(m)), c1(E)} entirely (pairs that do not are
independently excluded by a slope-stability argument, so the Chern rejection
is informative exactly for the c1-disjoint ones).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .bundles import BundleDescriptor, _exact_int, chi_hrr, direct_sum, euler_pairing, twist
from .catalog import _TABLE_ROWS, CASE_INDICES, CatalogEntry, _descriptor, catalog
from .chowring import QUINTIC, UnsupportedDegreeError, _Record, require_quintic

__all__ = [
    "QUINTIC",
    "ExtensionCase",
    "SplitVerdict",
    "CaseReport",
    "UnsupportedDegreeError",
    "BoundNotJustifiedError",
    "CASE_INDICES",
    "FILTER_CHERN_MISMATCH",
    "FILTER_TRIVIAL_SPLIT",
    "FILTER_H0_MISMATCH",
    "FILTER_UNDECIDED",
    "CONCLUSION_INDECOMPOSABLE",
    "CONCLUSION_INCONCLUSIVE",
    "require_quintic",
    "build_case",
    "extension_cases",
    "ext1_lower_bound",
    "enumerate_split_candidates",
    "analyze_case",
    "analyze_extension",
]

FILTER_CHERN_MISMATCH = "chern-mismatch"
FILTER_TRIVIAL_SPLIT = "trivial-split"
FILTER_H0_MISMATCH = "h0-mismatch"
FILTER_UNDECIDED = "undecided"

CONCLUSION_INDECOMPOSABLE = "indecomposable-by-numeric-filters"
CONCLUSION_INCONCLUSIVE = "inconclusive"

NOTE_H0_CONVENTION = (
    "h0 counts for c1 = 0 entries use the normalized-bundle convention h0 = 1; "
    "every exclusion recorded here also holds under the alternative convention h0 = 0."
)

class BoundNotJustifiedError(ValueError):
    """The Ext^1 lower bound needs the h3-vanishing hypothesis."""


class ExtensionCase(_Record):
    """One (F, E, m) extension datum with its derived invariants."""

    index: int | None
    F: CatalogEntry
    E: CatalogEntry
    m: int
    chi_tensor: int
    d_lower: int
    F_twisted: BundleDescriptor
    G: BundleDescriptor

    @property
    def g_chern(self) -> tuple[int, int, int]:
        return self.G.chern_tuple()

    @property
    def h3_vanishes(self) -> bool:
        """c1(F) + m > 0, so h0(F*(-m)) = 0 by normalization and h3(F(m) tensor E*) = 0."""
        return self.F.c1 + self.m > 0


class SplitVerdict(_Record):
    """One candidate decomposition {G1, G2} and the filter that disposed of it."""

    pair: tuple[CatalogEntry, CatalogEntry]
    sum_chern: tuple[int, int, int]
    filter: str
    details: dict

    @property
    def pair_key(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.pair[0].pair, self.pair[1].pair)


class CaseReport(_Record):
    """Full analysis of one extension case.

    ``verdicts`` holds the Whitney (c1, c2) survivors; ``rejected`` holds the
    chern-mismatch verdicts for the remaining c1-compatible pairs.  The
    conclusion is ``indecomposable-by-numeric-filters`` exactly when the
    rank-1-summand hypothesis holds and no surviving verdict is undecided.
    """

    case: ExtensionCase
    rank1_hypothesis_ok: bool
    verdicts: tuple[SplitVerdict, ...]
    rejected: tuple[SplitVerdict, ...]
    conclusion: str
    notes: tuple[str, ...] = ()


def build_case(
    F: CatalogEntry, E: CatalogEntry, m: int, *, index: int | None = None
) -> ExtensionCase:
    """Assemble the extension datum for 0 -> F(m) -> G -> E -> 0."""
    if m > 0:
        raise ValueError(f"extension twist m must be non-positive, got {m}")
    Fm = _twisted(F.c1, F.c2, m)
    chi_t = _exact_int(euler_pairing(E.descriptor(), Fm, QUINTIC), "chi")
    G = direct_sum(Fm, E.descriptor(), QUINTIC)
    return ExtensionCase(
        index=index,
        F=F,
        E=E,
        m=m,
        chi_tensor=chi_t,
        d_lower=max(0, -chi_t),
        F_twisted=Fm,
        G=G,
    )


@lru_cache(maxsize=64, typed=True)
def _twisted(c1: int, c2: int, m: int) -> BundleDescriptor:
    # F(m) for F = (c1, c2): the sweep's 56 fit; any other m evicts, never grows it.
    return twist(_descriptor(c1, c2), m, QUINTIC)


@lru_cache(maxsize=1)
def extension_cases() -> tuple[ExtensionCase, ...]:
    """The seven extension cases, with chi computed through Riemann-Roch."""
    by_pair = {entry.pair: entry for entry in catalog()}
    return tuple(
        build_case(by_pair[f], by_pair[e], m, index=i)
        for i, (f, e, m) in enumerate(_TABLE_ROWS, start=1)
    )


def ext1_lower_bound(case: ExtensionCase) -> int:
    """Lower bound d_lower = max(0, -chi) for dim Ext^1(E, F(m)).

    Valid only under the h3-vanishing hypothesis: then
    h1 = h0 + h2 - chi >= -chi.
    """
    if not case.h3_vanishes:
        raise BoundNotJustifiedError(
            "bound not justified: h3-vanishing hypothesis c1(F) + m > 0 fails"
        )
    return case.d_lower


# A pool's pair: (P, Q), its key, the Chern classes of the Whitney sum P + Q and
# again its c2 and c3, {c1(P), c1(Q)}, chi(P) + chi(Q), (h0(P), h0(Q)) and
# whether either entry has c1 = 0, so that its h0 rests on the c1 = 0 convention.
_PairTable = dict[int, list[tuple]]


def _pairs(entries: tuple[CatalogEntry, ...]) -> _PairTable:
    """Unordered pairs of ``entries`` by c1 sum, in ``pair_key`` order, with their static facts.

    Sorting the pool gives P.pair <= Q.pair; sorting the pairs matters only
    when the pool repeats a (c1, c2).
    """
    pool = sorted(entries, key=lambda entry: entry.pair)
    table: _PairTable = {}
    for P, Q in sorted(combinations_with_replacement(pool, 2), key=lambda pq: [e.pair for e in pq]):
        S = direct_sum(P.descriptor(), Q.descriptor(), QUINTIC)
        table.setdefault(S.c1, []).append(
            ((P, Q), (P.pair, Q.pair), S.chern_tuple(), S.c2, S.c3, frozenset((P.c1, Q.c1)),
             P.chi + Q.chi, (P.h0, Q.h0), 0 in (P.c1, Q.c1))
        )
    return table


@lru_cache(maxsize=1)
def _catalog_pairs() -> _PairTable:
    """The catalog's pair table, built on first use."""
    return _pairs(catalog())


def _classify(
    case: ExtensionCase, pairs: _PairTable
) -> tuple[list[SplitVerdict], list[SplitVerdict], bool]:
    """Split the pairs of c1 sum c1(G) into Whitney survivors and Chern rejections.

    Returns (survivors, rejected, used_h0_convention); both verdict lists keep
    the table's ``pair_key`` order, whatever the order of the pool.
    """
    G = case.G
    c2_target, c3_target = G.c2, G.c3
    Fm = case.F_twisted
    f_pair, e_pair = (Fm.c1, Fm.c2), case.E.pair
    trivial_key = (min(f_pair, e_pair), max(f_pair, e_pair))
    target_c1s = {Fm.c1, case.E.c1}
    chi_target = _exact_int(chi_hrr(G, QUINTIC), "chi")
    h0_Fm, h0_E = case.F.h0 if case.m == 0 else 0, case.E.h0
    case_convention = (case.m == 0 and case.F.c1 == 0) or case.E.c1 == 0

    survivors: list[SplitVerdict] = []
    rejected: list[SplitVerdict] = []
    used_convention = False

    for pair, key, sum_chern, c2_sum, c3_sum, c1s, chi_sum, h0s, pair_convention in pairs.get(G.c1, ()):
        details = {
            "c2_sum": c2_sum,
            "c2_target": c2_target,
            "c3_sum": c3_sum,
            "c3_target": c3_target,
            "chi_sum": chi_sum,
            "chi_target": chi_target,
        }
        if c2_sum != c2_target:
            details["c1_disjoint"] = c1s.isdisjoint(target_c1s)
            rejected.append(SplitVerdict(pair, sum_chern, FILTER_CHERN_MISMATCH, details))
            continue
        if key == trivial_key:
            kind = FILTER_TRIVIAL_SPLIT
        else:
            used_convention = used_convention or case_convention or pair_convention
            details |= {"h0_F_m": h0_Fm, "h0_E": h0_E, "h0_pair": list(h0s)}
            kind = FILTER_UNDECIDED
            if None in (h0_Fm, h0_E, *h0s):
                details["reason"] = "h0 undetermined"
            else:
                details |= {"h0_lhs": h0_Fm + h0_E, "h0_rhs": sum(h0s)}
                if details["h0_lhs"] != details["h0_rhs"]:
                    kind = FILTER_H0_MISMATCH
                else:
                    details["reason"] = "all numeric filters agree"
        survivors.append(SplitVerdict(pair, sum_chern, kind, details))

    return survivors, rejected, used_convention


def enumerate_split_candidates(
    case: ExtensionCase,
    include_rejected: bool = False,
    entries: tuple[CatalogEntry, ...] | None = None,
) -> list[SplitVerdict]:
    """Verdicts for all candidate decompositions G = G1 + G2.

    By default only the pairs passing the Whitney (c1, c2) comparison are
    returned; ``include_rejected`` appends the chern-mismatch verdicts for
    the other c1-compatible pairs.  Candidates come from the catalog unless
    an ``entries`` pool is given; an empty pool has no candidates.
    """
    pairs = _catalog_pairs() if entries is None else _pairs(entries)
    survivors, rejected, _ = _classify(case, pairs)
    return survivors + rejected if include_rejected else survivors


def _report(case: ExtensionCase) -> CaseReport:
    survivors, rejected, used_convention = _classify(case, _catalog_pairs())
    undecided = any(v.filter == FILTER_UNDECIDED for v in survivors)
    return CaseReport(
        case=case,
        rank1_hypothesis_ok=case.h3_vanishes,
        verdicts=tuple(survivors),
        rejected=tuple(rejected),
        conclusion=(
            CONCLUSION_INDECOMPOSABLE
            if case.h3_vanishes and not undecided
            else CONCLUSION_INCONCLUSIVE
        ),
        notes=(NOTE_H0_CONVENTION,) if used_convention else (),
    )


def analyze_case(index: int) -> CaseReport:
    """Analyze one of the seven table cases (1-based index)."""
    cases = extension_cases()
    if not 1 <= index <= len(cases):
        raise ValueError(f"case index must be in 1..{len(cases)}, got {index}")
    return _report(cases[index - 1])


def analyze_extension(F: CatalogEntry, E: CatalogEntry, m: int) -> CaseReport:
    """Analyze an arbitrary (F, E, m) extension of catalog bundles.

    Unlike the seven table cases this may legitimately come back
    inconclusive, e.g. when a surviving candidate needs a section count the
    numerics cannot determine.
    """
    return _report(build_case(F, E, m))

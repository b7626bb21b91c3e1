"""Extension table and splitting-exclusion analysis for rank-4 bundles.

Rank-4 bundles without intermediate cohomology arise on the quintic threefold
as extensions

    0 -> F(m) -> G -> E -> 0,    m <= 0,

of catalog bundles E by twisted catalog bundles F(m).  The Euler pairing
chi(E, F(m)) = hom - ext^1 + ext^2 - ext^3 (``euler_pairing``) bounds ext^1 from
below by -chi (``d_lower``), and so makes Ext^1(E, F(m)) nonempty when chi < 0,
only once ext^3 vanishes.  As omega_X = O_X, ext^3(E, F(m)) = hom(F(m), E), which
nothing here computes: ``h3_vanishes`` is the predicate c1(F) + m > 0, which
ROADMAP item 1 replaces.  The seven (F, E, m) triples of the table are
``catalog._TABLE_ROWS``; ``extension_cases`` finds their entries by ``lookup``.

All chi values are computed through the Riemann-Roch pipeline, never stored.
Everything here is a statement about the quintic, so no function takes a
degree: each uses ``QUINTIC``, and ``expr.evaluate`` checks the degree at each
cat() it meets.  The table rows and ``CASE_INDICES`` live in ``catalog``.
The records are immutable value classes, not dataclasses.

The splitting engine then certifies that a nontrivial extension G cannot be a
direct sum of two rank-2 catalog bundles.  Candidate pairs {G1, G2} are
normalized catalog entries whose c1 values add up to c1(G).  The pair table is
built once, grouped by c1 sum; a row holds six fields: the pair, its key, the
Whitney sum's Chern classes, the two c1 values, the two h0 and the case-free
half of the ``details`` each verdict copies (c2 and c3 of the sum, the chi sum).
The trivial key {F(m), E} and the counts h0(F(m)), h0(E) are facts of the case,
decided once per case.  ``build_case`` reads chi(E, F(m)) with
``Hypersurface._point`` from the Chern characters ``_twisted`` caches.
``_classify`` disposes of each candidate by the first applicable filter and
builds the case report:

* ``chern-mismatch``  — the direct sum's c2 misses c2(G);
* ``trivial-split``   — the pair is exactly {F(m), E}, which a nontrivial
  extension class rules out.  It needs m = 0: no F(m) with m < 0 is a catalog
  pair (checked for m in [-3, -1]; below, c1(F(m)) <= 4 - 8 is under the least
  catalog c1, -2);
* ``h0-mismatch``     — section counts differ: an extension of ACM bundles
  has h0(G) = h0(F(m)) + h0(E), while a sum has h0(G1) + h0(G2).  Every count
  is the catalog's ``h0`` (each entry is normalized, so F(m) has none for
  m < 0), and a count of a c1 = 0 entry brings in ``NOTE_H0_CONVENTION``;
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

from .bundles import BundleDescriptor, _exact_int, chi_hrr, direct_sum, dual, to_ch, twist
from .catalog import _TABLE_ROWS, CASE_INDICES, CatalogEntry, catalog, lookup
from .chowring import QUINTIC, ChowClass, _integer, _Record

__all__ = [
    "QUINTIC",
    "ExtensionCase",
    "SplitVerdict",
    "CaseReport",
    "FILTER_CHERN_MISMATCH",
    "FILTER_TRIVIAL_SPLIT",
    "FILTER_H0_MISMATCH",
    "FILTER_UNDECIDED",
    "CONCLUSION_INDECOMPOSABLE",
    "CONCLUSION_INCONCLUSIVE",
    "build_case",
    "extension_cases",
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
        """c1(F) + m > 0, which does not compute ext^3(E, F(m)) = hom(F(m), E) (omega_X = O_X):
        F = E = (1,8), m = 0 passes with hom(E, E) >= 1.  ROADMAP item 1 replaces it."""
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
    if _integer(m, "extension twist m") > 0:
        raise ValueError(f"extension twist m must be non-positive, got {m}")
    Fm, ch_Fm, _ = _twisted(F.c1, F.c2, m)
    E0, _, ch_E_dual = _twisted(E.c1, E.c2, 0)
    num, den = QUINTIC._point(ch_E_dual, ch_Fm, QUINTIC.todd())
    chi_t = _exact_int(num, "chi", den)
    G = direct_sum(Fm, E0, QUINTIC)
    return ExtensionCase(index, F, E, m, chi_t, max(0, -chi_t), Fm, G)


@lru_cache(maxsize=64)
def _twisted(c1: int, c2: int, m: int) -> tuple[BundleDescriptor, ChowClass, ChowClass]:
    # E(m), ch(E(m)) and ch(E(m)*) for the rank-2 E = (c1, c2).  The sweep's 56 keys fit,
    # its 14 m = 0 keys serving E as well as F; any other key evicts, never grows it.
    Em = twist(BundleDescriptor(2, c1, c2), m, QUINTIC)
    return Em, to_ch(Em, QUINTIC), to_ch(dual(Em), QUINTIC)


@lru_cache(maxsize=1)
def extension_cases() -> tuple[ExtensionCase, ...]:
    """The seven extension cases, with chi computed through Riemann-Roch."""
    return tuple(
        build_case(lookup(*f), lookup(*e), m, index=i)
        for i, (f, e, m) in enumerate(_TABLE_ROWS, start=1)
    )


# A row: the pair (P, Q), its key, the Whitney sum's Chern classes, {c1(P), c1(Q)},
# (h0(P), h0(Q)) and the case-free half of the verdict's details, in their final key order.
@lru_cache(maxsize=1)
def _catalog_pairs() -> dict[int, list[tuple]]:
    """The catalog's unordered pairs by c1 sum, in ``pair_key`` order, with their static facts.

    The catalog's pairs are distinct, so combinations of the sorted catalog
    come in ``pair_key`` order.
    """
    table: dict[int, list[tuple]] = {}
    for P, Q in combinations_with_replacement(sorted(catalog(), key=lambda entry: entry.pair), 2):
        S = direct_sum(P.descriptor(), Q.descriptor(), QUINTIC)
        table.setdefault(S.c1, []).append(
            ((P, Q), (P.pair, Q.pair), S.chern_tuple(), frozenset((P.c1, Q.c1)), (P.h0, Q.h0),
             {"c2_sum": S.c2, "c2_target": None, "c3_sum": S.c3, "c3_target": None,
              "chi_sum": P.chi + Q.chi, "chi_target": None, "c1_disjoint": None})
        )
    return table


def _classify(case: ExtensionCase) -> CaseReport:
    """Dispose of each catalog pair of c1 sum c1(G) and report the case.

    Whitney survivors become the verdicts and Chern rejections the
    ``rejected`` list, both in the pair table's ``pair_key`` order.
    """
    G, F, E, m = case.G, case.F, case.E, case.m
    c2_target, c3_target, e_c1 = G.c2, G.c3, E.c1
    chi_target = _exact_int(chi_hrr(G, QUINTIC), "chi")
    # Only m = 0 can split trivially: no F(m), m < 0, is a catalog pair (see the module docstring).
    trivial = m == 0 and tuple(sorted((F.pair, E.pair)))
    h0_Fm, h0_E = F.h0 if m == 0 else 0, E.h0
    case_convention = (m == 0 and F.c1 == 0) or e_c1 == 0

    survivors: list[SplitVerdict] = []
    rejected: list[SplitVerdict] = []
    used_convention = undecided = False

    for pair, key, sum_chern, c1s, h0s, row_details in _catalog_pairs().get(G.c1, ()):
        details = row_details.copy()
        details["c2_target"] = c2_target
        details["c3_target"] = c3_target
        details["chi_target"] = chi_target
        if sum_chern[1] != c2_target:
            # c1(P) + c1(Q) = c1(F(m)) + c1(E): a pair holds c1(F(m)) exactly when it holds c1(E).
            details["c1_disjoint"] = e_c1 not in c1s
            rejected.append(SplitVerdict(pair, sum_chern, FILTER_CHERN_MISMATCH, details))
            continue
        del details["c1_disjoint"]  # only a Chern rejection carries it
        if key == trivial:
            kind = FILTER_TRIVIAL_SPLIT
        else:
            used_convention = used_convention or case_convention or 0 in c1s
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
            undecided = undecided or kind == FILTER_UNDECIDED
        survivors.append(SplitVerdict(pair, sum_chern, kind, details))

    h3_vanishes = case.h3_vanishes
    return CaseReport(
        case,
        h3_vanishes,
        tuple(survivors),
        tuple(rejected),
        CONCLUSION_INDECOMPOSABLE if h3_vanishes and not undecided else CONCLUSION_INCONCLUSIVE,
        (NOTE_H0_CONVENTION,) if used_convention else (),
    )


def analyze_case(index: int) -> CaseReport:
    """Analyze one of the seven table cases (1-based index)."""
    if _integer(index, "case index") not in CASE_INDICES:
        raise ValueError(f"case index must be in 1..{len(CASE_INDICES)}, got {index}")
    return _classify(extension_cases()[index - 1])


def analyze_extension(F: CatalogEntry, E: CatalogEntry, m: int) -> CaseReport:
    """Analyze an arbitrary (F, E, m) extension of catalog bundles.

    Unlike the seven table cases this may legitimately come back
    inconclusive, e.g. when a surviving candidate needs a section count the
    numerics cannot determine.
    """
    return _classify(build_case(F, E, m))

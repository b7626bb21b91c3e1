"""Every chi the tool prints against a second derivation that never reads the Todd class,
and the catalog against a numerical screen of the same Serre curve.

The library computes chi(E) and chi(E, F) by Riemann-Roch, integrating against
td(X).  The oracles here use binomials on P^4 and the Serre curve of a section
instead (``oracles.chi_line``, ``chi_rank2_serre``, ``pairing_serre``), so a
mistake in ``tangent_chern`` or ``todd`` cannot be copied into both sides.
The line-bundle case is ``test_bundles.test_chi_line_bundles_against_ideal_sheaf_oracle``.
"""

from itertools import product

import pytest

from acmbundles import (
    BundleDescriptor,
    Hypersurface,
    analyze_extension,
    build_case,
    catalog,
    chi_hrr,
    extension_cases,
    lookup,
    twist,
)
from acmbundles.analysis import CONCLUSION_INDECOMPOSABLE
from acmbundles.catalog import FAMILY_A, FAMILY_B

import oracles


def test_rank_two_chi_matches_the_serre_curve_on_every_degree():
    checked = 0
    for r in range(1, 9):
        X = Hypersurface(r)
        for c1, c2 in product(range(-4, 5), range(-4, 40)):
            if c2 * (c1 + r - 5) % 2:
                continue  # no curve has genus 1 + c2 (c1 + r - 5) / 2
            E = BundleDescriptor(2, c1, c2)
            for n in range(-4, 5):
                assert chi_hrr(twist(E, n, X), X) == oracles.chi_rank2_serre(r, c1, c2, n), (r, c1, c2, n)
                checked += 1
    assert checked == 21_384  # (4 * 308 + 4 * 286) (c1, c2) pairs over the degrees, 9 twists each


def test_every_sweep_pairing_matches_the_serre_curve():
    triples = list(product(catalog(), catalog(), range(-3, 1)))
    assert len(triples) == 784
    for F, E, m in triples:
        assert build_case(F, E, m).chi_tensor == oracles.pairing_serre(5, E.pair, F.pair, m), (F.pair, E.pair, m)


def test_hom_is_bounded_by_sections_on_every_sweep_triple():
    # hom(F(m), E) = ext3(E, F(m)).  Its upper bound vanishes exactly on the band
    # c1(F) + m > max(0, c1(E)), where ext3 = 0 is computed; its lower bound is positive
    # exactly where c1(F) + m <= 0, so that predicate is necessary for ext3 = 0.  Between
    # them, 0 < c1(F) + m <= c1(E), the sections do not decide.
    band, certified, d_positive = set(), set(), set()
    for F, E, m in product(catalog(), catalog(), range(-3, 1)):
        key = (F.pair, E.pair, m)
        lower, upper = oracles.hom_bounds(F, E, m)
        assert 0 <= lower <= upper, key
        assert (upper == 0) == (F.c1 + m > max(0, E.c1)), key
        assert (lower >= 1) == (F.c1 + m <= 0), key
        if upper == 0:
            band.add(key)
        report = analyze_extension(F, E, m)
        if report.conclusion == CONCLUSION_INDECOMPOSABLE:
            certified.add(key)
        if report.case.d_lower > 0:
            d_positive.add(key)
    assert (len(certified), len(certified & band)) == (209, 120)
    assert (len(d_positive), len(d_positive & band)) == (487, 52)
    rows = {(case.F.pair, case.E.pair, case.m) for case in extension_cases()}
    assert len(rows) == 7 and rows <= band
    # F = E = (1,8), m = 0 is certified today, yet the bounds leave it undecided: they give
    # 0 <= hom(E, E) <= 1, and the identity makes it 1.
    E = lookup(1, 8)
    assert oracles.hom_bounds(E, E, 0) == (0, 1) and (E.pair, E.pair, 0) in certified


# The (c1, c2) that oracles.passes_serre_screen admits on X_r, c1 in [-20, 20], c2 in [-5, 400].
# r = 5 is the catalog.  r = 1 (X = P^3) admits nothing, as Horrocks' criterion splits every ACM
# bundle there, and r = 2 (the quadric threefold) only the twisted spinor bundle, with a line for C
# (Knoerrer; Ottaviani).  The r = 3 and r = 4 sets are the screen's outputs, pinned as computed:
# no theorem is checked against them here.
SCREENED = {
    1: set(),
    2: {(1, 1)},
    3: {(0, 1), (1, 2), (2, 5)},
    4: {(-1, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 8), (3, 14)},
    5: set(FAMILY_A + FAMILY_B),
}


@pytest.mark.parametrize("r", sorted(SCREENED))
def test_the_serre_curve_screen_derives_the_rank_two_acm_pairs(r):
    box = product(range(-20, 21), range(-5, 401))
    assert {pair for pair in box if oracles.passes_serre_screen(r, *pair)} == SCREENED[r]

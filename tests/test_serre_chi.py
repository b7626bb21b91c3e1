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

from acmbundles import BundleDescriptor, Hypersurface, build_case, catalog, chi_hrr, twist
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

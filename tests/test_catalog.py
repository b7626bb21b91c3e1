import copy
import pickle
import re
from math import comb

import pytest

from acmbundles import (
    QUINTIC, BundleDescriptor, Hypersurface, analyze_case, analyze_extension, catalog, chi_hrr, h0_acm_twist,
    lookup, twist,
)
from acmbundles.catalog import FAMILY_A, FAMILY_B, CatalogEntry

import oracles


def test_catalog_has_fourteen_fixed_entries():
    entries = catalog()
    assert len(entries) == 14
    assert [e.pair for e in entries] == list(FAMILY_A) + list(FAMILY_B)
    assert sum(1 for e in entries if e.family == "A") == 9
    assert sum(1 for e in entries if e.family == "B") == 5


def test_existence_metadata():
    for e in catalog():
        if e.family == "A":
            assert e.exists_on_general is True
        else:
            assert e.exists_on_general == "conditional"


def test_chi_statistics():
    chis = {e.pair: e.chi for e in catalog()}
    assert chis[(4, 30)] == 10
    assert chis[(3, 20)] == 5
    assert chis[(-2, 1)] == -14
    assert chis[(-1, 2)] == -4
    assert all(chis[(0, c2)] == 0 for c2 in (3, 4, 5))
    positive_c1 = [e.chi for e in catalog() if e.c1 >= 1]
    assert positive_c1 == [3, 2, 1, 10, 4, 3, 2, 1, 5]
    assert all(chi >= 1 for chi in positive_c1)
    for e in catalog():
        assert type(e.chi) is int and e.chi == oracles.chi_rank2(e.c1, e.c2), e.pair


def test_h0_statistics():
    for e in catalog():
        assert e.h0 == h0_acm_twist(e, 0)
        if e.c1 >= 1:
            assert e.h0 == e.chi
        elif e.c1 == 0:
            assert e.h0 == 1
        else:
            assert e.h0 is None


def test_stability_partition():
    unstable = [e.pair for e in catalog() if not e.semistable]
    assert unstable == [(-2, 1), (-1, 2)]
    for e in catalog():
        # b = 0, so the section criteria 2b - c1 < 0 and 2b - c1 <= 0 read c1 > 0 and c1 >= 0.
        assert e.stable is (e.c1 > 0)
        assert e.semistable is (e.c1 >= 0)
        if e.c1 == 0:
            assert e.semistable and not e.stable


def test_descriptor_is_normalized_acm():
    # Normalized and ACM are facts the catalog states about its entries: the oracle takes
    # an entry and refuses the entry's descriptor like any other descriptor.
    for e in catalog():
        assert e.descriptor() == BundleDescriptor(2, e.c1, e.c2)
        for n in range(-3, 6):
            assert h0_acm_twist(e, n) == _h0_oracle(e.c1, e.c2, n), (e.pair, n)
            with pytest.raises(ValueError, match="applies to the catalog bundles"):
                h0_acm_twist(e.descriptor(), n)


def test_a_hand_made_entry_cannot_steer_a_verdict():
    # An entry is built from its pair alone: no statistic can be typed in, so none can
    # turn a certified case inconclusive.
    with pytest.raises(TypeError):
        CatalogEntry(0, 3, "A", True, 0, 2, False)
    with pytest.raises(TypeError):
        CatalogEntry(0, 3, h0=2)
    with pytest.raises(ValueError, match=re.escape("unknown catalog pair (9,9)")):
        CatalogEntry(9, 9)
    for c1, c2 in FAMILY_A + FAMILY_B:
        entry = CatalogEntry(c1, c2)
        assert entry == lookup(c1, c2)
        copies = [pickle.loads(pickle.dumps(entry, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies + [copy.copy(entry), copy.deepcopy(entry)]:
            assert type(back) is CatalogEntry and back == entry, (c1, c2)
    certified = "indecomposable-by-numeric-filters"
    assert analyze_case(2).conclusion == certified
    assert analyze_extension(lookup(4, 30), CatalogEntry(0, 3), -1).conclusion == certified


def test_a_descriptor_is_its_chern_data_on_every_degree():
    # A descriptor records no degree, so it carries no catalog fact onto a twist on X_4.
    assert BundleDescriptor._fields == ("rank", "c1", "c2", "c3")
    X4 = Hypersurface(4)
    assert twist(lookup(1, 8).descriptor(), 1, X4) == BundleDescriptor(2, 3, 16)
    for e in catalog():
        assert twist(e.descriptor(), 1, X4) == BundleDescriptor(2, e.c1 + 2, e.c2 + 4 * (e.c1 + 1)), e.pair


def test_lookup():
    assert lookup(4, 30) is not None and lookup(4, 30).family == "A"
    assert lookup(2, 15) is None  # a twist like F(-1), not a catalog bundle
    assert lookup(3, 19) is None


def test_lookup_over_a_box_is_the_catalog_entry_with_that_pair():
    # The box holds every catalog pair and their near misses in c1 and in c2.
    found = 0
    for c1 in range(-6, 7):
        for c2 in range(-2, 41):
            entries = [entry for entry in catalog() if entry.pair == (c1, c2)]
            assert lookup(c1, c2) is (entries[0] if entries else None), (c1, c2)
            found += bool(entries)
    assert found == len(catalog()) == 14


def test_h0_twist_oracle_values():
    assert h0_acm_twist(lookup(4, 30), -1) == 0
    assert h0_acm_twist(lookup(2, 14), 0) == 1
    assert h0_acm_twist(lookup(0, 4), 0) == 1
    assert h0_acm_twist(lookup(2, 13), 0) == 2
    assert h0_acm_twist(lookup(0, 5), 0) == 1
    # the pairs behind the section-count exclusions
    assert h0_acm_twist(lookup(2, 14), 0) + h0_acm_twist(lookup(0, 4), 0) == 2
    assert h0_acm_twist(lookup(2, 13), 0) + h0_acm_twist(lookup(0, 5), 0) == 3


def _h0_oracle(c1: int, c2: int, n: int):
    # The twist written out by hand: E(n) has c1 + 2n and c2 + 5(n c1 + n^2).
    if n < 0:
        return 0
    if c1 + n > 0:
        return oracles.chi_rank2(c1 + 2 * n, c2 + 5 * (n * c1 + n * n))
    return 1 if n == 0 and c1 == 0 else None


def _chi_differences(c1: int, c2: int) -> list[int]:
    # The forward differences D^0..D^3 of the cubic n -> chi(E(n)) at n0 = max(0, 1 - c1),
    # the first n the oracle reads as chi.  chi(E(n0 + j)) = sum_k D^k C(j, k), so four
    # nonnegative differences make chi(E(n)) >= 0 for every n >= n0.
    n0 = max(0, 1 - c1)
    row = [chi_hrr(twist(BundleDescriptor(2, c1, c2), n0 + j, QUINTIC), QUINTIC) for j in range(4)]
    differences = []
    for _ in range(4):
        differences.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return differences


def test_h0_twist_oracle_positive_twists_use_chi():
    assert h0_acm_twist(lookup(0, 5), 1) == oracles.chi_rank2(2, 10) == 5
    assert h0_acm_twist(lookup(-2, 1), 3) == oracles.chi_rank2(4, 16) == 38
    for e in catalog():
        for n in range(-3, 4):
            assert h0_acm_twist(e, n) == _h0_oracle(e.c1, e.c2, n), (e.pair, n)
        # So the count is never negative, for every n: the oracle needs no guard on it.
        differences = _chi_differences(e.c1, e.c2)
        assert min(differences) >= 0 and differences[3] == 10, (e.pair, differences)
        n0 = max(0, 1 - e.c1)
        for j in range(12):
            assert h0_acm_twist(e, n0 + j) == sum(d * comb(j, k) for k, d in enumerate(differences)), (e.pair, j)
    # The check can fail: (1, 20) is no catalog pair, and its chi is -5 at n0 = 0.
    assert _chi_differences(1, 20)[0] == -5


def test_h0_twist_oracle_undetermined_cases():
    assert h0_acm_twist(lookup(-2, 1), 0) is None
    assert h0_acm_twist(lookup(-2, 1), 2) is None  # c1 + n = 0 is not enough
    assert h0_acm_twist(lookup(-1, 2), 0) is None
    assert h0_acm_twist(lookup(-1, 2), 1) is None


def test_h0_twist_oracle_accepts_normalized_descriptors_only():
    # Only the catalog's descriptors are known to be normalized and ACM.
    not_in_catalog = [
        BundleDescriptor(2, 1, 100),  # rank 2, but no catalog pair (chi = -45 there)
        BundleDescriptor(2, 2, 15),  # the catalog's (4, 30) twisted by -1: not normalized
        BundleDescriptor(1, 1),  # wrong rank
        BundleDescriptor(3, 1, 8),  # a catalog (c1, c2) at another rank
    ]
    for E in not_in_catalog:
        with pytest.raises(ValueError, match="applies to the catalog bundles"):
            h0_acm_twist(E, 0)


# The Serre correspondence: a section of a catalog bundle E with b = 0 vanishes on a
# curve C with deg C = c2 and 2 p_a(C) - 2 = c1 c2, and 0 -> O_X -> E -> I_C(c1) -> 0.
# H^1(O_X(n)) = 0 and h0(I_C(k)) = 0 for k <= 0 then give chi(E(n)) for 0 <= n <= -c1.


def _serre_chi(c1: int, n: int) -> int:
    return oracles.h0_structure_sheaf(n) - oracles.h0_structure_sheaf(-c1 - n)


def test_the_structure_sheaf_section_counts():
    assert [oracles.h0_structure_sheaf(k) for k in range(-1, 7)] == [0, 1, 5, 15, 35, 70, 125, 205]


def test_each_entry_has_an_even_c1_c2():
    for e in catalog():
        assert e.c1 * e.c2 % 2 == 0, e.pair


def test_chi_of_the_low_twists_is_the_serre_count():
    low = [e for e in catalog() if e.c1 <= 0]
    assert sorted(e.pair for e in low) == [(-2, 1), (-1, 2), (0, 3), (0, 4), (0, 5)]
    for e in low:
        for n in range(-e.c1 + 1):
            chi = chi_hrr(twist(e.descriptor(), n, QUINTIC), QUINTIC)
            assert chi == _serre_chi(e.c1, n), (e.pair, n)
    assert chi_hrr(lookup(-2, 1).descriptor(), QUINTIC) == -14 == 1 - 15


def test_the_serre_count_forces_c2_for_negative_c1():
    for c1, c2 in ((-2, 1), (-1, 2)):
        fits = [
            k for k in range(0, 60)
            if all(chi_hrr(twist(BundleDescriptor(2, c1, k), n, QUINTIC), QUINTIC) == _serre_chi(c1, n)
                   for n in range(-c1 + 1))
        ]
        assert fits == [c2]


def test_the_serre_curve_gives_every_section_count():
    # Wherever the oracle gives a count it is the Serre-curve count; it leaves exactly
    # the five low twists of the c1 < 0 entries undetermined.
    undetermined = {}
    for e in catalog():
        for n in range(-3, 40):
            h0 = h0_acm_twist(e, n)
            if h0 is None:
                undetermined[e.pair, n] = oracles.h0_serre(e.c1, e.c2, n)
            else:
                assert h0 == oracles.h0_serre(e.c1, e.c2, n), (e.pair, n)
    assert undetermined == {((-2, 1), 0): 1, ((-2, 1), 1): 5, ((-2, 1), 2): 15, ((-1, 2), 0): 1, ((-1, 2), 1): 5}

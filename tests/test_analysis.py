import copy
import importlib
import inspect
import re
from fractions import Fraction
from pathlib import Path

import pytest

from acmbundles import (
    BundleDescriptor,
    ChowClass,
    Hypersurface,
    analyze_case,
    analyze_extension,
    build_case,
    catalog,
    chi_hrr,
    direct_sum,
    dual,
    extension_cases,
    h0_acm_twist,
    lookup,
    tensor,
    twist,
)
from acmbundles.analysis import (
    CONCLUSION_INCONCLUSIVE,
    CONCLUSION_INDECOMPOSABLE,
    FILTER_CHERN_MISMATCH,
    FILTER_H0_MISMATCH,
    FILTER_TRIVIAL_SPLIT,
    FILTER_UNDECIDED,
    QUINTIC,
    _catalog_pairs,
)
from acmbundles.catalog import _TABLE_ROWS, CASE_INDICES


def test_table_rows():
    cases = extension_cases()
    assert [c.index for c in cases] == list(range(1, 8))
    assert [(c.F.pair, c.E.pair) for c in cases] == [
        ((4, 30), (1, 8)),
        ((4, 30), (0, 3)),
        ((4, 30), (0, 4)),
        ((4, 30), (0, 5)),
        ((1, 8), (0, 3)),
        ((1, 8), (0, 4)),
        ((1, 8), (0, 5)),
    ]
    assert all(c.F is lookup(*c.F.pair) and c.E is lookup(*c.E.pair) for c in cases)
    assert [c.m for c in cases] == [0, -1, -1, -1, 0, 0, 0]
    assert [c.chi_tensor for c in cases] == [-14, -6, -8, -10, -1, -2, -3]
    assert [c.d_lower for c in cases] == [14, 6, 8, 10, 1, 2, 3]
    assert all(c.chi_tensor < 0 for c in cases)


def test_extension_chern_classes():
    assert [c.g_chern for c in extension_cases()] == [
        (5, 58, 62),
        (2, 18, 6),
        (2, 19, 8),
        (2, 20, 10),
        (1, 11, 3),
        (1, 12, 4),
        (1, 13, 5),
    ]


def test_extension_bundle_is_normalized_acm():
    # G = F(m) + E is a sum of twisted catalog (ACM) bundles; h0(G(-n)) = h0(F(m-n)) + h0(E(-n))
    # is nonzero at n = 0 and zero at n = 1, so b(G) = 0.
    for c in extension_cases():
        assert c.G == direct_sum(twist(c.F.descriptor(), c.m, QUINTIC), c.E.descriptor(), QUINTIC)
        assert c.G.rank == 4
        assert h0_acm_twist(c.F, c.m) + h0_acm_twist(c.E, 0) >= 1
        assert h0_acm_twist(c.F, c.m - 1) + h0_acm_twist(c.E, -1) == 0


def test_vanishing_conditions():
    # The rank-1 premise and the Ext^1 bound on every sweep triple: the report's
    # ``rank1_hypothesis_ok`` is c1(F) + m > 0, and the bound ``d_lower`` is
    # max(0, -chi) whatever the premise says.
    for F, E, m in _sweep():
        case = build_case(F, E, m)
        key = (F.pair, E.pair, m)
        assert analyze_extension(F, E, m).rank1_hypothesis_ok == (F.c1 + m > 0), key
        assert case.d_lower == max(0, -case.chi_tensor), key


def test_ext1_lower_bounds():
    cases = extension_cases()
    assert [c.d_lower for c in cases] == [14, 6, 8, 10, 1, 2, 3]
    assert all(c.d_lower >= 1 and c.F.c1 + c.m > 0 for c in cases)


def test_ext1_bound_degenerates_when_chi_is_nonnegative():
    case = build_case(lookup(1, 4), lookup(0, 3), 0)
    assert case.chi_tensor == 3
    assert case.d_lower == 0


def test_the_guarded_ext1_bound_api_is_gone():
    # The Ext^1 bound is ``case.d_lower``, read under the report's ``rank1_hypothesis_ok``.
    import acmbundles

    with pytest.raises(AttributeError):
        acmbundles.ext1_lower_bound
    with pytest.raises(ImportError):
        from acmbundles.analysis import BoundNotJustifiedError  # noqa: F401


def _survivors(report, kind):
    return {v.pair_key for v in report.verdicts if v.filter == kind}


EXPECTED_TRIVIAL = {
    1: {((1, 8), (4, 30))},
    2: set(),
    3: set(),
    4: set(),
    5: {((0, 3), (1, 8))},
    6: {((0, 4), (1, 8))},
    7: {((0, 5), (1, 8))},
}

EXPECTED_H0 = {
    1: set(),
    2: {((0, 4), (2, 14)), ((0, 5), (2, 13))},
    3: {((0, 5), (2, 14)), ((1, 6), (1, 8))},
    4: set(),
    5: {((0, 5), (1, 6))},
    6: set(),
    7: set(),
}


@pytest.mark.parametrize("index", range(1, 8))
def test_case_verdicts(index):
    report = analyze_case(index)
    assert report.rank1_hypothesis_ok
    assert report.conclusion == CONCLUSION_INDECOMPOSABLE
    assert _survivors(report, FILTER_TRIVIAL_SPLIT) == EXPECTED_TRIVIAL[index]
    assert _survivors(report, FILTER_H0_MISMATCH) == EXPECTED_H0[index]
    assert _survivors(report, FILTER_UNDECIDED) == set()
    assert len(report.verdicts) == len(EXPECTED_TRIVIAL[index]) + len(EXPECTED_H0[index])


def test_case_one_chern_rejections():
    report = analyze_case(1)
    disjoint = {v.pair_key for v in report.rejected if v.details["c1_disjoint"]}
    assert disjoint == {
        ((2, 11), (3, 20)),
        ((2, 12), (3, 20)),
        ((2, 13), (3, 20)),
        ((2, 14), (3, 20)),
    }
    overlapping = {v.pair_key for v in report.rejected if not v.details["c1_disjoint"]}
    assert overlapping == {((1, 4), (4, 30)), ((1, 6), (4, 30))}
    for v in report.rejected:
        assert v.filter == FILTER_CHERN_MISMATCH
        assert v.details["c2_sum"] != v.details["c2_target"]


def test_case_four_has_no_whitney_survivors():
    report = analyze_case(4)
    assert report.verdicts == ()
    assert report.conclusion == CONCLUSION_INDECOMPOSABLE


def test_case_two_h0_numbers_match_the_exclusion_argument():
    report = analyze_case(2)
    by_pair = {v.pair_key: v.details for v in report.verdicts}
    d = by_pair[((0, 4), (2, 14))]
    assert (d["h0_lhs"], d["h0_rhs"]) == (1, 2)
    d = by_pair[((0, 5), (2, 13))]
    assert (d["h0_lhs"], d["h0_rhs"]) == (1, 3)


def test_h0_exclusions_are_convention_independent():
    # Recompute each section-count comparison with c1 = 0 entries counted as
    # h0 = 0 instead of 1; every recorded mismatch must survive the change.
    for index in range(1, 8):
        report = analyze_case(index)
        for v in report.verdicts:
            if v.filter != FILTER_H0_MISMATCH:
                continue
            lhs = v.details["h0_F_m"] + (0 if report.case.E.c1 == 0 else v.details["h0_E"])
            rhs = sum(
                0 if entry.c1 == 0 else h0
                for entry, h0 in zip(v.pair, v.details["h0_pair"])
            )
            assert lhs != rhs, (index, v.pair_key)


def test_notes_flag_the_h0_convention_where_it_is_used():
    noted = {i for i in range(1, 8) if analyze_case(i).notes}
    assert noted == {2, 3, 5}
    # Over the sweep: noted exactly when an h0 comparison read the count of
    # a c1 = 0 entry at twist 0 (E, F when m = 0, or either entry of the pair).
    for F, E, m in _sweep():
        report = analyze_extension(F, E, m)
        compared = [v for v in report.verdicts if v.filter != FILTER_TRIVIAL_SPLIT]
        read = [E, F] if m == 0 else [E]
        uses = bool(compared) and any(
            entry.c1 == 0 for entry in read + [p for v in compared for p in v.pair]
        )
        assert bool(report.notes) == uses, (F.pair, E.pair, m)


def _sweep():
    # Every (F, E, m) triple of catalog bundles with m in [-3, 0]: 784 triples.
    return [(F, E, m) for F in catalog() for E in catalog() for m in range(-3, 1)]


def _table_row_selector(report, *, certified=True):
    # The README's "table rows as a search result" selector, clause by clause.
    case = report.case
    F, E, m = case.F, case.E, case.m
    hom_vanishes_by_slopes = F.semistable and E.semistable and F.c1 + 2 * m > E.c1  # mu(F(m)) > mu(E)
    return (
        (not certified or report.conclusion == CONCLUSION_INDECOMPOSABLE)
        and hom_vanishes_by_slopes
        and case.d_lower >= 1
        and F.family == E.family == "A"
    )


def _readme_extra_rows():
    # The triples F/E/m the README lists as selected but not in the table.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### The table rows as a search result\n", 1)[1].split("\n#", 1)[0]
    triple = r"`\((-?\d+),(-?\d+)\)/\((-?\d+),(-?\d+)\)/(-?\d+)`"
    return {((a, b), (c, d), m) for a, b, c, d, m in (map(int, t) for t in re.findall(triple, section))}


def test_the_selector_finds_the_table_rows_and_the_readme_accounts_for_the_rest():
    reports = [analyze_extension(F, E, m) for F, E, m in _sweep()]

    def picked(**clauses):
        return {(r.case.F.pair, r.case.E.pair, r.case.m) for r in reports if _table_row_selector(r, **clauses)}

    selected = picked()
    assert set(_TABLE_ROWS) <= selected
    assert selected - set(_TABLE_ROWS) == _readme_extra_rows()
    assert len(selected) == 13
    assert picked(certified=False) == selected  # on the sweep, the other clauses imply the certificate


def test_chi_consistency_of_survivors():
    # For a pair matching (c1, c2), chi differs from chi(G) by exactly half
    # the c3 discrepancy; for a full Chern match the two agree.  Every other
    # survivor reached the h0 stage, whose counts must be the oracle's.
    for F, E, m in _sweep():
        report = analyze_extension(F, E, m)
        for v in report.verdicts:
            d = v.details
            assert d["chi_sum"] - d["chi_target"] == (d["c3_sum"] - d["c3_target"]) / 2
            if v.filter == FILTER_TRIVIAL_SPLIT:
                assert d["c3_sum"] == d["c3_target"]
                assert d["chi_sum"] == d["chi_target"]
                assert "h0_pair" not in d
                continue
            key = (F.pair, E.pair, m, v.pair_key)
            assert d["h0_F_m"] == h0_acm_twist(F, m), key
            assert d["h0_E"] == h0_acm_twist(E, 0), key
            assert d["h0_pair"] == [h0_acm_twist(member, 0) for member in v.pair], key


def test_chi_tensor_is_the_euler_pairing_on_every_sweep_triple():
    # chi(E, F(m)) = chi(E* tensor F(m)), in either order; the tensor route is the reference.
    for F, E, m in _sweep():
        case = build_case(F, E, m)
        Fm = twist(F.descriptor(), m, QUINTIC)
        reference = chi_hrr(tensor(dual(E.descriptor()), Fm, QUINTIC), QUINTIC)
        assert chi_hrr(tensor(Fm, dual(E.descriptor()), QUINTIC), QUINTIC) == case.chi_tensor == reference, (
            F.pair, E.pair, m
        )


def test_chi_target_matches_hrr_of_g():
    for c in extension_cases():
        Fm = twist(c.F.descriptor(), c.m, QUINTIC)
        assert chi_hrr(c.G, QUINTIC) == chi_hrr(Fm, QUINTIC) + chi_hrr(c.E.descriptor(), QUINTIC)


def test_verdict_pairs_are_canonical_and_unique():
    reports = [analyze_case(index) for index in range(1, 8)]
    reports += [analyze_extension(F, E, m) for F, E, m in _sweep()]
    for report in reports:
        for verdicts in (report.verdicts, report.rejected):
            keys = [v.pair_key for v in verdicts]
            assert keys == sorted(keys)
        seen = set()
        for v in report.verdicts + report.rejected:
            assert v.pair_key[0] <= v.pair_key[1]
            assert v.pair_key not in seen
            seen.add(v.pair_key)
            # Whitney: total Chern classes multiply in the ring, not through direct_sum.
            P, Q = (ChowClass(1, *member.descriptor().chern_tuple()) for member in v.pair)
            product = QUINTIC.mul(P, Q)
            assert v.sum_chern == (product.a1, product.a2, product.a3), v.pair_key


CASE_FREE_DETAILS = ["c2_sum", "c2_target", "c3_sum", "c3_target", "chi_sum", "chi_target"]
REJECTION_DETAILS = CASE_FREE_DETAILS + ["c1_disjoint"]
# A Whitney survivor carries no c1_disjoint: its keys by filter (and, if undecided, by reason).
_H0_DETAILS = CASE_FREE_DETAILS + ["h0_F_m", "h0_E", "h0_pair"]
SURVIVOR_DETAILS = {
    (FILTER_TRIVIAL_SPLIT, None): CASE_FREE_DETAILS,
    (FILTER_H0_MISMATCH, None): _H0_DETAILS + ["h0_lhs", "h0_rhs"],
    (FILTER_UNDECIDED, "h0 undetermined"): _H0_DETAILS + ["reason"],
    (FILTER_UNDECIDED, "all numeric filters agree"): _H0_DETAILS + ["h0_lhs", "h0_rhs", "reason"],
}


def test_every_survivor_has_the_details_keys_of_its_filter_in_order():
    seen = set()
    reports = [analyze_case(index) for index in CASE_INDICES]
    for report in reports + [analyze_extension(F, E, m) for F, E, m in _sweep()]:
        for v in report.verdicts:
            shape = (v.filter, v.details.get("reason"))
            assert list(v.details) == SURVIVOR_DETAILS[shape], (report.case.F.pair, report.case.E.pair, v.pair_key)
            seen.add(shape)
    assert seen == set(SURVIVOR_DETAILS)


def test_every_chern_rejection_has_details_of_its_own_with_the_pair_sums_and_the_case_targets():
    # The pair table builds each row's case-free details once; every report must get
    # copies, so that a caller that edits one report's details edits nothing else.
    table_before = copy.deepcopy(_catalog_pairs())
    pair_sums = {}
    handed_out = set()
    reports = []  # kept alive, so that the ids of their details stay distinct
    for F, E, m in _sweep():
        report = analyze_extension(F, E, m)
        reports.append(report)
        G = report.case.G
        chi_G = chi_hrr(G, QUINTIC)
        for v in report.rejected:
            if v.pair_key not in pair_sums:
                P, Q = (member.descriptor() for member in v.pair)
                S = direct_sum(P, Q, QUINTIC)
                pair_sums[v.pair_key] = S.c2, S.c3, chi_hrr(P, QUINTIC) + chi_hrr(Q, QUINTIC)
            c2_sum, c3_sum, chi_sum = pair_sums[v.pair_key]
            key = (F.pair, E.pair, m, v.pair_key)
            assert v.filter == FILTER_CHERN_MISMATCH and c2_sum != G.c2, key
            assert list(v.details) == REJECTION_DETAILS, key
            disjoint = not {member.c1 for member in v.pair} & {F.c1 + 2 * m, E.c1}
            assert v.details == {
                "c2_sum": c2_sum, "c2_target": G.c2, "c3_sum": c3_sum, "c3_target": G.c3,
                "chi_sum": chi_sum, "chi_target": chi_G, "c1_disjoint": disjoint,
            }, key
        for v in report.verdicts + report.rejected:
            assert id(v.details) not in handed_out, (F.pair, E.pair, m, v.pair_key)
            handed_out.add(id(v.details))
            # Every later report is checked after this one's details were edited.
            v.details.clear()
            v.details["edited"] = True
    assert sum(len(report.rejected) for report in reports) == 5949
    assert _catalog_pairs() == table_before


def test_a_trivial_split_occurs_only_at_m_zero():
    # No twist F(m), m < 0, of a catalog entry is a catalog pair, so _classify
    # builds the trivial key {F(m), E} at m = 0 only.
    pairs = {entry.pair for entry in catalog()}
    for F in catalog():
        for m in range(-3, 0):
            Fm = twist(F.descriptor(), m, QUINTIC)
            assert (Fm.c1, Fm.c2) not in pairs, (F.pair, m)
    # Below m = -3, c1(F(m)) = c1(F) + 2m falls under the least catalog c1.
    c1s = [entry.c1 for entry in catalog()]
    assert max(c1s) + 2 * -4 < min(c1s)
    for F in catalog():
        for m in range(-12, -3):
            assert twist(F.descriptor(), m, QUINTIC).c1 == F.c1 + 2 * m < min(c1s), (F.pair, m)
    trivial = [
        (F.pair, E.pair, m)
        for F, E, m in _sweep()
        for v in analyze_extension(F, E, m).verdicts
        if v.filter == FILTER_TRIVIAL_SPLIT
    ]
    assert len(trivial) == 196
    assert {m for *_, m in trivial} == {0}


def test_the_pair_table_holds_each_catalog_pair_once_by_c1_sum_in_key_order():
    # The catalog's pairs are distinct, so combinations of the sorted catalog
    # need no second sort; check that premise on all 105 unordered pairs.
    table = _catalog_pairs()
    keys = []
    for c1_sum, rows in table.items():
        group = [row[1] for row in rows]
        assert group == sorted(group), c1_sum
        for (P, Q), key, sum_chern, c1s, h0s, _ in rows:
            assert key == (P.pair, Q.pair) and P.pair <= Q.pair
            assert P.c1 + Q.c1 == c1_sum == sum_chern[0], key
            assert c1s == {P.c1, Q.c1} and h0s == (P.h0, Q.h0), key
        keys += group
    pairs = sorted(entry.pair for entry in catalog())
    expected = {(p, q) for i, p in enumerate(pairs) for q in pairs[i:]}
    assert len(keys) == len(set(keys)) == len(expected) == 105
    assert set(keys) == expected


def test_analyze_case_index_validation():
    for index in (-1, 0, 8):
        with pytest.raises(ValueError) as info:
            analyze_case(index)
        assert str(info.value) == f"case index must be in 1..7, got {index}"
    assert [analyze_case(index).case for index in CASE_INDICES] == list(extension_cases())


def test_build_case_rejects_positive_twists():
    with pytest.raises(ValueError):
        build_case(lookup(4, 30), lookup(1, 8), 1)


@pytest.mark.parametrize(
    "bad", [BundleDescriptor(2, 1, 4), BundleDescriptor(3, 1, 4, 0), (1, 4)], ids=repr
)
@pytest.mark.parametrize("call", [build_case, analyze_extension], ids=lambda f: f.__name__)
def test_an_f_or_e_that_is_not_a_catalog_entry_is_rejected(call, bad):
    # A descriptor has c1 and c2 but no catalog facts: a rank-3 one was read as rank 2.
    for F, E in ((bad, lookup(1, 8)), (lookup(1, 8), bad)):
        with pytest.raises(ValueError) as info:
            call(F, E, 0)
        assert str(info.value) == f"the extension analysis applies to the catalog bundles, not {bad}"


@pytest.mark.parametrize("m", [False, -1.0, Fraction(-1)], ids=repr)
@pytest.mark.parametrize("call", [build_case, analyze_extension], ids=lambda f: f.__name__)
def test_a_twist_that_is_not_an_int_is_rejected(call, m):
    with pytest.raises(ValueError, match="extension twist m must be an integer"):
        call(lookup(4, 30), lookup(1, 8), m)


@pytest.mark.parametrize("value", [True, False, 1.0, Fraction(1)], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda n: twist(lookup(4, 30).descriptor(), n, QUINTIC), "twist n"),
        # c1 = -2: the oracle answers without calling twist for these n.
        (lambda n: h0_acm_twist(lookup(-2, 1), n), "twist n"),
        (lambda c1: lookup(c1, 4), "c1"),
        (lambda c2: lookup(0, c2), "c2"),
        (analyze_case, "case index"),
    ],
    ids=["twist", "h0_acm_twist", "lookup-c1", "lookup-c2", "analyze_case"],
)
def test_an_integer_argument_that_is_not_an_int_is_rejected(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


def test_general_engine_reports_undetermined_h0_honestly():
    # F(-1) = (2,15) plus E = (-1,2) gives G = (1,7,-11); the surviving
    # candidate {(0,3),(1,4)} needs h0 of the c1 < 0 bundle E, which the
    # numerics cannot determine.
    report = analyze_extension(lookup(4, 30), lookup(-1, 2), -1)
    assert report.conclusion == CONCLUSION_INCONCLUSIVE
    assert [v.filter for v in report.verdicts] == [FILTER_UNDECIDED]
    assert report.verdicts[0].pair_key == ((0, 3), (1, 4))
    assert report.verdicts[0].details["reason"] == "h0 undetermined"


def test_general_engine_requires_rank1_hypothesis_for_a_conclusion():
    report = analyze_extension(lookup(0, 3), lookup(0, 3), 0)
    assert not report.rank1_hypothesis_ok
    assert report.conclusion == CONCLUSION_INCONCLUSIVE
    assert [v.filter for v in report.verdicts] == [FILTER_TRIVIAL_SPLIT]


@pytest.mark.parametrize(
    "call",
    [
        lambda X: extension_cases(X),
        lambda X: analyze_case(1, X),
        lambda X: analyze_extension(lookup(4, 30), lookup(1, 8), 0, X),
        lambda X: build_case(lookup(4, 30), lookup(1, 8), 0, X),
    ],
    ids=["extension_cases", "analyze_case", "analyze_extension", "build_case"],
)
def test_a_positional_degree_is_a_type_error(call):
    # The analysis lives on the quintic; a degree has nowhere to bind.
    with pytest.raises(TypeError):
        call(Hypersurface(3))


def test_no_public_function_takes_a_degree():
    # Every public callable of the quintic-only layers works on QUINTIC.
    offenders = []
    # By import path: the package re-exports a function named ``catalog``.
    for module in map(importlib.import_module, ("acmbundles.analysis", "acmbundles.catalog")):
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            try:
                parameters = inspect.signature(obj).parameters.values()
            except ValueError:  # builtin exception constructors
                continue
            offenders += [
                f"{module.__name__}.{name}({p.name})"
                for p in parameters
                if p.name == "X" or "Hypersurface" in str(p.annotation)
            ]
    assert offenders == []


def test_filters_can_exhaust_on_a_synthetic_pool():
    # F = (0,3), E = (0,5), m = 0: the survivor {(0,4),(0,4)} matches every
    # numeric invariant, so it must come back undecided, not excluded.
    report = analyze_extension(lookup(0, 3), lookup(0, 5), 0)
    assert report.conclusion == CONCLUSION_INCONCLUSIVE
    undecided = [v for v in report.verdicts if v.filter == FILTER_UNDECIDED]
    assert [v.pair_key for v in undecided] == [((0, 4), (0, 4))]
    assert undecided[0].details["reason"] == "all numeric filters agree"
    assert undecided[0].details["h0_lhs"] == undecided[0].details["h0_rhs"] == 2


# The sweep triples (F, E, m) whose conclusion differs from that of the Serre-dual triple
# (E, F, m + c1(F) - c1(E)), which has the same chi: E* (x) F(m) and F* (x) E(m') are one bundle.
# The h0 filter compares h0(F(m)) + h0(E) with the pair's sum, and those counts are not symmetric.
DUAL_DISAGREEMENTS = {
    ((1, 4), (2, 11), 0), ((1, 4), (2, 12), 0), ((1, 6), (2, 11), 0), ((1, 6), (2, 12), 0),
    ((2, 11), (1, 4), -1), ((2, 11), (1, 6), -1), ((2, 11), (2, 12), -1), ((2, 11), (2, 13), -1),
    ((2, 12), (1, 4), -1), ((2, 12), (1, 6), -1), ((2, 12), (2, 11), -1), ((2, 12), (3, 20), -1),
    ((2, 13), (2, 11), -1), ((2, 13), (4, 30), -1), ((2, 14), (3, 20), -1),
    ((3, 20), (2, 12), -2), ((3, 20), (2, 14), -2), ((3, 20), (4, 30), -2),
    ((4, 30), (2, 13), -3), ((4, 30), (3, 20), -3),
}


def test_serre_dual_sweep_triples_agree_on_chi_and_on_all_but_the_known_conclusions():
    sweep = {(F.pair, E.pair, m): (F, E, m) for F in catalog() for E in catalog() for m in range(-3, 1)}
    paired, differ = 0, set()
    for key, (F, E, m) in sweep.items():
        dual_key = (E.pair, F.pair, m + F.c1 - E.c1)
        if dual_key not in sweep:
            continue
        paired += 1
        report, dual_report = analyze_extension(F, E, m), analyze_extension(*sweep[dual_key])
        assert report.case.chi_tensor == dual_report.case.chi_tensor, key
        if report.conclusion != dual_report.conclusion:
            differ.add(key)
    assert (len(sweep), paired) == (784, 458)
    assert differ - DUAL_DISAGREEMENTS == set(), "new disagreements"
    assert DUAL_DISAGREEMENTS - differ == set(), "stale known disagreements"

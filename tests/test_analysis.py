import importlib
import inspect
import random

import pytest

from acmbundles import (
    BoundNotJustifiedError,
    Hypersurface,
    analyze_case,
    analyze_extension,
    build_case,
    catalog,
    chi_hrr,
    dual,
    enumerate_split_candidates,
    euler_pairing,
    ext1_lower_bound,
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
)
from acmbundles.catalog import CatalogEntry


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
    for c in extension_cases():
        assert c.G.rank == 4
        assert c.G.b == 0
        assert c.G.acm


def test_vanishing_conditions():
    # The h3 premise on every sweep triple: the report's rank-1 hypothesis
    # and the Ext^1 bound both read ``h3_vanishes``, which is c1(F) + m > 0.
    for F, E, m in _sweep():
        case = build_case(F, E, m)
        key = (F.pair, E.pair, m)
        assert analyze_extension(F, E, m).rank1_hypothesis_ok == case.h3_vanishes, key
        assert case.h3_vanishes == (F.c1 + m > 0), key
        if case.h3_vanishes:
            assert ext1_lower_bound(case) == max(0, -case.chi_tensor), key
        else:
            with pytest.raises(BoundNotJustifiedError):
                ext1_lower_bound(case)


def test_ext1_lower_bounds():
    cases = extension_cases()
    assert [ext1_lower_bound(c) for c in cases] == [14, 6, 8, 10, 1, 2, 3]
    assert all(ext1_lower_bound(c) >= 1 for c in cases)


def test_ext1_bound_needs_h3_vanishing():
    degenerate = build_case(lookup(1, 4), lookup(0, 3), -1)
    with pytest.raises(BoundNotJustifiedError):
        ext1_lower_bound(degenerate)


def test_ext1_bound_degenerates_when_chi_is_nonnegative():
    case = build_case(lookup(1, 4), lookup(0, 3), 0)
    assert case.chi_tensor == 3
    assert ext1_lower_bound(case) == 0


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
    # chi(E, F(m)) = chi(F(m) tensor E*); the tensor route is the reference.
    for F, E, m in _sweep():
        case = build_case(F, E, m)
        Fm = twist(F.descriptor(), m, QUINTIC)
        assert case.F_twisted == Fm
        reference = chi_hrr(tensor(Fm, dual(E.descriptor()), QUINTIC), QUINTIC)
        assert euler_pairing(E.descriptor(), Fm, QUINTIC) == case.chi_tensor == reference, (
            F.pair, E.pair, m
        )


def test_chi_target_matches_hrr_of_g():
    for c in extension_cases():
        assert chi_hrr(c.G, QUINTIC) == chi_hrr(c.F_twisted, QUINTIC) + chi_hrr(
            c.E.descriptor(), QUINTIC
        )


def test_verdicts_do_not_depend_on_enumeration_order():
    entries = list(catalog())
    for seed, (F, E, m) in enumerate(_sweep()):
        case = build_case(F, E, m)
        baseline = enumerate_split_candidates(case, include_rejected=True)
        random.Random(seed).shuffle(entries)
        shuffled = enumerate_split_candidates(
            case, include_rejected=True, entries=tuple(entries)
        )
        assert shuffled == baseline, (F.pair, E.pair, m)


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
            product = QUINTIC.mul(*(member.descriptor().total_chern() for member in v.pair))
            assert v.sum_chern == (product.a1, product.a2, product.a3), v.pair_key


def test_an_empty_pool_has_no_candidates():
    case = extension_cases()[0]
    assert enumerate_split_candidates(case, include_rejected=True, entries=()) == []


def test_a_pool_that_repeats_a_pair_keeps_pair_key_order():
    # With (0,3) twice in the pool, combinations of the sorted pool yield
    # {(0,3),(0,4)}, {(0,3),(0,5)} before {(0,3)',(0,4)}: the pairs need a sort.
    case = build_case(lookup(0, 3), lookup(0, 3), 0)
    verdicts = enumerate_split_candidates(
        case, include_rejected=True, entries=catalog() + (lookup(0, 3),)
    )
    for rejected in (False, True):
        keys = [v.pair_key for v in verdicts if (v.filter == FILTER_CHERN_MISMATCH) == rejected]
        assert keys == sorted(keys)
    assert len(verdicts) == len(enumerate_split_candidates(case, include_rejected=True)) + 4


def test_analyze_case_index_validation():
    with pytest.raises(ValueError):
        analyze_case(0)
    with pytest.raises(ValueError):
        analyze_case(8)


def test_build_case_rejects_positive_twists():
    with pytest.raises(ValueError):
        build_case(lookup(4, 30), lookup(1, 8), 1)


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
    # Only the guard itself may take a hypersurface; every other public
    # callable of the quintic-only layers works on QUINTIC.
    offenders = []
    # By import path: the package re-exports a function named ``catalog``.
    for module in map(importlib.import_module, ("acmbundles.analysis", "acmbundles.catalog")):
        for name in module.__all__:
            obj = getattr(module, name)
            if name == "require_quintic" or not callable(obj):
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
    # A synthetic pool pair matching every numeric invariant of case (1)
    # must come back undecided rather than spuriously excluded.
    fake = (
        CatalogEntry(2, 6, "B", "conditional", 9, 9, True),
        CatalogEntry(3, 22, "B", "conditional", 2, 2, True),
    )
    case = extension_cases()[0]
    verdicts = enumerate_split_candidates(case, entries=fake)
    assert [v.filter for v in verdicts] == [FILTER_UNDECIDED]
    assert verdicts[0].details["reason"] == "all numeric filters agree"
    assert verdicts[0].details["h0_lhs"] == verdicts[0].details["h0_rhs"] == 11

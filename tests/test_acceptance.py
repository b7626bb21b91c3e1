"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every check is exact (zero tolerance).
"""

import random

from acmbundles import (
    BundleDescriptor,
    ChowClass,
    Hypersurface,
    analyze_case,
    chi_hrr,
    chi_rank2,
    direct_sum,
    dual,
    extension_cases,
    from_ch,
    integrate,
    tensor,
    to_ch,
    twist,
)
from acmbundles.analysis import (
    CONCLUSION_INDECOMPOSABLE,
    FILTER_H0_MISMATCH,
    FILTER_TRIVIAL_SPLIT,
    FILTER_UNDECIDED,
)

import oracles

X5 = Hypersurface(5)
SEED = 20260810
TRIALS = 1000


def _criterion(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_table_reproduction():
    failures = []
    cases = extension_cases()
    chis = [c.chi_tensor for c in cases]
    ms = [c.m for c in cases]
    if chis != [-14, -6, -8, -10, -1, -2, -3]:
        failures.append(("chi", chis))
    if ms != [0, -1, -1, -1, 0, 0, 0]:
        failures.append(("m", ms))
    _criterion(1, "seven-row extension table (chi via Riemann-Roch, twist column)", failures)


def test_criterion_2_extension_chern_classes():
    failures = []
    expected = [(5, 58), (2, 18), (2, 19), (2, 20), (1, 11), (1, 12), (1, 13)]
    got = [(c.G.c1, c.G.c2) for c in extension_cases()]
    if got != expected:
        failures.append(got)
    _criterion(2, "extension bundle (c1, c2) for cases (1)-(7)", failures)


def test_criterion_3_closed_form_matches_riemann_roch():
    failures = []
    for c1 in range(-20, 21):
        for c2 in range(0, 201):
            chi = chi_hrr(BundleDescriptor(2, c1, c2), X5)
            if oracles.chi_rank2(c1, c2) != chi or chi_rank2(c1, c2) != chi:
                failures.append((c1, c2))
    _criterion(3, "chi closed form == Riemann-Roch for |c1| <= 20, 0 <= c2 <= 200", failures)


def _binom4(m: int) -> int:
    return m * (m - 1) * (m - 2) * (m - 3) // 24


def test_criterion_4_line_bundle_oracle():
    failures = []
    for r in range(1, 7):
        X = Hypersurface(r)
        for n in range(-10, 11):
            expected = _binom4(n + 4) - _binom4(n + 4 - r)
            if chi_hrr(BundleDescriptor(1, n), X) != expected:
                failures.append((r, n))
    if chi_hrr(BundleDescriptor(1, 0), X5) != 0:
        failures.append("chi(O) != 0")
    if chi_hrr(BundleDescriptor(1, 1), X5) != 5:
        failures.append("chi(O(1)) != 5")
    _criterion(4, "chi(O(n)) matches the ideal-sheaf binomial oracle", failures)


def test_criterion_5_euler_characteristic_cross_checks():
    failures = []
    if integrate(X5.tangent_chern()) != -200:
        failures.append(("c3 integral", integrate(X5.tangent_chern())))
    for r in (1, 2, 3, 4):
        if integrate(Hypersurface(r).todd()) != 1:
            failures.append(("todd", r))
    if integrate(X5.todd()) != 0:
        failures.append(("todd", 5))
    _criterion(5, "integrate(c3(T)) = -200 and integrate(todd) = 1,1,1,1,0", failures)


def test_criterion_6_case_analysis_verdicts():
    failures = []
    expected_trivial = {
        1: {((1, 8), (4, 30))},
        2: set(),
        3: set(),
        4: set(),
        5: {((0, 3), (1, 8))},
        6: {((0, 4), (1, 8))},
        7: {((0, 5), (1, 8))},
    }
    expected_h0 = {
        1: set(),
        2: {((0, 4), (2, 14)), ((0, 5), (2, 13))},
        3: {((0, 5), (2, 14)), ((1, 6), (1, 8))},
        4: set(),
        5: {((0, 5), (1, 6))},
        6: set(),
        7: set(),
    }
    for index in range(1, 8):
        report = analyze_case(index)
        if report.conclusion != CONCLUSION_INDECOMPOSABLE:
            failures.append((index, report.conclusion))
        trivial = {v.pair_key for v in report.verdicts if v.filter == FILTER_TRIVIAL_SPLIT}
        h0 = {v.pair_key for v in report.verdicts if v.filter == FILTER_H0_MISMATCH}
        undecided = [v for v in report.verdicts if v.filter == FILTER_UNDECIDED]
        if trivial != expected_trivial[index]:
            failures.append((index, "trivial", trivial))
        if h0 != expected_h0[index]:
            failures.append((index, "h0", h0))
        if undecided:
            failures.append((index, "undecided", undecided))
        if len(report.verdicts) != len(expected_trivial[index]) + len(expected_h0[index]):
            failures.append((index, "extra survivors", report.verdicts))
    # case (1): the four informative Chern exclusions, exactly
    chern_excluded = {
        v.pair_key for v in analyze_case(1).rejected if v.details["c1_disjoint"]
    }
    if chern_excluded != {
        ((2, 11), (3, 20)),
        ((2, 12), (3, 20)),
        ((2, 13), (3, 20)),
        ((2, 14), (3, 20)),
    }:
        failures.append((1, "chern-mismatch", chern_excluded))
    # case (4): no candidate survives the Whitney comparison at all
    if analyze_case(4).verdicts != ():
        failures.append((4, "survivors", analyze_case(4).verdicts))
    _criterion(6, "splitting-exclusion verdict inventories for cases (1)-(7)", failures)


def test_criterion_7_ext_bounds():
    failures = []
    cases = extension_cases()
    bounds = [c.d_lower for c in cases]
    if bounds != [14, 6, 8, 10, 1, 2, 3]:
        failures.append(bounds)
    if not all(b >= 1 for b in bounds):
        failures.append("empty extension space")
    if not all(c.h3_vanishes for c in cases):
        failures.append("h3 premise")
    _criterion(7, "Ext^1 lower bounds (14, 6, 8, 10, 1, 2, 3), all >= 1", failures)


def _random_descriptor(rng: random.Random) -> BundleDescriptor:
    rank = rng.randint(1, 4)
    c1 = rng.randint(-10, 10)
    c2 = rng.randint(-100, 100) if rank >= 2 else 0
    c3 = rng.randint(-100, 100) if rank >= 3 else 0
    return BundleDescriptor(rank, c1, c2, c3)


def test_criterion_8_property_suites():
    failures = []
    rng = random.Random(SEED)
    for trial in range(TRIALS):
        X = Hypersurface(rng.randint(1, 6))
        E = _random_descriptor(rng)
        F = _random_descriptor(rng)
        n, m = rng.randint(-5, 5), rng.randint(-5, 5)

        s = direct_sum(E, F, X)
        whitney = X.mul(ChowClass(1, *E.chern_tuple()), ChowClass(1, *F.chern_tuple()))
        if (s.c1, s.c2, s.c3) != (whitney.a1, whitney.a2, whitney.a3):
            failures.append(("whitney", trial))
        if chi_hrr(s, X) != chi_hrr(E, X) + chi_hrr(F, X):
            failures.append(("chi additivity", trial))
        product = tensor(E, F, X)
        if to_ch(product, X) != X.mul(to_ch(E, X), to_ch(F, X)):
            failures.append(("ch multiplicativity", trial))
        if dual(dual(E)) != E:
            failures.append(("dual involution", trial))
        if twist(twist(E, n, X), m, X) != twist(E, n + m, X):
            failures.append(("twist composition", trial))
        if chi_hrr(twist(dual(E), X.r - 5, X), X) != -chi_hrr(E, X):
            failures.append(("serre duality", trial))
        if from_ch(to_ch(E, X), X) != E:
            failures.append(("ch round trip", trial))
    _criterion(
        8,
        f"seven algebraic property suites over {TRIALS} seeded random descriptors",
        failures,
    )

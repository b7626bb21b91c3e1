from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acmbundles import bundles, chowring
from acmbundles import (
    QUINTIC,
    BundleDescriptor,
    ChowClass,
    Hypersurface,
    NotBundleClassError,
    catalog,
    chi_hrr,
    chi_rank2,
    direct_sum,
    dual,
    euler_pairing,
    from_ch,
    tensor,
    to_ch,
    twist,
)

import oracles
from strategies import chow_classes, descriptors, hypersurfaces

X5 = Hypersurface(5)

O = BundleDescriptor(1, 0)


def rk2(c1, c2):
    return BundleDescriptor(2, c1, c2)


def line(n):
    return BundleDescriptor(1, n)


def test_descriptor_invariants():
    with pytest.raises(ValueError):
        BundleDescriptor(0, 1)
    with pytest.raises(ValueError):
        BundleDescriptor(1, 1, 2)
    with pytest.raises(ValueError):
        BundleDescriptor(2, 1, 8, 7)
    BundleDescriptor(3, 1, 8, 7)  # c3 is free from rank 3 on


def test_to_ch_values():
    assert to_ch(rk2(0, 0), X5) == ChowClass(2, 0, 0, 0)
    assert to_ch(rk2(4, 30), X5) == ChowClass(2, 4, 10, Fraction(-20, 3))
    assert to_ch(rk2(1, 8), X5) == ChowClass(2, 1, Fraction(-11, 2), Fraction(-19, 6))


def test_from_ch_round_trip():
    assert from_ch(ChowClass(2, 0, 0, 0), X5) == rk2(0, 0)
    assert from_ch(to_ch(rk2(4, 30), X5), X5) == rk2(4, 30)


def test_tensor_character_is_integral():
    product = tensor(rk2(4, 30), dual(rk2(1, 8)), X5)
    assert product == BundleDescriptor(4, 6, 101, 168)


def test_from_ch_rejects_synthetic_characters():
    with pytest.raises(NotBundleClassError):
        from_ch(ChowClass(1, 0, Fraction(1, 3), 0), X5)
    with pytest.raises(NotBundleClassError):
        from_ch(ChowClass(Fraction(3, 2), 0, 0, 0), X5)
    with pytest.raises(NotBundleClassError):
        from_ch(ChowClass(-1, 0, 0, 0), X5)
    with pytest.raises(NotBundleClassError):
        # Integral, but a rank-1 class cannot carry c2 != 0.
        from_ch(ChowClass(1, 0, -3, 0), X5)


def test_dual_rank2_rule():
    assert dual(rk2(1, 8)) == rk2(-1, 8)
    assert dual(rk2(0, 3)) == rk2(0, 3)
    assert dual(rk2(4, 30)) == rk2(-4, 30)
    assert dual(line(3)) == line(-3)


@given(descriptors())
def test_dual_is_an_involution(E):
    assert dual(dual(E)) == E


def test_twist_values():
    F = rk2(4, 30)
    assert twist(F, -1, X5) == rk2(2, 15)
    assert twist(F, 0, X5) == F
    assert twist(rk2(1, 8), 1, X5) == rk2(3, 18)


@given(descriptors(), st.integers(-5, 5), st.integers(-5, 5), hypersurfaces())
def test_twist_composes(E, n, m, X):
    assert twist(twist(E, n, X), m, X) == twist(E, n + m, X)


@given(descriptors(), st.integers(-5, 5), hypersurfaces())
def test_dual_of_twist(E, n, X):
    assert dual(twist(E, n, X)) == twist(dual(E), -n, X)


def test_tensor_with_structure_sheaf_is_identity():
    E = rk2(1, 8)
    assert tensor(E, O, X5) == E
    assert tensor(O, E, X5) == E
    # Tensoring with any O(n) is the twist by n: degrees 1..8, n in [-3, 3], ranks 1-3 in a box.
    box = range(-2, 3)
    grid = [BundleDescriptor(1, c1) for c1 in box]
    grid += [BundleDescriptor(2, c1, c2) for c1 in box for c2 in box]
    grid += [BundleDescriptor(3, c1, c2, c3) for c1 in box for c2 in box for c3 in box]
    for r in range(1, 9):
        X = Hypersurface(r)
        for n in range(-3, 4):
            L = BundleDescriptor(1, n)
            for E in grid:
                assert tensor(E, L, X) == tensor(L, E, X) == twist(E, n, X), (r, n, E)


@given(descriptors(), descriptors(), hypersurfaces())
def test_tensor_commutes(E, F, X):
    assert tensor(E, F, X) == tensor(F, E, X)


# Ranks 1-3 with c1 in [-2, 2], c2 in [-1, 2] and c3 in [-1, 1], where the rank allows them: 85.
TENSOR_BOX = [
    BundleDescriptor(rank, c1, c2, c3)
    for rank in range(1, 4)
    for c1 in range(-2, 3)
    for c2 in (range(-1, 3) if rank >= 2 else (0,))
    for c3 in (range(-1, 2) if rank >= 3 else (0,))
]


def test_tensor_is_the_product_of_characters_on_every_pair_of_a_box():
    # The closed form against the per-coefficient Fraction product read back by from_ch,
    # on all 36,125 (E, F, r); that route raises where an integer would not come out.
    assert len(TENSOR_BOX) == 85
    for r in range(1, 6):
        X = Hypersurface(r)
        for E, F in product(TENSOR_BOX, repeat=2):
            assert tensor(E, F, X) == oracles.tensor(r, E, F), (r, E, F)


def test_tensor_builds_no_chern_character(monkeypatch):
    # No class is stored, multiplied or read back: the closed form is integer arithmetic only.
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(Hypersurface, "mul", counting("mul", Hypersurface.mul))
    for module, name in ((bundles, "to_ch"), (bundles, "from_ch"), (chowring, "_store")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    box = TENSOR_BOX[::4]
    for r in (1, 5, 8):
        for E, F in product(box, repeat=2):
            tensor(E, F, Hypersurface(r))
    bundles.to_ch(O, X5)  # the counters do count
    assert dict(calls) == {"to_ch": 1, "_store": 1}


def test_extension_tensor_euler_characteristics():
    case1 = tensor(rk2(4, 30), dual(rk2(1, 8)), X5)
    assert case1.rank == 4
    assert chi_hrr(case1, X5) == -14
    case7 = tensor(rk2(1, 8), dual(rk2(0, 5)), X5)
    assert case7.rank == 4
    assert chi_hrr(case7, X5) == -3


def test_case_two_tensor_through_the_full_pipeline():
    g = tensor(twist(rk2(4, 30), -1, X5), dual(rk2(0, 3)), X5)
    assert chi_hrr(g, X5) == -6


def test_direct_sum_whitney_values():
    s = direct_sum(rk2(4, 30), rk2(1, 8), X5)
    assert s == BundleDescriptor(4, 5, 58, 62)
    s2 = direct_sum(rk2(2, 15), rk2(0, 3), X5)
    assert (s2.c1, s2.c2, s2.c3) == (2, 18, 6)
    trivial = direct_sum(O, O, X5)
    assert (trivial.rank, trivial.c1, trivial.c2, trivial.c3) == (2, 0, 0, 0)


@given(descriptors(), descriptors(), hypersurfaces())
def test_direct_sum_matches_chow_product_of_total_chern_classes(E, F, X):
    s = direct_sum(E, F, X)
    w = X.mul(ChowClass(1, *E.chern_tuple()), ChowClass(1, *F.chern_tuple()))
    assert (s.c1, s.c2, s.c3) == (w.a1, w.a2, w.a3)


@given(descriptors(), descriptors(), hypersurfaces())
def test_chi_is_additive_on_sums(E, F, X):
    assert chi_hrr(direct_sum(E, F, X), X) == chi_hrr(E, X) + chi_hrr(F, X)


@given(descriptors(), descriptors(), hypersurfaces())
def test_ch_is_multiplicative_on_tensors(E, F, X):
    lhs = to_ch(tensor(E, F, X), X)
    rhs = X.mul(to_ch(E, X), to_ch(F, X))
    assert lhs == rhs


@given(descriptors(), hypersurfaces())
def test_ch_round_trip(E, X):
    assert from_ch(to_ch(E, X), X) == E


@given(descriptors(), hypersurfaces())
def test_serre_duality_for_chi(E, X):
    assert chi_hrr(twist(dual(E), X.r - 5, X), X) == -chi_hrr(E, X)


@given(descriptors(), descriptors(), hypersurfaces(8))
def test_euler_pairing_serre_duality(E, F, X):
    # Ext^i(E, F) is dual to Ext^(3-i)(F, E tensor K_X), and K_X = O_X(r - 5).
    assert euler_pairing(E, F, X) == -euler_pairing(F, twist(E, X.r - 5, X), X)


@given(descriptors(), descriptors(), hypersurfaces(8))
def test_euler_pairing_is_chi_of_the_tensor_with_the_dual(E, F, X):
    # The route the pairing replaces: chi(E, F) = chi(F tensor E*).
    assert euler_pairing(E, F, X) == chi_hrr(tensor(F, dual(E), X), X)


@given(descriptors(), hypersurfaces(8))
def test_chi_is_the_euler_pairing_with_the_structure_sheaf(F, X):
    assert euler_pairing(O, F, X) == chi_hrr(F, X)
    assert euler_pairing(F, O, X) == chi_hrr(dual(F), X)


# Every descriptor of rank 1 to 4 with Chern classes in [-3, 3]: 742 of them.
CHERN_BOX = [
    BundleDescriptor(rank, c1, c2, c3)
    for rank in range(1, 5)
    for c1 in range(-3, 4)
    for c2 in (range(-3, 4) if rank >= 2 else (0,))
    for c3 in (range(-3, 4) if rank >= 3 else (0,))
]


@pytest.mark.parametrize("r", range(1, 9))
def test_chi_is_the_integral_of_the_character_against_todd_on_a_chern_box(r):
    # chi_hrr writes the Newton numerators of to_ch again; this ties the two copies together.
    # On the quintic td_1 = 0, so the other degrees are the ones that read ch_2.
    X = Hypersurface(r)
    assert len(CHERN_BOX) == 742
    for E in CHERN_BOX:
        chi = chi_hrr(E, X)
        assert type(chi) is Fraction and chi == X.mul(to_ch(E, X), X.todd()).a3, E


@pytest.mark.parametrize("r", range(1, 9))
def test_euler_pairing_is_chi_of_the_tensor_with_the_dual_on_a_chern_box(r):
    X = Hypersurface(r)
    box = [E for E in CHERN_BOX if max(map(abs, E.chern_tuple())) <= 1]
    assert len(box) == 66
    for E, F in product(box, repeat=2):
        chi = euler_pairing(E, F, X)
        assert type(chi) is Fraction and chi == chi_hrr(tensor(F, dual(E), X), X), (E, F)


def test_chi_of_structure_sheaf_on_the_quintic():
    assert chi_hrr(O, X5) == 0


def test_chi_line_bundles_against_ideal_sheaf_oracle():
    for r in range(1, 9):
        X = Hypersurface(r)
        for n in range(-10, 11):
            assert chi_hrr(line(n), X) == oracles.chi_line(r, n), (n, r)


def test_chi_rank2_closed_form_values():
    for c2 in range(-5, 20):
        assert chi_rank2(0, c2) == oracles.chi_rank2(0, c2) == 0
    assert chi_rank2(4, 30) == oracles.chi_rank2(4, 30) == 10
    assert chi_rank2(2, 14) == oracles.chi_rank2(2, 14) == 1
    assert chi_rank2(3, 20) == oracles.chi_rank2(3, 20) == 5


@given(st.integers(-20, 20), st.integers(-200, 200))
def test_chi_rank2_agrees_with_riemann_roch(c1, c2):
    assert chi_rank2(c1, c2) == oracles.chi_rank2(c1, c2) == chi_hrr(rk2(c1, c2), X5)
    assert type(chi_rank2(c1, c2)) is Fraction


@pytest.mark.parametrize(
    "ch, message",
    [
        (ChowClass(1, 0, Fraction(1, 3), 0), "c2 is not an integer: -1/3"),
        (ChowClass(Fraction(3, 2), 0, 0, 0), "rank must be a positive integer, got 3/2"),
        (ChowClass(-1, 0, 0, 0), "rank must be a positive integer, got -1"),
        (ChowClass(), "rank must be a positive integer, got 0"),
        (ChowClass(1, 0, -3, 0), "a rank-1 bundle has c2 = c3 = 0"),
        (ChowClass(2, Fraction(1, 2), 0, 0), "c1 is not an integer: 1/2"),
        (ChowClass(2, 1, Fraction(1, 3), 0), "c2 is not an integer: 13/6"),
        (ChowClass(2, 1, Fraction(-11, 2), Fraction(1, 7)), "c3 is not an integer: 139/21"),
        (ChowClass(2, 1, Fraction(-11, 2), 0), "c3 is not an integer: 19/3"),
        (ChowClass(3, 1, 1, Fraction(1, 2)), "c2 is not an integer: 3/2"),
    ],
)
def test_from_ch_rejection_messages(ch, message):
    with pytest.raises(NotBundleClassError) as excinfo:
        from_ch(ch, X5)
    assert str(excinfo.value) == message


def _oracle_outcome(call):
    try:
        return call()
    except NotBundleClassError as exc:
        return f"NotBundleClassError: {exc}"


@given(
    descriptors(max_rank=8, max_c1=12, max_c=200),
    descriptors(max_rank=8, max_c1=12, max_c=200),
    chow_classes(),
    st.integers(-6, 6),
    hypersurfaces(max_degree=8),
)
def test_kernel_agrees_with_the_fraction_oracle(E, F, x, n, X):
    r = X.r
    ch_e, ch_f = to_ch(E, X), to_ch(F, X)
    assert ch_e.coefficients() == oracles.to_ch(r, E)
    assert X.mul(ch_e, ch_f).coefficients() == oracles.mul(
        r, ch_e.coefficients(), ch_f.coefficients()
    )
    assert X.mul(x, ch_e).coefficients() == oracles.mul(r, x.coefficients(), ch_e.coefficients())
    assert X.exp_h(n).coefficients() == oracles.exp_h(r, n)
    assert X.todd().coefficients() == oracles.todd(r)
    assert from_ch(ch_e, X) == oracles.from_ch(r, oracles.to_ch(r, E)) == E
    # x itself mostly fails on its rank; shifting ch(E) by x's ell and pt
    # parts reaches the c2 and c3 checks.
    for y in (x, ChowClass(ch_e.a0, ch_e.a1, ch_e.a2 + x.a2, ch_e.a3 + x.a3)):
        assert _oracle_outcome(lambda: from_ch(y, X)) == _oracle_outcome(
            lambda: oracles.from_ch(r, y.coefficients())
        )
    assert twist(E, n, X) == oracles.twist(r, E, n)
    assert tensor(E, F, X) == oracles.tensor(r, E, F)
    assert chi_hrr(E, X) == oracles.chi(r, E)


def test_chi_hrr_is_chi_rank2_on_every_catalog_twist():
    for entry in catalog():
        for n in range(-3, 4):
            E = twist(entry.descriptor(), n, QUINTIC)
            chi = chi_hrr(E, QUINTIC)
            assert chi == chi_rank2(E.c1, E.c2) == oracles.chi_rank2(E.c1, E.c2), (entry.pair, n)
            assert chi == oracles.chi(5, E), (entry.pair, n)
            assert type(chi) is Fraction and type(chi_rank2(E.c1, E.c2)) is Fraction

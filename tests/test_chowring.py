import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acmbundles import BundleDescriptor, ChowClass, Hypersurface, bundles, chowring, to_ch, twist
from acmbundles.chowring import _over

import oracles
from strategies import chow_classes, hypersurfaces

X5 = Hypersurface(5)
H = ChowClass(0, 1, 0, 0)


def _add(x, y):
    # A class has no +: the sum of two classes, built from their coefficients.
    return ChowClass(*(a + b for a, b in zip(x.coefficients(), y.coefficients())))


def _ch_o(X, n):
    # ch(O_X(n)), the truncated exponential of nH, through the public route.
    return to_ch(BundleDescriptor(1, n), X)


def test_h_squared_is_r_ell():
    assert X5.mul(H, H) == ChowClass(0, 0, 5, 0)
    assert Hypersurface(3).mul(H, H) == ChowClass(0, 0, 3, 0)


def test_difference_of_squares():
    one_plus = ChowClass(1, 1, 0, 0)
    one_minus = ChowClass(1, -1, 0, 0)
    assert X5.mul(one_plus, one_minus) == ChowClass(1, 0, -5, 0)


def test_character_product_pt_coefficient():
    # ch(F) . ch(E*) for F = (4,30), E = (1,8) on the quintic.
    ch_f = ChowClass(2, 4, 10, Fraction(-20, 3))
    ch_e_dual = ChowClass(2, -1, Fraction(-11, 2), Fraction(19, 6))
    assert X5.mul(ch_f, ch_e_dual).a3 == -39


def test_exp_h_values():
    assert _ch_o(X5, 0) == ChowClass(1, 0, 0, 0)
    assert _ch_o(X5, -1) == ChowClass(1, -1, Fraction(5, 2), Fraction(-5, 6))
    assert _ch_o(X5, 1) == ChowClass(1, 1, Fraction(5, 2), Fraction(5, 6))
    assert _ch_o(X5, 2) == ChowClass(1, 2, 10, Fraction(20, 3))


def test_exp_h_is_a_homomorphism():
    for r in range(1, 7):
        X = Hypersurface(r)
        for n in range(-5, 6):
            for m in range(-5, 6):
                assert X.mul(_ch_o(X, n), _ch_o(X, m)) == _ch_o(X, n + m)


def test_exp_h_is_its_oracle_and_a_repeat_is_the_same_object():
    # The memo twist reads, bundles._line_ch, against the oracle and the public route.
    bundles._line_ch.cache_clear()
    for r in range(1, 9):
        X = Hypersurface(r)
        for n in range(-12, 13):
            first = bundles._line_ch(r, n)
            assert first.coefficients() == oracles.exp_h(r, n) == _ch_o(X, n).coefficients(), (r, n)
            assert bundles._line_ch(r, n) is first, (r, n)


def test_the_exp_h_memo_stays_within_its_bound():
    O = BundleDescriptor(1, 0)
    for r in (3, 5):
        for n in range(-250, 250):  # 1,000 distinct keys
            twist(O, n, Hypersurface(r))
    info = bundles._line_ch.cache_info()
    assert 0 < info.currsize <= info.maxsize <= 256
    assert twist(O, -250, X5) == BundleDescriptor(1, -250)  # evicted, then built again
    assert bundles._line_ch(5, -250).coefficients() == oracles.exp_h(5, -250)


@pytest.mark.parametrize("bad", [1.0, 2.0, Fraction(1), Fraction(2), 1.5, "1", None])
def test_exp_h_rejects_a_non_int_even_when_the_int_of_its_value_is_held(bad):
    # The memo is keyed by value, so it answers 1.0 with the class of 1; twist, its one
    # caller, must refuse a non-int n before it reads the memo.
    E = BundleDescriptor(2, 1, 8)
    held = twist(E, 1, X5), twist(E, 2, X5)
    assert bundles._line_ch(5, 1.0) is bundles._line_ch(5, 1)
    for n in (bad, True):
        with pytest.raises(ValueError, match="twist n must be an integer"):
            twist(E, n, X5)
    assert held == (BundleDescriptor(2, 3, 18), BundleDescriptor(2, 5, 38))


# Each basis class over a denominator of its own, and two dense classes.  The two kernels
# are linear in each factor, so the 6^2 ordered pairs on a degree meet every term x_i y_j of
# the product, and every denominator, in every position, as the six factors do in the integral.
TRIPLE_FACTORS = (
    ChowClass(Fraction(2, 3)),
    ChowClass(0, Fraction(-5, 4)),
    ChowClass(0, 0, Fraction(7, 2)),
    ChowClass(0, 0, 0, Fraction(1, 6)),
    ChowClass(Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4), Fraction(-5, 6)),
    ChowClass(2, Fraction(7, 5), -3, Fraction(11, 10)),
)


@pytest.mark.parametrize("r", range(1, 9))
def test_the_triple_reader_is_the_integral_of_the_product(r):
    # build_case reads chi(E, F(m)) as _td_integral(X, _product(r, ch(E*), ch(F(m)))).  Each kernel
    # and the two composed against the Fraction oracle, not against Hypersurface.mul, which is
    # _over of the product kernel.
    X, td = Hypersurface(r), oracles.todd(r)
    f = X.todd().scaled[0]
    for x in TRIPLE_FACTORS:
        num, den = chowring._td_integral(X, x.scaled)
        assert type(num) is type(den) is int and den == x.scaled[0] * f > 0
        assert Fraction(num, den) == oracles.mul(r, x.coefficients(), td)[3], x
    for x, y in product(TRIPLE_FACTORS, repeat=2):
        xy = chowring._product(r, x.scaled, y.scaled)
        assert all(type(n) is int for n in xy) and xy[0] == x.scaled[0] * y.scaled[0]
        expected = oracles.mul(r, x.coefficients(), y.coefficients())
        assert tuple(Fraction(n, xy[0]) for n in xy[1:]) == expected, (x, y)
        num, den = chowring._td_integral(X, xy)
        assert den == xy[0] * f and Fraction(num, den) == oracles.mul(r, expected, td)[3], (x, y)


def test_tangent_chern_quintic():
    assert X5.tangent_chern() == ChowClass(1, 0, 50, -200)


def test_tangent_chern_degree_one_is_p3():
    # (1+H)^5/(1+H) = (1+H)^4, the tangent series of P^3.
    assert Hypersurface(1).tangent_chern() == ChowClass(1, 4, 6, 4)


def test_tangent_chern_quadric():
    c = Hypersurface(2).tangent_chern()
    assert c.a1 == 3
    assert c.a2 == 2 * 4  # 4 in H^2-units


@pytest.mark.parametrize(
    "r, euler",
    [(1, 4), (2, 4), (3, -6), (4, -56), (5, -200)],
)
def test_topological_euler_characteristics(r, euler):
    assert Hypersurface(r).tangent_chern().a3 == euler


def test_todd_quintic():
    assert X5.todd() == ChowClass(1, 0, Fraction(25, 6), 0)


def test_todd_degree_one_is_p3():
    X = Hypersurface(1)
    assert X.todd() == ChowClass(1, 2, Fraction(11, 6), 1)
    assert X.todd().a3 == 1


def test_the_todd_memo_stays_within_its_bound():
    # The degree comes from outside the program (eval --degree), so the memo must not grow with it.
    for r in range(1, 2001):
        assert Hypersurface(r).todd().coefficients() == oracles.todd(r), r
    assert 0 < len(chowring._TODD) <= 64
    assert X5.todd() == ChowClass(1, 0, Fraction(25, 6), 0)


@pytest.mark.parametrize("r, chi", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 0), (6, -4)])
def test_integrated_todd_is_chi_of_structure_sheaf(r, chi):
    assert Hypersurface(r).todd().a3 == chi


def test_tangent_chern_and_todd_for_every_degree_up_to_50():
    for r in range(1, 51):
        # (1+H)^5/(1+rH) by series division: c_k = C(5,k) - r*c_(k-1).
        c = [1]
        for k in range(1, 4):
            c.append(comb(5, k) - r * c[-1])
        X = Hypersurface(r)
        assert X.tangent_chern() == ChowClass(c[0], c[1], r * c[2], r * c[3]), r
        assert X.todd().coefficients() == oracles.todd(r), r


@given(chow_classes(), chow_classes(), hypersurfaces())
def test_mul_commutative(x, y, X):
    assert X.mul(x, y) == X.mul(y, x)


@given(chow_classes(), chow_classes(), chow_classes(), hypersurfaces())
def test_mul_associative(x, y, z, X):
    assert X.mul(X.mul(x, y), z) == X.mul(x, X.mul(y, z))


@given(chow_classes(), chow_classes(), chow_classes(), hypersurfaces())
def test_mul_distributive(x, y, z, X):
    assert X.mul(x, _add(y, z)) == _add(X.mul(x, y), X.mul(x, z))


@given(chow_classes(), hypersurfaces())
def test_one_is_neutral(x, X):
    assert X.mul(ChowClass(1), x) == x


@pytest.mark.parametrize(
    "operation, message",
    [
        (lambda: ChowClass(1) + 1, "unsupported operand"),
        (lambda: 1 + ChowClass(1), "unsupported operand"),
        (lambda: ChowClass(1) - 1, "unsupported operand"),
        (lambda: 1 - ChowClass(1), "unsupported operand"),
        (lambda: ChowClass(1) + ChowClass(1), "unsupported operand"),
        (lambda: ChowClass(1) - ChowClass(1), "unsupported operand"),
        (lambda: -ChowClass(1), "bad operand type for unary -"),
        (lambda: 2 * ChowClass(1), "unsupported operand"),
        (lambda: ChowClass(1) * ChowClass(1), "unsupported operand"),
    ],
    ids=["class+int", "int+class", "class-int", "int-class", "class+class", "class-class", "-class", "int*class",
         "class*class"],
)
def test_adding_or_subtracting_a_number_is_a_type_error(operation, message):
    # A class has no arithmetic operator at all: Python itself refuses each of these.  The
    # product of two classes needs the degree r, so it is Hypersurface.mul.
    with pytest.raises(TypeError, match=message):
        operation()


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        ChowClass(1.5, 0, 0, 0)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "1", None])
def test_floats_bools_and_other_types_are_rejected_everywhere(bad):
    with pytest.raises(TypeError):
        ChowClass(bad, 0, 0, 0)
    with pytest.raises(TypeError):
        ChowClass(0, 0, 0, a3=bad)


def _is_canonical(x):
    return all(type(v) is int for v in x.scaled) and x.scaled[0] > 0 and gcd(*x.scaled) == 1


def test_built_and_computed_classes_are_equal_and_hash_equal():
    pairs = [
        (ChowClass(1, -1, Fraction(5, 2), Fraction(-5, 6)), _ch_o(X5, -1)),
        (ChowClass(0, 0, 5, 0), X5.mul(H, H)),
        (ChowClass(Fraction(4, 2), Fraction(3, 3), 0, 0), X5.mul(ChowClass(2), ChowClass(1, Fraction(1, 2)))),
        (ChowClass(), X5.mul(ChowClass(0, 0, Fraction(1, 2)), ChowClass(0, 0, Fraction(1, 3)))),
        (ChowClass(1, 0, Fraction(25, 6), 0), X5.todd()),
    ]
    for built, computed in pairs:
        assert built == computed
        assert hash(built) == hash(computed)
        assert built.scaled == computed.scaled


@given(chow_classes(), chow_classes(), hypersurfaces(), st.integers(-6, 6))
def test_operations_keep_the_canonical_form(x, y, X, n):
    scaled_by_three_quarters = X.mul(ChowClass(Fraction(3, 4)), x)
    over_six_times = _over(*(6 * v for v in x.scaled))
    for z in (x, y, X.mul(x, y), _add(x, y), scaled_by_three_quarters, over_six_times, _ch_o(X, n), X.todd()):
        assert _is_canonical(z)
    assert over_six_times == x
    assert (x == y) == (x.coefficients() == y.coefficients())
    assert X.mul(x, y).coefficients() == oracles.mul(X.r, x.coefficients(), y.coefficients())


def test_coefficients_read_back_as_fractions():
    x = _ch_o(X5, 1)
    assert x.scaled == (6, 6, 6, 15, 5)
    for value in (*x.coefficients(), x.a0, x.a1, x.a2, x.a3):
        assert type(value) is Fraction
    assert x.coefficients() == (1, 1, Fraction(5, 2), Fraction(5, 6))
    assert (x.a0, x.a1, x.a2, x.a3) == x.coefficients()


def test_classes_are_immutable():
    x = ChowClass(1, 2, 3, 4)
    with pytest.raises(FrozenInstanceError):
        x.a0 = Fraction(5)
    with pytest.raises(FrozenInstanceError):
        x.scaled = (1, 0, 0, 0, 0)
    with pytest.raises(FrozenInstanceError):
        del x.scaled
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == ChowClass(1, 2, 3, 4)


def test_text_forms_and_pickling():
    x = _ch_o(X5, -1)
    assert repr(x) == (
        "ChowClass(a0=Fraction(1, 1), a1=Fraction(-1, 1), "
        "a2=Fraction(5, 2), a3=Fraction(-5, 6))"
    )
    assert str(x) == repr(x)
    assert pickle.loads(pickle.dumps(x)) == x


def test_a_class_keeps_its_one_slot_and_no_instance_dict():
    for x in (ChowClass(1, 2, 3, 4), _ch_o(X5, 2), X5.todd()):
        assert not hasattr(x, "__dict__")


def test_the_constructor_takes_coefficients_not_fields():
    assert ChowClass(1, 2, 3, 4) == _over(1, 1, 2, 3, 4)
    assert ChowClass(a3=Fraction(1, 2)).scaled == (2, 0, 0, 0, 1)
    assert ChowClass() == _over(1, 0, 0, 0, 0)


# Written by pickle.dumps(ChowClass(1, 1/2, 3, -5/6), protocol=p) for p = 0..5,
# before ChowClass moved onto the record base; the pickling form must not move.
PICKLES = (
    b"cacmbundles.chowring\n_over\np0\n(I6\nI6\nI3\nI18\nI-5\ntp1\nRp2\n.",
    b"cacmbundles.chowring\n_over\nq\x00(K\x06K\x06K\x03K\x12J\xfb\xff\xff\xfftq\x01Rq\x02.",
    b"\x80\x02cacmbundles.chowring\n_over\nq\x00(K\x06K\x06K\x03K\x12J\xfb\xff\xff\xfftq\x01Rq\x02.",
    b"\x80\x03cacmbundles.chowring\n_over\nq\x00(K\x06K\x06K\x03K\x12J\xfb\xff\xff\xfftq\x01Rq\x02.",
    b"\x80\x04\x953\x00\x00\x00\x00\x00\x00\x00\x8c\x13acmbundles.chowring\x94\x8c\x05_over\x94\x93\x94"
    b"(K\x06K\x06K\x03K\x12J\xfb\xff\xff\xfft\x94R\x94.",
    b"\x80\x05\x953\x00\x00\x00\x00\x00\x00\x00\x8c\x13acmbundles.chowring\x94\x8c\x05_over\x94\x93\x94"
    b"(K\x06K\x06K\x03K\x12J\xfb\xff\xff\xfft\x94R\x94.",
)


@pytest.mark.parametrize("protocol", range(len(PICKLES)))
def test_pickle_bytes_are_unchanged_and_load(protocol):
    x = ChowClass(1, Fraction(1, 2), 3, Fraction(-5, 6))
    assert pickle.dumps(x, protocol=protocol) == PICKLES[protocol]
    back = pickle.loads(PICKLES[protocol])
    assert type(back) is ChowClass and back == x and back.scaled == (6, 6, 3, 18, -5)


def test_equality_is_only_with_a_class_and_equal_classes_hash_equal():
    x, y = ChowClass(1, 2, 3, 4), X5.mul(ChowClass(Fraction(1, 2), 1, Fraction(3, 2), 2), ChowClass(2))
    assert x == y and hash(x) == hash(y)
    assert x != x.scaled and x.scaled != x
    assert x != Hypersurface(5) and ChowClass(5) != Hypersurface(5)
    assert x != BundleDescriptor(1, 2) and len({x, y, ChowClass(1)}) == 2


def test_copies_round_trip():
    x = X5.todd()
    for twin in (copy.copy(x), copy.deepcopy(x)):
        assert type(twin) is ChowClass and twin == x and twin.scaled == x.scaled


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        Hypersurface(0)
    with pytest.raises(ValueError):
        Hypersurface(-3)

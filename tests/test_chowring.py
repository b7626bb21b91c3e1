import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acmbundles import BundleDescriptor, ChowClass, Hypersurface, integrate
from acmbundles.chowring import _over

import oracles
from strategies import chow_classes, hypersurfaces

X5 = Hypersurface(5)
H = ChowClass(0, 1, 0, 0)


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
    assert integrate(X5.mul(ch_f, ch_e_dual)) == -39


def test_exp_h_values():
    assert X5.exp_h(0) == ChowClass(1, 0, 0, 0)
    assert X5.exp_h(-1) == ChowClass(1, -1, Fraction(5, 2), Fraction(-5, 6))
    assert X5.exp_h(1) == ChowClass(1, 1, Fraction(5, 2), Fraction(5, 6))
    assert X5.exp_h(2) == ChowClass(1, 2, 10, Fraction(20, 3))


def test_exp_h_is_a_homomorphism():
    for r in range(1, 7):
        X = Hypersurface(r)
        for n in range(-5, 6):
            for m in range(-5, 6):
                assert X.mul(X.exp_h(n), X.exp_h(m)) == X.exp_h(n + m)


def test_integrate_reads_point_coefficient():
    assert integrate(ChowClass(0, 0, 0, 7)) == 7
    assert integrate(ChowClass(1, 2, 3, Fraction(-1, 2))) == Fraction(-1, 2)


@pytest.mark.parametrize("r", range(1, 9))
@given(chow_classes(), chow_classes())
def test_two_factor_integrate_is_the_integral_of_the_product(r, x, y):
    assert integrate(x, y) == integrate(Hypersurface(r).mul(x, y))
    assert integrate(x, y) == integrate(y, x)
    assert integrate(x) == integrate(x, ChowClass(1))


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
    assert integrate(Hypersurface(r).tangent_chern()) == euler


def test_todd_quintic():
    assert X5.todd() == ChowClass(1, 0, Fraction(25, 6), 0)


def test_todd_degree_one_is_p3():
    X = Hypersurface(1)
    assert X.todd() == ChowClass(1, 2, Fraction(11, 6), 1)
    assert integrate(X.todd()) == 1


@pytest.mark.parametrize("r, chi", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 0), (6, -4)])
def test_integrated_todd_is_chi_of_structure_sheaf(r, chi):
    assert integrate(Hypersurface(r).todd()) == chi


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
    assert X.mul(x, y + z) == X.mul(x, y) + X.mul(x, z)


@given(chow_classes(), hypersurfaces())
def test_one_is_neutral(x, X):
    assert X.mul(ChowClass(1), x) == x


@given(chow_classes())
def test_additive_inverse(x):
    assert x - x == ChowClass()


def test_scalar_multiplication():
    x = ChowClass(1, 2, 3, 4)
    assert 2 * x == ChowClass(2, 4, 6, 8)
    assert Fraction(1, 2) * x == ChowClass(Fraction(1, 2), 1, Fraction(3, 2), 2)


def test_class_times_class_needs_hypersurface():
    with pytest.raises(TypeError):
        ChowClass(1) * ChowClass(1)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        ChowClass(1.5, 0, 0, 0)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "1", None])
def test_floats_bools_and_other_types_are_rejected_everywhere(bad):
    with pytest.raises(TypeError):
        ChowClass(bad, 0, 0, 0)
    with pytest.raises(TypeError):
        ChowClass(0, 0, 0, a3=bad)
    with pytest.raises(TypeError):
        bad * ChowClass(1)
    with pytest.raises(TypeError):
        ChowClass(1) * bad


def _is_canonical(x):
    return all(type(v) is int for v in x.scaled) and x.scaled[0] > 0 and gcd(*x.scaled) == 1


def test_built_and_computed_classes_are_equal_and_hash_equal():
    pairs = [
        (ChowClass(1, -1, Fraction(5, 2), Fraction(-5, 6)), X5.exp_h(-1)),
        (ChowClass(0, 0, 5, 0), X5.mul(H, H)),
        (ChowClass(Fraction(4, 2), Fraction(3, 3), 0, 0), ChowClass(1) + ChowClass(1, 1)),
        (ChowClass(), X5.exp_h(3) - X5.exp_h(3)),
        (ChowClass(1, 0, Fraction(25, 6), 0), X5.todd()),
    ]
    for built, computed in pairs:
        assert built == computed
        assert hash(built) == hash(computed)
        assert built.scaled == computed.scaled


@given(chow_classes(), chow_classes(), hypersurfaces(), st.integers(-6, 6))
def test_operations_keep_the_canonical_form(x, y, X, n):
    for z in (x, y, X.mul(x, y), x + y, x - y, -x, Fraction(3, 4) * x, X.exp_h(n), X.todd()):
        assert _is_canonical(z)
    assert (x == y) == (x.coefficients() == y.coefficients())
    assert X.mul(x, y).coefficients() == oracles.mul(X.r, x.coefficients(), y.coefficients())


def test_coefficients_read_back_as_fractions():
    x = X5.exp_h(1)
    assert x.scaled == (6, 6, 6, 15, 5)
    for value in (*x.coefficients(), x.a0, x.a1, x.a2, x.a3, integrate(x)):
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
    x = X5.exp_h(-1)
    assert str(x) == "1 + -1*H + 5/2*ell + -5/6*pt"
    assert str(ChowClass()) == "0"
    assert repr(x) == (
        "ChowClass(a0=Fraction(1, 1), a1=Fraction(-1, 1), "
        "a2=Fraction(5, 2), a3=Fraction(-5, 6))"
    )
    assert pickle.loads(pickle.dumps(x)) == x


def test_a_class_keeps_its_one_slot_and_no_instance_dict():
    for x in (ChowClass(1, 2, 3, 4), X5.exp_h(2), X5.todd()):
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
    x, y = ChowClass(1, 2, 3, 4), X5.exp_h(1) - X5.exp_h(1) + ChowClass(1, 2, 3, 4)
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

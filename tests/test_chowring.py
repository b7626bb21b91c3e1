from fractions import Fraction

import pytest
from hypothesis import given

from acmbundles import ChowClass, Hypersurface, integrate

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
    assert X.mul(ChowClass.one(), x) == x


@given(chow_classes())
def test_additive_inverse(x):
    assert x - x == ChowClass.zero()


def test_scalar_multiplication():
    x = ChowClass(1, 2, 3, 4)
    assert 2 * x == ChowClass(2, 4, 6, 8)
    assert Fraction(1, 2) * x == ChowClass(Fraction(1, 2), 1, Fraction(3, 2), 2)


def test_class_times_class_needs_hypersurface():
    with pytest.raises(TypeError):
        ChowClass.one() * ChowClass.one()


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        ChowClass(1.5, 0, 0, 0)


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        Hypersurface(0)
    with pytest.raises(ValueError):
        Hypersurface(-3)

import pytest
from conftest import generator_state

from freefield.constructions import build_system, det_family
from freefield.fock import wick
from freefield.linalg import axpy
from freefield.rationals import QQ
from freefield.weyl import (
    apply_weyl, classical_dets, normal_form_product, poly_monomials,
    weyl_term, zhu_star, zhu_zero_mode,
)


def commutator(u, v):
    out = normal_form_product(u, v)
    axpy(out, normal_form_product(v, u), -1)
    return out


def test_canonical_commutation():
    x = weyl_term(QQ(1), alpha=((1, 1),))
    d = weyl_term(QQ(1), beta=((1, 1),))
    assert commutator(d, x) == weyl_term(QQ(1))
    assert not commutator(weyl_term(QQ(1), beta=((2, 1),)), x)


def test_normal_form_reordering():
    x = weyl_term(QQ(1), alpha=((1, 1),))
    d = weyl_term(QQ(1), beta=((1, 1),))
    xd = normal_form_product(x, d)
    # (x d)(x d) = x^2 d^2 + x d
    want = {**weyl_term(QQ(1), alpha=((1, 1), (1, 1)), beta=((1, 1), (1, 1))),
            **weyl_term(QQ(1), alpha=((1, 1),), beta=((1, 1),))}
    assert normal_form_product(xd, xd) == want


def test_apply_weyl_derivative():
    # d/dx applied to x^3 gives 3 x^2
    d = weyl_term(QQ(1), beta=((1, 1),))
    x3 = weyl_term(QQ(1), alpha=((1, 1), (1, 1), (1, 1)))
    got = apply_weyl(d, x3)
    want = weyl_term(QQ(3), alpha=((1, 1), (1, 1)))
    assert got == want


def test_classical_dets_guards():
    with pytest.raises(ValueError):
        classical_dets((2, 2), (1, 1))
    with pytest.raises(ValueError):
        classical_dets((2, 2), (1,))


def test_zhu_zero_mode_of_determinant():
    sys = build_system(bosonic=(2, 2))
    D = det_family(sys, (1, 2), side="beta")
    dd = classical_dets((2, 2), (1, 2), primed=True)
    for q in poly_monomials((2, 2), 3):
        assert zhu_zero_mode(D, q) == apply_weyl(dd, q)


def test_zhu_zero_mode_of_gamma_determinant_multiplies():
    sys = build_system(bosonic=(2, 2))
    Dp = det_family(sys, (1, 2), side="gamma")
    dx = classical_dets((2, 2), (1, 2), primed=False)
    one = weyl_term(QQ(1))
    assert zhu_zero_mode(Dp, one) == dx


def test_star_product_functoriality_sample():
    sys = build_system(bosonic=(2, 1))
    a = wick([generator_state(sys, "beta", 1, 1),
              generator_state(sys, "gamma", 1, 2)])
    b = wick([generator_state(sys, "beta", 1, 2),
              generator_state(sys, "gamma", 1, 1)])
    star = zhu_star(a, b)
    for q in poly_monomials((2, 1), 2):
        lhs = zhu_zero_mode(star, q)
        rhs = zhu_zero_mode(a, zhu_zero_mode(b, q))
        assert lhs == rhs

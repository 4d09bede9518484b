import pytest

from freefield.constructions import build_system, det_family, theta
from freefield.liealg import make_algebra
from freefield.linalg import axpy
from freefield.rationals import QQ
from freefield.weyl import (
    apply_weyl, bernstein_degree, classical_dets, measure_zero_mode_shift,
    normal_form_product, poly_monomials, tau_maps, weyl_commutator, weyl_const,
    weyl_eq, weyl_from_text, weyl_invariance, weyl_term, weyl_to_text,
    zhu_products, zhu_zero_mode,
)


def test_canonical_commutation():
    x = weyl_term(QQ(1), alpha=((1, 1),))
    d = weyl_term(QQ(1), beta=((1, 1),))
    assert weyl_eq(weyl_commutator(d, x), weyl_const(QQ(1)))
    assert not weyl_commutator(weyl_term(QQ(1), beta=((2, 1),)), x)


def test_normal_form_reordering():
    x = weyl_term(QQ(1), alpha=((1, 1),))
    d = weyl_term(QQ(1), beta=((1, 1),))
    xd = normal_form_product(x, d)
    # (x d)(x d) = x^2 d^2 + x d
    want = {**weyl_term(QQ(1), alpha=((1, 1), (1, 1)), beta=((1, 1), (1, 1))),
            **weyl_term(QQ(1), alpha=((1, 1),), beta=((1, 1),))}
    assert weyl_eq(normal_form_product(xd, xd), want)
    assert bernstein_degree(want) == 4


def test_apply_weyl_derivative():
    # d/dx applied to x^3 gives 3 x^2
    d = weyl_term(QQ(1), beta=((1, 1),))
    x3 = weyl_term(QQ(1), alpha=((1, 1), (1, 1), (1, 1)))
    got = apply_weyl(d, x3)
    want = weyl_term(QQ(3), alpha=((1, 1), (1, 1)))
    assert weyl_eq(got, want)


def test_text_round_trip():
    w = {**weyl_term(QQ(-3, 2), alpha=((1, 2),), beta=((2, 1), (2, 1))),
         **weyl_const(QQ(5))}
    assert weyl_eq(weyl_from_text(weyl_to_text(w)), w)


def test_tau_left_realizes_bracket():
    A = make_algebra("sl", 2)
    taus = tau_maps(A, (2, 2), side="left")
    from freefield.liealg import bracket
    for i in range(A.dim):
        for j in range(A.dim):
            comm = weyl_commutator(taus[i], taus[j])
            want = {}
            for k, c in bracket(A, i, j).items():
                axpy(want, taus[k], c)
            assert weyl_eq(comm, want), (i, j)


def test_determinant_invariance():
    A = make_algebra("sl", 2)
    taus = tau_maps(A, (2, 2), side="left")
    det = classical_dets((2, 2), (1, 2))
    ok, witness = weyl_invariance(det, taus, A.labels)
    assert ok, witness
    # gl includes the trace direction, under which the determinant scales
    G = make_algebra("gl", 2)
    gtaus = tau_maps(G, (2, 2), side="left")
    ok, witness = weyl_invariance(det, gtaus, G.labels)
    assert not ok


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
        assert weyl_eq(zhu_zero_mode(D, q), apply_weyl(dd, q))


def test_zhu_zero_mode_of_gamma_determinant_multiplies():
    sys = build_system(bosonic=(2, 2))
    Dp = det_family(sys, (1, 2), side="gamma")
    dx = classical_dets((2, 2), (1, 2), primed=False)
    one = weyl_const(QQ(1))
    assert weyl_eq(zhu_zero_mode(Dp, one), dx)


def test_star_product_functoriality_sample():
    sys = build_system(bosonic=(2, 1))
    from freefield.fock import generator_state, wick
    a = wick([generator_state(sys, "beta", 1, 1),
              generator_state(sys, "gamma", 1, 2)])
    b = wick([generator_state(sys, "beta", 1, 2),
              generator_state(sys, "gamma", 1, 1)])
    star, _ = zhu_products(a, b)
    for q in poly_monomials((2, 1), 2):
        lhs = zhu_zero_mode(star, q)
        rhs = zhu_zero_mode(a, zhu_zero_mode(b, q))
        assert weyl_eq(lhs, rhs)


def test_measure_zero_mode_shift_constant():
    sys = build_system(bosonic=(2, 1))
    A = make_algebra("sl", 2)
    F = theta(A, sys, side="left")
    taus = tau_maps(A, (2, 1), side="left")
    ok, shifts, witness = measure_zero_mode_shift(F, taus, (2, 1), 2)
    assert ok, witness
    assert set(shifts) == set(A.labels)

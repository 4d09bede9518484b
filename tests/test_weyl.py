import random
from itertools import permutations

import pytest
from conftest import generator_state

from freefield.constructions import (build_system, component_monomials,
                                     det_family)
from freefield.diffalg import graded_multisets
from freefield.fock import (State, generator_polynomial, mono_weight,
                            monomial_state, nth_product, vacuum, wick)
from freefield.linalg import axpy, perm_sign
from freefield.properties import random_monomial
from freefield.rationals import QQ
from freefield.weyl import (
    apply_weyl, classical_dets, decode_polynomial, normal_form_product,
    poly_monomials, weyl_term, zhu_star, zhu_zero_mode,
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
    dd = classical_dets((2, 2), (1, 2))
    for q in poly_monomials(sys, 3):
        got = decode_polynomial(zhu_zero_mode(D, q))
        assert got == apply_weyl(dd, decode_polynomial(q))


def test_zhu_zero_mode_of_gamma_determinant_multiplies():
    sys = build_system(bosonic=(2, 2))
    Dp = det_family(sys, (1, 2), side="gamma")
    # det x' over the copies (1, 2), expanded over permutations
    dx: dict = {}
    for perm in permutations(range(2)):
        axpy(dx, weyl_term(perm_sign(perm),
                           alpha=[(r + 1, perm[r] + 1) for r in range(2)]))
    assert decode_polynomial(zhu_zero_mode(Dp, vacuum(sys))) == dx


def test_star_product_functoriality_sample():
    sys = build_system(bosonic=(2, 1))
    a = wick([generator_state(sys, "beta", 1, 1),
              generator_state(sys, "gamma", 1, 2)])
    b = wick([generator_state(sys, "beta", 1, 2),
              generator_state(sys, "gamma", 1, 1)])
    star = zhu_star(a, b)
    for q in poly_monomials(sys, 2):
        lhs = zhu_zero_mode(star, q)
        rhs = zhu_zero_mode(a, zhu_zero_mode(b, q))
        assert lhs == rhs


def _reference_poly_monomials(shape, maxdeg):
    """Reference for poly_monomials: the x'-monomials of degree <= maxdeg
    as Weyl elements, the graded multisets of the variables x'[i, j]."""
    n, m = shape
    vars_ = sorted((i, j) for j in range(1, m + 1) for i in range(1, n + 1))
    return [weyl_term(1, alpha=tuple(vars_[k] for k in tup))
            for tup in graded_multisets([(0, 1, 0)] * len(vars_), 0, 0, maxdeg)]


def _split_zero_mode(a, q):
    """Reference for zhu_zero_mode: split a into its weight-homogeneous
    components and sum component o_{w-1} q, each by nth_product."""
    sys = a.sys
    comps: dict = {}
    for mono, c in a.terms.items():
        comps.setdefault(mono_weight(sys, mono), {})[mono] = c
    total = State(sys, {})
    for w, terms in sorted(comps.items()):
        total = total.add(nth_product(State(sys, terms), q, w - 1))
    return total


def _reference_zero_mode(a, q):
    """Reference for zhu_zero_mode on a Weyl polynomial q: encode q as the
    normally ordered gamma fields, act by a(wt-1) per weight component of
    a, decode."""
    enc = generator_polynomial(a.sys, [
        (c, [("gamma", j, i) for i, j in alpha]) for (alpha, _), c in q.items()])
    return decode_polynomial(_split_zero_mode(a, enc))


def _frozen(w):
    return tuple(sorted(w.items()))


@pytest.mark.parametrize("shape", [(2, 1), (2, 2)])
def test_zhu_zero_mode_matches_weyl_reference(shape):
    sys = build_system(bosonic=shape)
    polys = poly_monomials(sys, 3)
    old = _reference_poly_monomials(shape, 3)
    assert len(polys) == len(old)
    assert {_frozen(decode_polynomial(q)) for q in polys} == set(map(_frozen, old))
    rng = random.Random(7)
    nonzero = 0
    for _ in range(8):
        # a sum of two monomials may have two weight components
        a = random_monomial(sys, rng).add(random_monomial(sys, rng))
        for q in polys:
            got = decode_polynomial(zhu_zero_mode(a, q))
            assert got == _reference_zero_mode(a, decode_polynomial(q))
            nonzero += bool(got)
    assert nonzero


def _modes_state(sys, spec):
    """sum c * the modes (family, copy, coord, m), given in operator order,
    over the pairs (c, modes) of spec."""
    out = State(sys, {})
    for c, modes in spec:
        out = out.add(monomial_state(
            sys, [(sys.gen(f, j, i).index, m) for f, j, i, m in modes], c))
    return out


@pytest.mark.parametrize("shape", [dict(bosonic=(2, 2)),
                                   dict(bosonic=(2, 1), fermionic=(2, 1))])
def test_zhu_zero_mode_matches_split_by_weight(shape):
    sys = build_system(**shape)
    half, third = QQ(1, 2), QQ(1, 3)
    # weight components 0 (with the vacuum), 1 and 2
    a_spec = [(half, []), (-third, [("gamma", 1, 2, -1)]),
              (third, [("beta", 1, 1, -1), ("gamma", 1, 2, -1)]),
              (-half, [("gamma", 1, 1, -2)]),
              (QQ(5, 6), [("beta", 1, 1, -1), ("beta", 1, 2, -1),
                          ("gamma", 1, 1, -1)]),
              (2, [("beta", 1, 2, -2)])]
    q_specs = [[(half, [("gamma", 1, 1, -1), ("gamma", 1, 2, -1)]),
                (-third, [("gamma", 1, 1, -1), ("gamma", 1, 1, -1)]),
                (QQ(2, 3), [])],
               [(third, [("beta", 1, 2, -1), ("gamma", 1, 1, -1)]),
                (half, [("gamma", 1, 2, -1)])]]
    if sys.fermionic:
        a_spec += [(third, [("c", 1, 1, -1)]),
                   (half, [("b", 1, 2, -1), ("c", 1, 1, -1)]),
                   (-third, [("b", 1, 1, -1), ("c", 1, 2, -2)])]
        q_specs += [[(half, [("c", 1, 1, -1), ("c", 1, 2, -1)]),
                     (third, [("c", 1, 2, -1), ("gamma", 1, 1, -1)])]]
    a = _modes_state(sys, a_spec)
    qs = [_modes_state(sys, spec) for spec in q_specs] + [
        State(sys, {m: QQ(1)}) for m in component_monomials(sys, 0, 2)]
    assert () in a.terms
    assert {mono_weight(sys, m) for m in a.terms} == {0, 1, 2}
    for s in (a, qs[0]):
        assert {2, 3} <= {c.denominator for c in s.terms.values()}
    rng = random.Random(11)
    pairs = [(a, q) for q in qs] + [(State(sys, {}), q) for q in qs[:2]]
    for _ in range(12):
        ra = random_monomial(sys, rng).add(
            random_monomial(sys, rng, max_depth=2).scale(third))
        pairs.append((ra, qs[rng.randrange(len(qs))]))
    nonzero = 0
    for x, q in pairs:
        got, want = zhu_zero_mode(x, q), _split_zero_mode(x, q)
        assert got.terms == want.terms, (x, q)
        assert all(type(c) is QQ for c in got.terms.values())
        nonzero += bool(got.terms)
    assert nonzero > len(qs)


def test_poly_monomials_need_pure_betagamma():
    with pytest.raises(ValueError):
        poly_monomials(build_system(bosonic=(1, 1), fermionic=(1, 1)), 2)

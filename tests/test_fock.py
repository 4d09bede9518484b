import json
import os
import random
import subprocess
import sys
from bisect import bisect_left
from importlib.resources import files
from math import factorial

import pytest
from conftest import generator_state

from freefield import fock, harness
from freefield.constructions import build_system
from freefield.fock import (
    apply_mode, binom, derivative, generator_polynomial,
    gradings, mono_parity, mono_weight, monomial_state, nth_product,
    state_from_text, state_to_text, state_weight, vacuum, wick, zero,
)
from freefield.diffalg import symbol
from freefield.linalg import axpy
from freefield.properties import run_property_suite
from freefield.rationals import QQ


def mixed_system():
    return build_system(bosonic=(2, 1), fermionic=(2, 1))


def test_generator_gradings():
    sys = mixed_system()
    for fam, wt, ch in (("beta", 1, -1), ("gamma", 0, 1),
                        ("b", 1, -1), ("c", 0, 1)):
        w, charge, deg = gradings(generator_state(sys, fam, 1, 1))
        assert (w, charge, deg) == (wt, ch, 1)


def test_contraction_values():
    sys = mixed_system()
    beta = generator_state(sys, "beta", 1, 1)
    gamma = generator_state(sys, "gamma", 1, 1)
    b = generator_state(sys, "b", 1, 1)
    c = generator_state(sys, "c", 1, 1)
    vac = vacuum(sys)
    assert nth_product(beta, gamma, 0) == vac
    assert nth_product(gamma, beta, 0) == vac.scale(QQ(-1))
    assert nth_product(b, c, 0) == vac
    assert nth_product(c, b, 0) == vac
    # distinct coordinates never contract
    gamma2 = generator_state(sys, "gamma", 1, 2)
    assert nth_product(beta, gamma2, 0).is_zero()


def test_pauli_exclusion_and_odd_swap():
    sys = mixed_system()
    gi = sys.gen("b", 1, 1).index
    assert monomial_state(sys, [(gi, -1), (gi, -1)]).is_zero()
    gj = sys.gen("b", 1, 2).index
    ab = monomial_state(sys, [(gi, -1), (gj, -1)])
    ba = monomial_state(sys, [(gj, -1), (gi, -1)])
    assert ab == ba.scale(QQ(-1))


def test_bosonic_modes_commute():
    sys = mixed_system()
    gi = sys.gen("beta", 1, 1).index
    ab = monomial_state(sys, [(gi, -2), (gi, -1)])
    ba = monomial_state(sys, [(gi, -1), (gi, -2)])
    assert ab == ba and not ab.is_zero()


def test_positive_modes_annihilate_vacuum():
    sys = mixed_system()
    vac = vacuum(sys)
    for fam in ("beta", "gamma", "b", "c"):
        g = sys.gen(fam, 1, 1)
        assert apply_mode(g, g.weight, vac).is_zero()
        assert not apply_mode(g, -1, vac).is_zero()


def test_binom_generalized():
    for args, want in (((-1, 2), 1), ((-2, 3), -4), ((3, 5), 0),
                       ((4, 2), 6)):
        got = binom(*args)
        assert type(got) is int and got == want


def test_derivative_matches_minus_two_product():
    sys = mixed_system()
    vac = vacuum(sys)
    gi = sys.gen("b", 1, 1).index
    gj = sys.gen("beta", 1, 2).index
    for modes in ([(gi, -3), (gi, -1)],
                  [(gi, -2), (gj, -1), (gi, -1)],
                  [(gj, -2), (gj, -2), (gi, -4)]):
        a = monomial_state(sys, modes)
        assert derivative(a) == nth_product(a, vac, -2)


def test_derivative_sign_with_odd_prefix():
    # raising the trailing mode of b(-3)b(-1) must not pick up a Koszul
    # sign from the b(-3) in front: T(b(-3)b(-1)) = 3 b(-4)b(-1) + b(-3)b(-2)
    sys = build_system(fermionic=(1, 1))
    gi = sys.gen("b", 1, 1).index
    a = monomial_state(sys, [(gi, -3), (gi, -1)])
    want = monomial_state(sys, [(gi, -4), (gi, -1)], 3).add(
        monomial_state(sys, [(gi, -3), (gi, -2)]))
    assert derivative(a) == want


def test_derivative_is_a_derivation_for_wick():
    sys = mixed_system()
    a = generator_state(sys, "beta", 1, 1)
    b = generator_state(sys, "c", 1, 2)
    lhs = derivative(nth_product(a, b, -1))
    rhs = nth_product(derivative(a), b, -1).add(nth_product(a, derivative(b), -1))
    assert lhs == rhs


def test_wick_right_nested():
    sys = mixed_system()
    f = [generator_state(sys, "beta", 1, 1),
         generator_state(sys, "gamma", 1, 1),
         generator_state(sys, "b", 1, 1)]
    nested = nth_product(f[0], nth_product(f[1], f[2], -1), -1)
    assert wick(f) == nested


def _wick_polynomial(sys_, terms):
    """Reference for generator_polynomial: each term as a right-nested
    Wick product of the k-th derivatives of generator states, summed state
    by state."""
    total = zero(sys_)
    for c, gens in terms:
        factors = []
        for family, copy, coord, *order in gens:
            st = generator_state(sys_, family, copy, coord)
            for _ in range(sum(order)):
                st = derivative(st)
            factors.append(st)
        total = total.add(wick(factors).scale(c))
    return total


@pytest.mark.parametrize("shape", [
    {"bosonic": (2, 2)}, {"fermionic": (2, 2)},
    {"bosonic": (2, 1), "fermionic": (2, 2)}])
def test_generator_polynomial_matches_wick_of_generator_states(shape):
    sys_ = build_system(**shape)
    keys = [(g.family, g.copy, g.coord) for g in sys_.generators]
    odd = [k for k in keys if sys_.gen(*k).parity]
    rng = random.Random(len(keys))
    coeffs = [QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-3, 4)]

    def factor():
        # derivative order 0, 1 or 2 as a fourth entry, or no fourth
        # entry for order 0
        key, k = rng.choice(keys), rng.randrange(4)
        return key if k == 3 else key + (k,)

    nonzero = 0
    for _ in range(40):
        terms = [(rng.choice(coeffs),
                  [factor() for _ in range(rng.randint(1, 4))])
                 for _ in range(rng.randint(1, 5))]
        # a term and its negative cancel; a repeated odd generator kills
        # its monomial
        c, gens = terms[0]
        terms.append((-c, gens))
        if odd:
            g = rng.choice(odd) + (rng.randrange(3),)
            terms.append((QQ(5), [g, factor(), g]))
        got = generator_polynomial(sys_, terms)
        assert got == _wick_polynomial(sys_, terms)
        assert all(type(v) is QQ for v in got.terms.values())
        nonzero += not got.is_zero()
    assert nonzero > 20


def test_generator_polynomial_repeated_odd_and_cancelling_terms():
    sys_ = mixed_system()
    b, c = ("b", 1, 1), ("c", 1, 2)
    beta, gamma = ("beta", 1, 1), ("gamma", 1, 2)
    assert generator_polynomial(sys_, [(1, [b, beta, b])]).is_zero()
    # :b c: = -:c b: and bosons commute with everything
    assert generator_polynomial(
        sys_, [(1, [b, c]), (1, [c, b]), (2, [beta, gamma]),
               (-2, [gamma, beta])]).is_zero()
    assert generator_polynomial(sys_, []).is_zero()
    assert generator_polynomial(sys_, [(3, [])]) == vacuum(sys_).scale(3)
    assert generator_polynomial(sys_, [(1, [b, beta, c])]) == wick(
        [generator_state(sys_, *g) for g in (b, beta, c)])


def test_weight_charge_additivity_on_products():
    sys = mixed_system()
    a = wick([generator_state(sys, "beta", 1, 1),
              generator_state(sys, "gamma", 1, 2)])
    b = wick([generator_state(sys, "b", 1, 1),
              generator_state(sys, "c", 1, 1)])
    for n in (-2, -1, 0, 1):
        p = nth_product(a, b, n)
        if p.is_zero():
            continue
        w, ch, _ = gradings(p)
        assert w == 1 + 1 - n - 1 and ch == 0


def test_symbol_degree_guard():
    sys = mixed_system()
    a = wick([generator_state(sys, "beta", 1, 1),
              generator_state(sys, "gamma", 1, 2)])
    s = symbol(a, 2)
    assert len(s) == 1
    with pytest.raises(ValueError):
        symbol(a, 1)


def test_text_round_trip():
    sys = mixed_system()
    a = monomial_state(sys, [(sys.gen("beta", 1, 2).index, -2),
                             (sys.gen("b", 1, 1).index, -1)], QQ(-3, 2))
    a = a.add(vacuum(sys).scale(QQ(1, 7)))
    text = state_to_text(a)
    assert state_from_text(sys, text) == a
    assert state_to_text(zero(sys)) == "0"
    assert state_from_text(sys, "0").is_zero()


def test_state_equality_ignores_term_order():
    sys = mixed_system()
    gi = sys.gen("gamma", 1, 1).index
    a = monomial_state(sys, [(gi, -1)]).add(vacuum(sys))
    b = vacuum(sys).add(monomial_state(sys, [(gi, -1)]))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_nth_mono_homogeneity_guard_under_optimize():
    # a monomial of the wrong weight that reaches the accumulator must trip
    # the homogeneity check, also when -O strips asserts: through the
    # creation insertion of the first sum (beta o_{-1} gamma), and through
    # the contraction of the second sum (beta o_0 gamma, whose first sum
    # is empty)
    cases = (
        ("fock.koszul_insert = lambda seq, item, parity, start=0: "
         "(((item[0], -5),), 1)", -1),
        ("fock._contractions = lambda s, gi, mono: [(0, ((gi, -5),), 1)]",
         0),
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for patch, n in cases:
        code = (
            "from freefield import fock\n"
            "from freefield.constructions import build_system\n"
            "sys_ = build_system(bosonic=(1, 1))\n"
            "beta = fock.monomial_state(sys_, [(sys_.gen('beta', 1, 1).index, -1)])\n"
            "gamma = fock.monomial_state(sys_, [(sys_.gen('gamma', 1, 1).index, -1)])\n"
            f"{patch}\n"
            "try:\n"
            f"    fock.nth_product(beta, gamma, {n})\n"
            "except RuntimeError as e:\n"
            "    print('guarded:', e)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("guarded: inhomogeneous product"), patch


# -- the integer kernel against the rational recursion ----------------------


def _reference_insert_mode(sys_, mono, gi, m):
    """Sort phi(m) from the left into a canonical monomial: (new_mono,
    sign), or (None, 0) when an odd mode repeats."""
    key = (gi, m)
    pos = bisect_left(mono, key)
    sign = 1
    if sys_.parity[gi]:
        if pos < len(mono) and mono[pos] == key:
            return None, 0
        if sum(sys_.parity[g] for g, _ in mono[:pos]) & 1:
            sign = -1
    return mono[:pos] + (key,) + mono[pos:], sign


def _contraction(sys_, gi, gj):
    # phi o_0 psi from the family rules: beta o_0 gamma = 1 = b o_0 c =
    # c o_0 b and gamma o_0 beta = -1 in one copy and coordinate, else 0
    g, h = sys_.generators[gi], sys_.generators[gj]
    if (g.copy, g.coord) != (h.copy, h.coord):
        return 0
    return {("beta", "gamma"): 1, ("gamma", "beta"): -1,
            ("b", "c"): 1, ("c", "b"): 1}.get((g.family, h.family), 0)


def _reference_apply_mode_mono(sys_, gi, m, mono):
    if m <= -1:
        new, sign = _reference_insert_mode(sys_, mono, gi, m)
        return {} if new is None else {new: QQ(sign)}
    out = {}
    crossing = 1
    for k, (gj, p) in enumerate(mono):
        if m + p == -1:
            c = QQ(_contraction(sys_, gi, gj))
            if c:
                axpy(out, {mono[:k] + mono[k + 1:]: c}, crossing)
        if sys_.parity[gi] and sys_.parity[gj]:
            crossing = -crossing
    return out


def _reference_binom(m, j):
    num = 1
    for t in range(j):
        num *= m - t
    return QQ(num, factorial(j))


def _reference_nth_mono(sys_, ma, mb, n, cache):
    # the same recursion over QQ: rational binomials, signs and vacuum,
    # and a cache of its own
    if not ma:
        return {mb: QQ(1)} if n == -1 else {}
    wa, wb = mono_weight(sys_, ma), mono_weight(sys_, mb)
    if n >= 0 and n > wa + wb - 1:
        return {}
    key = (ma, mb, n)
    if key in cache:
        return cache[key]
    (gi, m0), rest = ma[0], ma[1:]
    cross_sign = -1 if (sys_.parity[gi] and mono_parity(sys_, rest)) else 1
    second_sign = QQ(-((-1) ** (m0 & 1)) * cross_sign)
    acc = {}
    for j in range(0, mono_weight(sys_, rest) + wb - n):
        coeff = ((-1) ** (j & 1)) * _reference_binom(m0, j)
        for mono, v in _reference_nth_mono(sys_, rest, mb, n + j, cache).items():
            axpy(acc, _reference_apply_mode_mono(sys_, gi, m0 - j, mono),
                 coeff * v)
    for j in sorted({-p - 1 for _, p in mb}):
        coeff = ((-1) ** (j & 1)) * _reference_binom(m0, j) * second_sign
        for mono, v in _reference_apply_mode_mono(sys_, gi, j, mb).items():
            axpy(acc, _reference_nth_mono(sys_, rest, mono, m0 + n - j, cache),
                 coeff * v)
    cache[key] = acc
    return acc


def _random_mono(sys_, rng):
    while True:
        modes = [(rng.randrange(len(sys_.generators)), -1 - rng.randrange(3))
                 for _ in range(rng.randrange(0, 4))]
        a = monomial_state(sys_, modes)
        if not a.is_zero():
            (mono,) = a.terms
            return mono


def test_nth_mono_matches_rational_reference():
    sys_ = mixed_system()
    rng = random.Random(20120)
    ref_cache: dict = {}
    checked = 0
    for _ in range(80):
        ma, mb = _random_mono(sys_, rng), _random_mono(sys_, rng)
        cutoff = mono_weight(sys_, ma) + mono_weight(sys_, mb) - 1
        for n in range(-3, cutoff + 1):
            got = fock._nth_mono(sys_, ma, mb, n)
            assert got == _reference_nth_mono(sys_, ma, mb, n, ref_cache), \
                (ma, mb, n)
            assert all(type(c) is int for c in got.values())
            checked += bool(got)
    assert checked > 100
    assert all(type(c) is int for d in sys_._nth_cache.values()
               for c in d.values())


# -- the pruned kernel against the unpruned recursion ----------------------


def _rich_mono(sys_, rng):
    # up to four modes of depth up to three from at most three generators,
    # so that boson modes repeat and derivative modes are common
    pool = rng.sample(range(len(sys_.generators)),
                      min(3, len(sys_.generators)))
    while True:
        modes = [(rng.choice(pool), -1 - rng.randrange(4))
                 for _ in range(rng.randrange(0, 5))]
        a = monomial_state(sys_, modes)
        if not a.is_zero():
            (mono,) = a.terms
            return mono


SHAPES = {"bosonic": dict(bosonic=(2, 1)), "fermionic": dict(fermionic=(2, 1)),
          "mixed": dict(bosonic=(1, 2), fermionic=(1, 1))}


@pytest.mark.parametrize("cap", ["1000000", "0"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pruned_kernel_matches_unpruned_recursion(shape, cap, monkeypatch):
    # values and insertion order against the rational recursion, which
    # tries every j of the first sum up to the weight cutoff and every
    # depth of mb in the second, each through the mode action; with the
    # product cache on and off.  The kernel never applies a mode itself
    monkeypatch.setenv("FREEFIELD_CACHE_CAP", cap)
    sys_ = build_system(**SHAPES[shape])

    def no_mode_action(*args):
        raise AssertionError("_nth_mono applied a mode")

    monkeypatch.setattr(fock, "_apply_mode_mono", no_mode_action)
    rng = random.Random(19)
    ref_cache: dict = {}
    nonzero = repeated = 0
    for _ in range(60):
        ma, mb = _rich_mono(sys_, rng), _rich_mono(sys_, rng)
        repeated += len(set(mb)) < len(mb)
        cutoff = mono_weight(sys_, ma) + mono_weight(sys_, mb) - 1
        for n in range(-3, cutoff + 1):
            got = fock._nth_mono(sys_, ma, mb, n)
            want = _reference_nth_mono(sys_, ma, mb, n, ref_cache)
            assert list(got.items()) == list(want.items()), (ma, mb, n)
            nonzero += bool(got)
    assert nonzero > 150
    assert repeated > 5 or shape == "fermionic"
    assert (sys_._nth_cache == {}) == (cap == "0")


def test_products_without_contractions_vanish():
    # the zero lemma: for n >= 0, no factor of ma contracting with a factor
    # of mb gives ma o_n mb = 0 in the rational recursion, and the kernel
    # returns {} without caching it, also below the weight cutoff
    rng = random.Random(4)
    below_cutoff = 0
    for shape in sorted(SHAPES):
        sys_ = build_system(**SHAPES[shape])
        ref_cache: dict = {}
        for _ in range(150):
            ma, mb = _rich_mono(sys_, rng), _rich_mono(sys_, rng)
            if any(_contraction(sys_, gi, gj) for gi, _ in ma for gj, _ in mb):
                continue
            cutoff = mono_weight(sys_, ma) + mono_weight(sys_, mb) - 1
            for n in range(cutoff + 3):
                assert _reference_nth_mono(sys_, ma, mb, n, ref_cache) == {}
                assert fock._nth_mono(sys_, ma, mb, n) == {}
                assert (ma, mb, n) not in sys_._nth_cache
                below_cutoff += bool(ma) and n <= cutoff
    assert below_cutoff > 100


def test_nth_cache_holds_ints_after_a_state_side_scenario(monkeypatch):
    systems = []

    def recording_build_system(*args, **kwargs):
        systems.append(build_system(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(harness, "build_system", recording_build_system)
    raw = json.loads((files("freefield") / "scenarios" /
                      "thm_4_3_n2_m1.json").read_text())
    report = harness.run_scenario(raw)
    assert all(t["status"] == "pass" for t in report["tasks"])
    values = [c for s in systems for d in s._nth_cache.values()
              for c in d.values()]
    assert values and all(type(c) is int for c in values)


# -- every coefficient that leaves the engine is QQ -------------------------


def _all_qq(state):
    return all(type(c) is QQ for c in state.terms.values())


def test_engine_outputs_are_qq_also_for_unit_coefficients():
    sys_ = mixed_system()
    gens = [generator_state(sys_, f, 1, i)
            for f in ("beta", "gamma", "b", "c") for i in (1, 2)]
    rng = random.Random(7)
    states = gens + [monomial_state(sys_, [(rng.randrange(8), -1 - rng.randrange(3))
                                           for _ in range(rng.randrange(1, 4))],
                                    rng.choice([1, -1, QQ(3, 2)]))
                     for _ in range(12)]
    states = [s for s in states if not s.is_zero()] + [vacuum(sys_)]
    seen = 0
    for a in states:
        assert _all_qq(derivative(a))
        for g in sys_.generators:
            for m in (-2, -1, 0, 1, 2):
                assert _all_qq(apply_mode(g, m, a))
        for b in states:
            # every product that can be nonzero, and a few negative ones
            for n in range(-3, max(4, state_weight(a) + state_weight(b))):
                p = nth_product(a, b, n)
                assert _all_qq(p)
                seen += len(p.terms)
            assert _all_qq(wick([a, b]))
            assert _all_qq(fock.zhu_zero_mode(a, b))
    assert seen > 1000
    # the unit path: generator states carry coefficient 1
    assert _all_qq(nth_product(gens[0], gens[2], 0))
    assert _all_qq(nth_product(gens[0], gens[2], -1))


def test_symbol_values_are_qq():
    sys_ = mixed_system()
    a = wick([generator_state(sys_, "beta", 1, 1),
              derivative(derivative(generator_state(sys_, "gamma", 1, 2))),
              generator_state(sys_, "c", 1, 1)])
    s = symbol(a, 3)
    assert s and all(type(c) is QQ for c in s.values())


# -- the kernel's bookkeeping against its direct forms ----------------------


def _qq_state(sys_, out):
    # a term that only ever took the unit-scale path of axpy is an int
    return fock.State(sys_, {mono: QQ(c) for mono, c in out.items()})


def _rational_nth_product(a, b, n):
    # the rational accumulation, the reference for the integer one
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            axpy(out, fock._nth_mono(a.sys, ma, mb, n), ca * cb)
    return _qq_state(a.sys, out)


def _rational_apply_mode(phi, m, s):
    # the rational accumulation of the mode action over the terms of s
    out = {}
    for mono, c in s.terms.items():
        axpy(out, fock._apply_mode_mono(s.sys, phi.index, m, mono), c)
    return _qq_state(s.sys, out)


def _random_state(sys_, rng):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        c = QQ(rng.choice([-1, 1]) * rng.randrange(1, 6),
               rng.choice([1, 2, 3, 6]))
        axpy(terms, {_random_mono(sys_, rng): c})
    return fock.State(sys_, terms)


def _top_weight(a):
    return max(mono_weight(a.sys, m) for m in a.terms)


def test_integer_nth_product_matches_rational_accumulation():
    sys_ = mixed_system()
    rng = random.Random(1712)
    states = [_random_state(sys_, rng) for _ in range(24)]
    dens = {c.denominator for s in states for c in s.terms.values()}
    assert {2, 3, 6} <= dens
    assert any(c < 0 for s in states for c in s.terms.values())
    checked = 0
    for a in states:
        for b in states[:12]:
            if a.is_zero() or b.is_zero():
                continue
            hi = _top_weight(a) + _top_weight(b)
            for n in range(-3, hi):
                got, want = nth_product(a, b, n), _rational_nth_product(a, b, n)
                assert got == want, (a, b, n)
                assert list(got.terms) == list(want.terms), (a, b, n)
                assert _all_qq(got)
                checked += len(got.terms)
    assert checked > 1000


def test_integer_apply_mode_matches_rational_accumulation():
    sys_ = mixed_system()
    rng = random.Random(2020)
    states = [_random_state(sys_, rng) for _ in range(16)]
    dens = {c.denominator for s in states for c in s.terms.values()}
    assert {2, 3, 6} <= dens
    checked = 0
    for s in states:
        for phi in sys_.generators:
            for m in range(-3, 4):
                got, want = apply_mode(phi, m, s), _rational_apply_mode(phi, m, s)
                assert got == want, (phi, m, s)
                assert list(got.terms) == list(want.terms), (phi, m, s)
                assert _all_qq(got)
                checked += len(got.terms)
    assert checked > 500


def _direct_grading(sys_, mono):
    return (sum(-m - 1 + sys_.generators[gi].weight for gi, m in mono),
            sum(sys_.generators[gi].charge for gi, m in mono),
            sum(sys_.generators[gi].parity for gi, m in mono) & 1)


def _direct_masks(sys_, mono):
    # the generators of mono, and the generators that contract with one
    # of them, each as a set of bits
    gens = {gi for gi, _ in mono}
    partners = {gj for gj in range(len(sys_.generators))
                if any(_contraction(sys_, gi, gj) for gi in gens)}
    return (sum(1 << gi for gi in gens), sum(1 << gj for gj in partners))


def test_grading_memo_matches_generator_sums():
    sys_ = mixed_system()
    rng = random.Random(31)
    monos = [_random_mono(sys_, rng) for _ in range(200)]
    for mono in monos:
        assert (mono_weight(sys_, mono), fock.mono_charge(sys_, mono),
                mono_parity(sys_, mono)) == _direct_grading(sys_, mono)
        assert sys_._grading[mono][:3] == _direct_grading(sys_, mono)
        assert sys_._grading[mono][3:] == _direct_masks(sys_, mono)
    # the entries the kernel adds itself, outputs of products included
    for ma, mb in zip(monos, reversed(monos)):
        for n in range(-2, 3):
            fock._nth_mono(sys_, ma, mb, n)
    assert len(sys_._grading) > len(set(monos))
    for mono, grade in sys_._grading.items():
        assert len(grade) == 5
        assert grade[:3] == _direct_grading(sys_, mono)
        assert grade[3:] == _direct_masks(sys_, mono)


def test_cache_cap_zero_keeps_nothing_and_changes_no_product(monkeypatch):
    rng = random.Random(5)
    default = mixed_system()
    monkeypatch.setenv("FREEFIELD_CACHE_CAP", "0")
    off = mixed_system()
    assert off._cache_cap == 0
    for _ in range(20):
        a, b = _random_state(default, rng), _random_state(default, rng)
        a_off = fock.State(off, dict(a.terms))
        b_off = fock.State(off, dict(b.terms))
        for n in range(-2, 3):
            want, got = nth_product(a, b, n), nth_product(a_off, b_off, n)
            assert state_to_text(got) == state_to_text(want)
            assert list(got.terms) == list(want.terms)
        for mono in a.terms:
            mono_weight(off, mono)
    assert default._nth_cache and default._grading
    assert off._nth_cache == {} and off._grading == {}


# -- state arithmetic on integer forms against QQ dicts -----------------------


def _dict_add(u, v, scale=1):
    # u + scale*v over plain QQ dicts, zeros dropped
    out = dict(u)
    for mono, c in v.items():
        out[mono] = out.get(mono, QQ(0)) + QQ(scale) * c
    return {mono: c for mono, c in out.items() if c}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_state_arithmetic_matches_qq_dicts(shape):
    sys_ = build_system(**SHAPES[shape])
    rng = random.Random(2929)
    given = [_random_state(sys_, rng) for _ in range(8)]
    # states built from integer forms: products, their derivatives and
    # mode images, with dens > 1 from the inputs
    built = [nth_product(a, b, n) for a, b, n in zip(given, reversed(given),
                                                     (-1, -2, 0, -1))]
    built += [derivative(built[0]), apply_mode(sys_.generators[0], -1,
                                               given[1])]
    states = [s for s in given + built if not s.is_zero()]
    assert len(states) > 10 and any(s.integral()[1] > 1 for s in built)
    scales = [0, 1, -1, 3, QQ(1, 2), QQ(-5, 6), QQ(7, 3), QQ(-4)]
    for a in states:
        for b in states[:6]:
            for c in scales:
                for got, want in ((a.add(b, c), _dict_add(a.terms, b.terms, c)),
                                  (a.sub(b), _dict_add(a.terms, b.terms, -1)),
                                  (a.scale(c), _dict_add({}, a.terms, c))):
                    assert got.terms == want, (a, b, c)
                    assert all(type(v) is QQ for v in got.terms.values())
                    assert got.is_zero() == (not want)
                    ref = fock.State(sys_, want)
                    assert got == ref and ref == got
                    assert (got == a) == (want == a.terms)
                    # the round trip through the integer form
                    ints, den = got.integral()
                    assert den > 0 and all(type(v) is int for v in ints.values())
                    assert {m: QQ(v, den) for m, v in ints.items()} == want
                    assert fock.State(sys_, integral=(ints, den)) == got
        assert a.sub(a).is_zero() and a.sub(a) == zero(sys_)
        assert a.scale(0).is_zero() and a.scale(0).terms == {}
    # chained sums that cancel to zero, in another order
    coeffs = [rng.choice(scales[1:]) for _ in states]
    total = zero(sys_)
    for s, c in zip(states, coeffs):
        total = total.add(s, c)
    assert not total.is_zero()
    for s, c in reversed(list(zip(states, coeffs))):
        total = total.sub(s.scale(c))
    assert total.is_zero() and total == zero(sys_) and total.terms == {}
    with pytest.raises(AttributeError):
        total.terms = {}


def test_nth_mono_never_gets_an_empty_first_factor(monkeypatch):
    # one-mode first factors are in closed form, so the recursion never
    # reaches ma = (); a vacuum first factor reaches the kernel only from
    # a caller, as in the property suite's pull-off check
    real = fock._nth_mono
    calls = []
    depth = [0]

    def spy(sys_, ma, mb, n):
        calls.append((depth[0], ma))
        depth[0] += 1
        try:
            return real(sys_, ma, mb, n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fock, "_nth_mono", spy)
    sys_ = mixed_system()
    rng = random.Random(88)
    states = [s for s in (_random_state(sys_, rng) for _ in range(30))
              if () not in s.terms][:12]
    for a in states:
        for b in states:
            for n in range(-3, _top_weight(a) + _top_weight(b)):
                nth_product(a, b, n)
    assert all(ma for _, ma in calls)
    assert {len(ma) for _, ma in calls} >= {1, 2, 3}
    assert any(d and len(ma) == 1 for d, ma in calls)
    calls.clear()
    report = run_property_suite(seed=3, instances=60)
    assert not any(entry["failures"] for entry in report.values())
    assert any(not ma for d, ma in calls if not d)
    assert all(ma for d, ma in calls if d)

import random

from conftest import generator_state

from freefield.constructions import build_system
from freefield.fock import monomial_state, wick
from freefield.properties import (
    CHECKS, check_commutator_formula, check_filtration_bounds,
    check_pull_off_independence, check_skew_symmetry, default_systems,
    random_monomial, run_property_suite,
)


def test_suite_structure_and_zero_failures_small():
    rep = run_property_suite(seed=1, instances=40)
    assert set(rep) == set(CHECKS)
    for name, entry in rep.items():
        assert entry["instances"] >= 40, name
        assert entry["failures"] == 0, (name, entry["witness"])


def test_different_seeds_also_clean():
    for seed in (7, 42):
        rep = run_property_suite(seed=seed, instances=25)
        assert all(e["failures"] == 0 for e in rep.values()), seed


def test_random_monomial_is_nonzero():
    rng = random.Random(3)
    for sys in default_systems():
        for _ in range(20):
            assert not random_monomial(sys, rng).is_zero()


def test_skew_symmetry_direct_odd_case():
    sys = build_system(fermionic=(2, 1))
    b1 = generator_state(sys, "b", 1, 1)
    c1 = generator_state(sys, "c", 1, 1)
    a = wick([b1, c1])
    gi = sys.gen("b", 1, 2).index
    v = monomial_state(sys, [(gi, -2), (gi, -1)])
    for n in (-3, -2, -1, 0, 1):
        assert check_skew_symmetry(a, v, n), n


def test_commutator_formula_direct():
    sys = build_system(bosonic=(2, 2))
    a = generator_state(sys, "beta", 1, 1)
    b = generator_state(sys, "gamma", 2, 1)
    c = wick([generator_state(sys, "beta", 2, 1),
              generator_state(sys, "gamma", 1, 1)])
    for m in (0, 1):
        for n in (-1, 0):
            assert check_commutator_formula(a, b, c, m, n), (m, n)


def test_pull_off_independence_interior_position():
    sys = build_system(bosonic=(2, 1), fermionic=(2, 1))
    a = monomial_state(sys, [(sys.gen("b", 1, 1).index, -2),
                             (sys.gen("beta", 1, 1).index, -1),
                             (sys.gen("b", 1, 2).index, -1)])
    v = monomial_state(sys, [(sys.gen("c", 1, 1).index, -1)])
    for n in (-1, 0, 1):
        for pos in (0, 1, 2):
            assert check_pull_off_independence(a, v, n, pos), (n, pos)


def test_filtration_bound_direct():
    sys = build_system(bosonic=(2, 1))
    a = wick([generator_state(sys, "beta", 1, 1),
              generator_state(sys, "gamma", 1, 1)])
    b = wick([generator_state(sys, "beta", 1, 2),
              generator_state(sys, "gamma", 1, 2)])
    for n in (-2, -1, 0, 1, 2):
        assert check_filtration_bounds(a, b, n), n


def test_regression_derivative_inside_skew_symmetry():
    # historical failure case: the n = -2 skew-symmetry expansion applies
    # the translation operator to two-mode odd states
    sys = build_system(fermionic=(1, 1))
    gi = sys.gen("b", 1, 1).index
    a = monomial_state(sys, [(gi, -3), (gi, -1)])
    b = generator_state(sys, "c", 1, 1)
    for n in (-2, -1, 0):
        assert check_skew_symmetry(a, b, n), n
        assert check_skew_symmetry(b, a, n), n

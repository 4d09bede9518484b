import json
import pathlib
import random

import pytest
from conftest import generator_state

from freefield.constructions import (bc_family, build_system,
                                     mixed_psi_family, theta)
from freefield.diffalg import (JetImages, VarSpace, diff_to_text,
                               lie_jet_action, symbol, varspace_for_system)
from freefield.fock import (gradings, monomial_state, nth_product,
                            state_to_text, wick)
from freefield.harness import _build_system, build_family, resolve_scenario
from freefield import properties
from freefield.liealg import make_algebra
from freefield.properties import (
    CHECKS, check_commutator_formula, check_filtration_bounds,
    check_pull_off_independence, check_skew_symmetry, default_systems,
    jet_equivariance, random_monomial, run_property_suite,
)

SCENARIOS = (pathlib.Path(__file__).resolve().parents[1]
             / "src" / "freefield" / "scenarios")


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


def _reference_jet_equivariance(F, seed, samples):
    """The QQ check per sample: symbol of theta o_r v against the jet
    action on the symbol of v, each (sample, current, r) on its own."""
    space = varspace_for_system(F.sys)
    rng = random.Random(seed)
    actions = [[JetImages(space.action_for(F.algebra, idx), r)
                for r in range(3)] for idx in range(F.algebra.dim)]
    failures, witness = 0, None
    for _ in range(samples):
        v = random_monomial(F.sys, rng, max_len=3, max_depth=2)
        _, _, dv = gradings(v)
        sym_v = symbol(v, dv)
        for (lab, th), tables in zip(F.items(), actions):
            for r, images in enumerate(tables):
                lhs = symbol(nth_product(th, v, r), dv)
                rhs = lie_jet_action(images, sym_v)
                if lhs != rhs:
                    failures += 1
                    if witness is None:
                        witness = (lab, r, v, lhs, rhs)
    return failures, witness


def _scenario_family(name):
    raw = json.load(open(SCENARIOS / f"{name}.json"))
    resolved = resolve_scenario(raw)
    return build_family(_build_system(resolved), resolved["group"])


def _same_outcome(F, seed, samples=100):
    got = jet_equivariance(F, seed, samples)
    want = _reference_jet_equivariance(F, seed, samples)
    assert got[0] == want[0], (seed, got[0], want[0])
    if want[1] is None:
        assert got[1] is None
        return got[0]
    (lab, r, v, lhs, rhs), (lab2, r2, v2, lhs2, rhs2) = got[1], want[1]
    assert (lab, r, state_to_text(v), diff_to_text(lhs), diff_to_text(rhs)) \
        == (lab2, r2, state_to_text(v2), diff_to_text(lhs2), diff_to_text(rhs2))
    assert v == v2 and lhs == lhs2 and rhs == rhs2
    return got[0]


@pytest.mark.parametrize("name", ["thm_3_3_sl2_m4", "thm_3_3_so3"])
def test_jet_equivariance_matches_qq_loop_on_bundled_families(name):
    F = _scenario_family(name)
    for seed in range(16):
        assert _same_outcome(F, seed) == 0, seed


def _other_families():
    sl2 = make_algebra("sl", 2)
    fermionic = build_system(fermionic=(2, 2))
    mixed = build_system(bosonic=(2, 1), fermionic=(2, 1))
    # gl(3) on three copies moves the two coordinates of a copy to a
    # third, outside the system: the jet side's variables must hold it
    three = bc_family(build_system(fermionic=(2, 3)), "psi")
    return [theta(sl2, fermionic), bc_family(fermionic, "psi"),
            theta(sl2, mixed), mixed_psi_family(mixed), three]


@pytest.mark.parametrize("index", range(5), ids=[
    "theta-fermionic", "bc_psi", "theta-mixed", "mixed_psi",
    "bc_psi-three-copies"])
def test_jet_equivariance_matches_qq_loop_on_odd_families(index):
    F = _other_families()[index]
    for seed in (0, 1, 2):
        _same_outcome(F, seed, 40)


def _doubling(family):
    """VarSpace.action_for with the matrix of one family doubled."""
    plain = VarSpace.action_for

    def action_for(self, A, xi):
        out = plain(self, A, xi)
        out[family] = {col: [(row, 2 * x) for row, x in entries]
                       for col, entries in out[family].items()}
        return out
    return action_for


def _repeated_monomial_seed(sys, samples):
    """The first seed whose samples repeat a monomial with two different
    coefficients."""
    for seed in range(100):
        rng = random.Random(seed)
        seen: dict = {}
        for _ in range(samples):
            ((mono, c),) = random_monomial(
                sys, rng, max_len=3, max_depth=2).terms.items()
            if seen.setdefault(mono, c) != c:
                return seed
    raise AssertionError("no seed repeats a monomial")


def test_jet_equivariance_forced_failures_match_qq_loop(monkeypatch):
    # a doubled gamma matrix breaks every current that moves gamma: the
    # failures and the witness text must be those of the QQ loop, also for
    # a seed whose samples repeat a monomial with different coefficients,
    # so that the memo counts a failing monomial once per sample
    F = _scenario_family("thm_3_3_so3")
    seed = _repeated_monomial_seed(F.sys, 100)
    monkeypatch.setattr(VarSpace, "action_for", _doubling("gamma"))
    for s in (seed, 7):
        assert _same_outcome(F, s) > 0, s
    mixed = _other_families()[2]
    monkeypatch.setattr(VarSpace, "action_for", _doubling("b"))
    assert _same_outcome(mixed, 0, 40) > 0


def test_jet_equivariance_counts_repeated_monomials_once_per_sample(
        monkeypatch):
    # the engine runs once per distinct monomial, current and r
    F = _scenario_family("thm_3_3_sl2_m4")
    seed = _repeated_monomial_seed(F.sys, 100)
    assert _same_outcome(F, seed) == 0
    rng = random.Random(seed)
    distinct = {next(iter(random_monomial(F.sys, rng, max_len=3,
                                          max_depth=2).terms))
                for _ in range(100)}
    calls = []
    monkeypatch.setattr(properties, "nth_product",
                        lambda *args: calls.append(args) or nth_product(*args))
    assert jet_equivariance(F, seed, 100) == (0, None)
    assert len(distinct) < 100
    assert len(calls) == len(distinct) * 3 * F.algebra.dim

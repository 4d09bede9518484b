import os
import subprocess
import sys
from itertools import permutations

import pytest
from conftest import generator_state
from reference_elimination import GaussJordan, reference_nullspace

from freefield.constructions import (
    CurrentFamily, bc_family, build_system, commutant_check,
    component_monomials, conformal_and_charge, det_family,
    invariant_lift_search, mixed_det, mixed_psi_family, quad_family,
    sec4_identity, state_dims, state_invariant_basis, sugawara, theta,
    verify_affine,
)
from freefield import constructions, fock
from freefield.diffalg import ResourceCapError, root_cut
from freefield.fock import (State, current_mode, derivative, gradings,
                            nth_product, parity_of, state_to_text, vacuum,
                            wick, zero)
from freefield.liealg import (current_generators, make_algebra, split_label,
                              sp_any, torus_weights)
from freefield.linalg import perm_sign, solve_affine
from freefield.rationals import QQ


def test_theta_left_levels_betagamma():
    A = make_algebra("sl", 2)
    for m in (1, 2):
        F = theta(A, build_system(bosonic=(2, m)), side="left")
        rep = verify_affine(F, form="normalized")
        assert rep.ok and rep.level == -m


def test_theta_left_levels_bc():
    A = make_algebra("sl", 2)
    for m in (1, 2):
        F = theta(A, build_system(fermionic=(2, m)), side="left")
        rep = verify_affine(F, form="normalized")
        assert rep.ok and rep.level == m


def test_theta_rep_dimension_guard():
    A = make_algebra("sl", 2)
    with pytest.raises(ValueError):
        theta(A, build_system(bosonic=(3, 1)), side="left")
    with pytest.raises(ValueError):
        theta(A, build_system(bosonic=(2, 1), fermionic=(2, 1)), side="right")


def test_right_gl_level_is_minus_coords():
    sys = build_system(bosonic=(3, 2))
    F = theta(make_algebra("gl", 2), sys, side="right")
    rep = verify_affine(F, form="trace")
    assert rep.ok and rep.level == -3


def test_quad_family_so_case_target_and_level():
    F = quad_family(make_algebra("so", 3), build_system(bosonic=(3, 2)))
    assert F.algebra.kind == "sp" and F.algebra.dim == 10
    rep = verify_affine(F, form="normalized")
    assert rep.ok and rep.level == QQ(-3, 2)
    # members are quadratic with charges -2, 0, +2
    charges = {gradings(st)[1] for st in F.states}
    assert charges == {-2, 0, 2}


def test_quad_family_sp_case_trace_vs_normalized():
    F = quad_family(make_algebra("sp", 4), build_system(bosonic=(4, 2)))
    assert F.algebra.kind == "so_split" and F.algebra.dim == 6
    assert verify_affine(F, form="trace").level == -2
    assert verify_affine(F, form="normalized").level == -4


def test_verify_affine_rejects_other_forms():
    F = theta(make_algebra("gl", 2), build_system(bosonic=(3, 2)), "right")
    for form in ("killing", "explicit", [[1, 0], [0, 1]]):
        with pytest.raises(ValueError, match="unknown verify_affine form"):
            verify_affine(F, form=form)


def test_det_family_alternating_and_membership():
    sys = build_system(bosonic=(2, 2))
    D = det_family(sys, (1, 2), side="beta")
    D_swapped = det_family(sys, (2, 1), side="beta")
    assert D_swapped == D.scale(QQ(-1))
    with pytest.raises(ValueError):
        det_family(sys, (1, 1), side="beta")
    F = theta(make_algebra("sl", 2), sys, side="left")
    ok, witness = commutant_check(D, F)
    assert ok, witness
    Dp = det_family(sys, (1, 2), side="gamma")
    ok, _ = commutant_check(Dp, F)
    assert ok
    # a single beta is not in the commutant
    bad = generator_state(sys, "beta", 1, 1)
    ok, witness = commutant_check(bad, F)
    assert not ok and witness[1] == 0


def test_mixed_det_gradings():
    sys = build_system(bosonic=(4, 2))
    M = mixed_det(sys)
    w, ch, deg = gradings(M)
    assert (w, ch, deg) == (2, 0, 4)


def test_charge_element_ope():
    for n, m in ((1, 1), (2, 2), (3, 1)):
        sys = build_system(bosonic=(n, m))
        _, _, e = conformal_and_charge(sys)
        assert nth_product(e, e, 0).is_zero()
        assert nth_product(e, e, 1) == vacuum(sys).scale(QQ(-n * m))


def test_conformal_elements():
    sys = build_system(bosonic=(2, 1))
    L, _, _ = conformal_and_charge(sys)
    assert nth_product(L, L, 0) == derivative(L)
    assert nth_product(L, L, 1) == L.scale(QQ(2))
    assert nth_product(L, L, 2).is_zero()
    # central term c/2 with c = 2 per betagamma pair
    assert nth_product(L, L, 3) == vacuum(sys).scale(QQ(2))
    sysf = build_system(fermionic=(2, 1))
    _, LE, _ = conformal_and_charge(sysf)
    assert nth_product(LE, LE, 1) == LE.scale(QQ(2))
    assert nth_product(LE, LE, 3) == vacuum(sysf).scale(QQ(-2))


def test_sugawara_virasoro():
    sys = build_system(bosonic=(2, 1))
    F = theta(make_algebra("sl", 2), sys, side="left")
    rep = verify_affine(F, form="normalized")
    assert rep.level == -1
    L = sugawara(F, QQ(-1))
    assert nth_product(L, L, 1) == L.scale(QQ(2))
    # c = k dim / (k + h) = -3
    assert nth_product(L, L, 3) == vacuum(sys).scale(QQ(-3, 2))
    with pytest.raises(ValueError):
        sugawara(F, QQ(-2))  # critical level


def test_bc_labels_align_with_families():
    sys = build_system(fermionic=(2, 2))
    for which in ("D", "Dprime"):
        assert [lab for lab, _ in bc_family(sys, which)] == [
            f"{which}[1,1]", f"{which}[1,2]", f"{which}[2,2]"]
    sysm = build_system(bosonic=(2, 2), fermionic=(2, 1))
    for which, count in (("E", 2), ("Eprime", 2), ("F", 1), ("Fprime", 1)):
        assert len(bc_family(sysm, which)) == count
    assert [lab for lab, _ in bc_family(sysm, "Eprime")] == [
        "Eprime[1,1]", "Eprime[2,1]"]
    assert [lab for lab, _ in bc_family(sysm, "Fprime")] == ["Fprime[1,2]"]
    # each label names the copies its state pairs
    for which in ("D", "Dprime", "E", "Eprime", "F", "Fprime"):
        owner = sys if which.startswith("D") else sysm
        for lab, st in bc_family(owner, which):
            assert not st.is_zero()
            copies = {owner.generators[gi].copy for mono in st.terms
                      for gi, _ in mono}
            assert copies == set(split_label(lab)[1]), (lab, st)
    for bad in ("G", "psi_mixed"):
        with pytest.raises(ValueError):
            bc_family(sysm, bad)


def test_bc_psi_closes_as_gl_level_two():
    sys = build_system(fermionic=(2, 2))
    F = bc_family(sys, "psi")
    rep = verify_affine(F, form="trace")
    assert rep.ok and rep.level == 2


def test_mixed_psi_closes_as_glsuper_level_two():
    sys = build_system(bosonic=(2, 1), fermionic=(2, 1))
    F = mixed_psi_family(sys)
    assert F.algebra.kind == "glsuper"
    rep = verify_affine(F, form="trace")
    assert rep.ok and rep.level == 2


def test_component_monomials_counts():
    sys = build_system(bosonic=(1, 1))
    # weight 0, degree <= 3: powers of gamma(-1)
    assert len(component_monomials(sys, 0, 3)) == 4
    # weight 1, degree <= 2: beta(-1), gamma(-2)gamma(-1), gamma(-2),
    # beta(-1)gamma(-1), gamma(-2)gamma(-1) is deg 2 ... enumerate exactly
    monos = component_monomials(sys, 1, 2)
    assert all(not m or len(m) <= 2 for m in monos)
    from freefield.fock import mono_weight
    assert all(mono_weight(sys, m) == 1 for m in monos)
    # a total charge, or a charge per copy, cut inside the walk keeps the
    # monomials that filtering the uncut output by it keeps, in order
    sys = build_system(bosonic=(2, 2), fermionic=(1, 2))
    for w in range(4):
        full = component_monomials(sys, w, 3)
        for ch in range(-3, 4):
            assert component_monomials(sys, w, 3, ch) == [
                mo for mo in full if fock.mono_charge(sys, mo) == ch]
        for key in {constructions._copy_charge_key(sys, mo) for mo in full}:
            assert component_monomials(sys, w, 3, key) == [
                mo for mo in full
                if constructions._copy_charge_key(sys, mo) == key]


def test_state_invariant_basis_heisenberg_coset():
    sys = build_system(bosonic=(1, 1))
    F = theta(make_algebra("gl", 1), sys, side="right")
    # weight 0: only the vacuum; weight 1: nothing; weight 2: the single
    # coset field of the charge boson, which must itself pass the check
    dims = [state_invariant_basis(F, w, 4) for w in (0, 1, 2)]
    assert dims == [1, 0, 1]
    (w2,) = _unfiltered_state_invariants(F, 2, 4).values()
    ok, witness = commutant_check(State(sys, w2), F)
    assert ok, witness


def test_state_invariant_basis_trivial_for_full_gl_left():
    sys = build_system(bosonic=(2, 1))
    F = theta(make_algebra("gl", 2), sys, side="left")
    dims = [state_invariant_basis(F, w, 4) for w in (0, 1, 2)]
    assert dims == [1, 0, 0]


def test_state_invariant_basis_finds_determinant():
    sys = build_system(bosonic=(2, 2))
    F = theta(make_algebra("sl", 2), sys, side="left")
    D = det_family(sys, (1, 2), side="beta")
    kernel = _unfiltered_state_invariants(F, 2, 2)
    assert state_invariant_basis(F, 2, 2) == len(kernel) > 0
    ref = GaussJordan()
    for vec in kernel.values():
        ref.add(vec)
    # D lies in the span of the reference kernel: adding it does not
    # enlarge it
    assert not ref.add(dict(D.terms))
    ok, witness = commutant_check(D, F)
    assert ok, witness


def test_invariant_lift_search_finds_a_correction():
    # the beta determinant is invariant, so D + beta^1_1 beta^2_1 lifts
    # with the correction -beta^1_1 beta^2_1
    sys = build_system(bosonic=(2, 2))
    F = theta(make_algebra("sl", 2), sys, side="left")
    extra = wick([generator_state(sys, "beta", 1, 1),
                  generator_state(sys, "beta", 2, 1)])
    target = det_family(sys, (1, 2), side="beta").add(extra)
    modes = (0, 1, 2)
    rep = invariant_lift_search(F, target, maxdeg=2, modes=modes)
    correction = extra.scale(QQ(-1))
    assert rep == {"feasible": True, "rank": 3, "unknowns": 4,
                   "equations": 8, "correction": state_to_text(correction)}
    assert rep["correction"] == "-1 * g[b1,beta,1](-1) g[b2,beta,1](-1)"
    lifted = target.add(correction)
    for _, th in F.items():
        for nn in modes:
            assert nth_product(th, lifted, nn).is_zero(), nn


def _qq_lift_search(F, target, maxdeg, modes):
    """Reference for invariant_lift_search: its rows read as QQ from
    State.terms of every product, the right-hand side from the target's."""
    sys_ = F.sys
    w, ch, _ = gradings(target)
    cands = component_monomials(sys_, w, maxdeg, charge=ch)
    if F.side == "left":
        keys = {constructions._copy_charge_key(sys_, mo)
                for mo in target.terms}
        if len(keys) == 1:
            key = keys.pop()
            cands = [mo for mo in cands
                     if constructions._copy_charge_key(sys_, mo) == key]

    def products(v):
        for lab, th in F.items():
            for n in modes:
                for tm, tc in nth_product(th, v, n).terms.items():
                    yield (lab, n, tm), tc

    rows = {key: [{}, -c] for key, c in products(target)}
    for mo in cands:
        for key, c in products(State(sys_, {mo: QQ(1)})):
            rows.setdefault(key, [{}, QQ(0)])[0][mo] = c
    sol, rank = solve_affine([eq for eq, _ in rows.values()],
                             [b for _, b in rows.values()], cands)
    report = {"feasible": sol is not None, "rank": rank,
              "unknowns": len(cands), "equations": len(rows)}
    if sol is not None:
        report["correction"] = state_to_text(
            State(sys_, {mo: c for mo, c in sol.items() if c}))
    return report


def _halved(F):
    return CurrentFamily(F.algebra, F.sys, [th.scale(QQ(1, 2))
                                            for th in F.states],
                         F.side, F.name)


def _lift_cases():
    """(family, target, maxdeg) with den > 1 in every current and in some
    targets: a feasible sl2 lift and the infeasible so4 counterexample."""
    sys_ = build_system(bosonic=(2, 2))
    F = _halved(theta(make_algebra("sl", 2), sys_, side="left"))
    det = det_family(sys_, (1, 2), side="beta")
    extra = wick([generator_state(sys_, "beta", 1, 1),
                  generator_state(sys_, "beta", 2, 1)])
    so4 = build_system(bosonic=(4, 2))
    return [(F, det.add(extra), 2),
            (F, det.scale(QQ(2, 3)).add(extra, QQ(1, 3)), 2),
            (_halved(theta(make_algebra("so", 4), so4, side="left")),
             mixed_det(so4), 3)]


def test_invariant_lift_search_integer_rows_match_qq_rows():
    # each row is scaled by its current's den and the right-hand side is
    # read over the target's den; the report is that of the QQ rows
    for F, target, maxdeg in _lift_cases():
        assert all(th.integral()[1] > 1 for th in F.states)
        want = _qq_lift_search(F, target, maxdeg, (0, 1, 2))
        assert invariant_lift_search(F, target, maxdeg, (0, 1, 2)) == want
    feasible = [invariant_lift_search(F, t, d, (0, 1, 2))
                for F, t, d in _lift_cases()]
    assert [r["feasible"] for r in feasible] == [True, True, False]
    assert feasible[1]["correction"] == (
        "-1/3 * g[b1,beta,1](-1) g[b2,beta,1](-1)")


def test_state_side_solvers_read_no_state_terms(monkeypatch):
    # state_invariant_basis and invariant_lift_search run on integer
    # forms; only the text of a found correction reads rationals
    cases = _lift_cases()
    F = cases[0][0]
    dims = [state_invariant_basis(F, w, 3) for w in (0, 1, 2)]
    reads, in_text = [], [False]
    real_terms, real_text = State.terms, constructions.state_to_text

    def terms(self):
        if not in_text[0]:
            reads.append(self)
        return real_terms.fget(self)

    def text(a):
        in_text[0] = True
        try:
            return real_text(a)
        finally:
            in_text[0] = False

    monkeypatch.setattr(State, "terms", property(terms))
    monkeypatch.setattr(constructions, "state_to_text", text)
    F = _lift_cases()[0][0]  # a fresh system, its product cache empty
    assert [state_invariant_basis(F, w, 3) for w in (0, 1, 2)] == dims
    assert dims[0] > 1
    reports = [invariant_lift_search(F, t, d, (0, 1, 2)) for F, t, d in cases]
    assert "correction" in reports[0] and not reports[2]["feasible"]
    assert reads == []


def _unfiltered_state_blocks(F, weight, maxdeg):
    """Reference for state_invariant_basis: every column of the component,
    on a left family in blocks keyed by the nonzero charge of each
    (parity, copy) slot of the generators, every product written as
    equations, eliminated by the reference elimination.  Returns
    {block key: {free monomial: its canonical kernel vector}} for the
    blocks with a kernel, in key order; a right family has one block, ()."""
    sys_ = F.sys

    def key_of(mono):
        counts = {}
        for gi, _ in mono:
            g = sys_.generators[gi]
            slot = (g.parity, g.copy)
            counts[slot] = counts.get(slot, 0) + g.charge
        return tuple(sorted((s, c) for s, c in counts.items() if c))

    blocks = {}
    for mo in component_monomials(sys_, weight, maxdeg):
        blocks.setdefault(key_of(mo) if F.side == "left" else (),
                          []).append(mo)
    out = {}
    for key in sorted(blocks):
        rows = {}
        for mo in blocks[key]:
            v = State(sys_, {mo: QQ(1)})
            for lab, th in F.items():
                for nn in range(gradings(th)[0] + weight):
                    for tm, tc in nth_product(th, v, nn).terms.items():
                        rows.setdefault((lab, nn, tm), {})[mo] = tc
        kernel = reference_nullspace(rows.values(), blocks[key])
        if kernel:
            out[key] = kernel
    return out


def _unfiltered_state_invariants(F, weight, maxdeg):
    """{free monomial: its canonical kernel vector} over every block of
    `_unfiltered_state_blocks`."""
    return {mo: vec for kernel in _unfiltered_state_blocks(
        F, weight, maxdeg).values() for mo, vec in kernel.items()}


def _generator_torus(F, weight):
    """The state-side torus by the rule of the generator fields: the label
    indices i whose th_i o_0 maps every generator field g(-1) to a
    multiple of itself, and per creation mode of weight <= weight the
    weight vector of its generator's g(-1) under them."""
    sys_ = F.sys
    atoms = [((g.index, -1),) for g in sys_.generators]
    diag, weights = torus_weights(
        range(len(F.states)), atoms,
        lambda i, a: nth_product(F.states[i], State(sys_, {a: QQ(1)}), 0).terms)
    return diag, {(g.index, -1 - depth): weights[((g.index, -1),)]
                  for g in sys_.generators
                  for depth in range(weight - g.weight + 1)}


_STATE_CASES = [
    pytest.param("gl", 2, {"bosonic": (2, 1)}, "left", 4, id="gl2-left"),
    pytest.param("gl", 3, {"bosonic": (3, 1)}, "left", 3, id="gl3-left"),
    pytest.param("sl", 2, {"bosonic": (2, 1), "fermionic": (2, 1)}, "left",
                 3, id="sl2-left-mixed"),
    pytest.param("sp", 4, {"bosonic": (4, 1)}, "left", 2, id="sp4-left"),
    pytest.param("gl", 2, {"fermionic": (2, 2)}, "right", 3,
                 id="gl2-right-bc"),
]


@pytest.mark.parametrize("kind, n, system, side, maxdeg", _STATE_CASES)
def test_state_invariant_basis_matches_unfiltered_columns(
        kind, n, system, side, maxdeg, monkeypatch):
    # the dimension is the reference's, and so is that of each block the
    # driver solves (a block the reference does not list has none)
    F = theta(make_algebra(kind, n), build_system(**system), side=side)
    assert _generator_torus(F, 0)[0]
    solved, invariant_orbits = [], constructions.invariant_orbits

    def spy(*args):
        out = invariant_orbits(*args)
        solved.append(out)
        return out

    monkeypatch.setattr(constructions, "invariant_orbits", spy)
    dims = []
    for weight in range(4):
        blocks = _unfiltered_state_blocks(F, weight, maxdeg)
        expected = _unfiltered_state_invariants(F, weight, maxdeg)
        assert state_invariant_basis(F, weight, maxdeg) == len(expected), (
            weight)
        assert {key: dim for key, dim in solved[-1] if dim} == {
            key: len(kernel) for key, kernel in blocks.items()}, weight
        # every reference kernel vector is killed by every product
        for vec in expected.values():
            v = State(F.sys, vec)
            for _, th in F.items():
                for nn in range(gradings(th)[0] + weight):
                    assert not nth_product(th, v, nn).terms, (weight, nn)
        dims.append(len(expected))
    # the full gl commutants are trivial (Thm 4.3); the others are not
    assert (sum(dims) == 1) == (kind == "gl" and side == "left"), dims


@pytest.mark.parametrize("kind, n, system, side, maxdeg", _STATE_CASES)
def test_state_torus_extends_the_generator_torus(kind, n, system, side,
                                                 maxdeg, monkeypatch):
    # the solver reads the torus off every creation mode; th o_0 commutes
    # with the translation T, so that is the torus of the generator
    # fields g(-1), extended to every mode of the same generator
    F = theta(make_algebra(kind, n), build_system(**system), side=side)
    seen = []

    def spy(sys_, weight, maxdeg, charge=None, torus=None):
        seen.append(torus)
        return component_monomials(sys_, weight, maxdeg, charge, torus)

    monkeypatch.setattr(constructions, "component_monomials", spy)
    for weight in range(4):
        seen.clear()
        state_invariant_basis(F, weight, maxdeg)
        assert seen == [_generator_torus(F, weight)[1]], weight


def test_state_resource_cap_bounds_the_full_component():
    # the cap is checked against the whole component, not the torus-weight-0
    # columns that are solved
    F = theta(make_algebra("gl", 2), build_system(bosonic=(2, 1)), "left")
    full = len(component_monomials(F.sys, 2, 4))
    kept = len(component_monomials(F.sys, 2, 4,
                                   torus=_generator_torus(F, 2)[1]))
    assert kept < full
    cap = (kept + full) // 2
    with pytest.raises(ResourceCapError) as err:
        state_invariant_basis(F, 2, 4, cap=cap)
    assert err.value.size == full and err.value.cap == cap
    assert str(err.value) == (
        f"component size {full} exceeds the configured cap {cap}")


def _sl2_moved(sys_):
    """The left sl2 currents of sys_ moved by the automorphism Ad(g),
    g = [[1, 1], [0, 1]]: x -> x, y -> y + h - x, h -> h - 2x.  The
    closure check holds, but th^h o_0 is not diagonal on the modes."""
    F = theta(make_algebra("sl", 2), sys_, "left")
    moved = ["x", {"y": 1, "h": 1, "x": -1}, {"h": 1, "x": -2}]
    return CurrentFamily(F.algebra, sys_, [F.current(x) for x in moved],
                         "left", "theta_moved")


def _sl2_one_doubled(sys_):
    """The left sl2 currents of sys_ with th^x doubled, which keeps every
    kernel and fails the closure check: 2 th^x o_0 th^y = 2 th^h."""
    F = theta(make_algebra("sl", 2), sys_, "left")
    return CurrentFamily(F.algebra, sys_,
                         [F.states[0].scale(2), *F.states[1:]], "left",
                         "theta_doubled")


def _sl2_left(**system):
    return theta(make_algebra("sl", 2), build_system(**system), "left")


_STATE_DIMS_CASES = [
    pytest.param(lambda: _sl2_left(bosonic=(2, 2)), "cut", id="sl2-b22"),
    pytest.param(lambda: _sl2_left(fermionic=(2, 2)), "cut", id="sl2-f22"),
    pytest.param(lambda: _sl2_left(bosonic=(2, 1), fermionic=(2, 2)), "cut",
                 id="sl2-b21-f22"),
    pytest.param(lambda: theta(make_algebra("so", 3),
                               build_system(bosonic=(3, 2)), "left"),
                 "cut", id="so3-b32"),
    pytest.param(lambda: theta(make_algebra("so_split", 3),
                               build_system(bosonic=(3, 2)), "left"),
                 "cut", id="so_split3-b32"),
    pytest.param(lambda: theta(make_algebra("sl", 3),
                               build_system(bosonic=(3, 2)), "left"),
                 "cut", id="sl3-b32"),
    pytest.param(lambda: theta(make_algebra("sp", 4),
                               build_system(bosonic=(4, 1)), "left"),
                 "cut", id="sp4-b41"),
    pytest.param(lambda: theta(make_algebra("gl", 3),
                               build_system(bosonic=(2, 3)), "right"),
                 "cut", id="gl3-right-b23"),
    pytest.param(lambda: theta(make_algebra("gl", 2),
                               build_system(fermionic=(2, 2)), "right"),
                 "cut", id="gl2-right-f22"),
    pytest.param(lambda: bc_family(build_system(fermionic=(2, 2)), "psi"),
                 "cut", id="bc-psi-f22"),
    pytest.param(lambda: mixed_psi_family(
        build_system(bosonic=(2, 1), fermionic=(2, 1))), "cut",
        id="mixed-psi-b21-f21"),
    # weights 0, 1 and 2
    pytest.param(lambda: quad_family(make_algebra("so", 3),
                                     build_system(bosonic=(3, 1))),
                 "every", id="quad-so3-b31"),
    pytest.param(lambda: _sl2_one_doubled(build_system(bosonic=(2, 2))),
                 "every", id="sl2-doubled-b22"),
    pytest.param(lambda: _sl2_moved(build_system(bosonic=(2, 2))), "uncut",
                 id="sl2-moved-b22"),
]


@pytest.mark.parametrize("family, path", _STATE_DIMS_CASES)
def test_state_dims_match_every_mode(family, path, monkeypatch):
    # state_dims gives the dimensions of every (current, mode), on the
    # generating set, cut to simple root vectors ("cut") or not ("uncut"),
    # or on every mode ("every") where the closure check fails
    F = family()
    every = [state_invariant_basis(F, w, 4) for w in range(4)]
    seen, invariant_orbits = [], constructions.invariant_orbits

    def spy(atoms, monomials, torus_ops, ops, image, block_key):
        if callable(ops):
            chosen = ops

            def ops(diag):
                seen.append(chosen(diag))
                return seen[-1]
        else:
            seen.append(None)
        return invariant_orbits(atoms, monomials, torus_ops, ops, image,
                                block_key)

    monkeypatch.setattr(constructions, "invariant_orbits", spy)
    assert state_dims(F, 3, 4) == every
    A = F.algebra
    pairs = {"cut": root_cut(A, current_generators(A, 3)),
             "uncut": current_generators(A, 3), "every": None}[path]
    assert seen == [None if pairs is None else
                    [p for p in pairs if p[1] <= w] for w in range(4)]


# currents of every kind the state side solves: theta left on bosonic,
# fermionic and mixed systems, theta right on bosonic and fermionic ones,
# and the quadratic pairing families of so and sp, whose currents have
# weights 0, 1 and 2 (for sp its s, d and one off-diagonal h current)
_MODE_FAMILIES = {
    "left_bosonic": lambda: theta(
        make_algebra("gl", 2), build_system(bosonic=(2, 1)), "left").states,
    "left_fermionic": lambda: theta(
        make_algebra("gl", 2), build_system(fermionic=(2, 1)), "left").states,
    "left_mixed": lambda: theta(make_algebra("sl", 2), build_system(
        bosonic=(2, 1), fermionic=(2, 1)), "left").states,
    "right_bosonic": lambda: theta(
        make_algebra("gl", 2), build_system(bosonic=(1, 2)), "right").states,
    "right_fermionic": lambda: theta(
        make_algebra("gl", 2), build_system(fermionic=(1, 2)), "right").states,
    "quad_so": lambda: quad_family(
        make_algebra("so", 3), build_system(bosonic=(3, 1))).states,
    "quad_sp": lambda: [quad_family(
        make_algebra("sp", 4), build_system(bosonic=(4, 2))).states[i]
        for i in (0, 1, 3)],
}


@pytest.mark.parametrize("family", sorted(_MODE_FAMILIES))
def test_current_mode_matches_nth_product(family):
    # the derivation and pair-contraction tables give th o_n of the unit
    # state of every monomial of every component up to W3 D3, for n =
    # 0..w+1, as the Wick recursion does
    states = _MODE_FAMILIES[family]()
    if family.startswith("quad"):
        assert {gradings(th)[0] for th in states} == {0, 1, 2}
    for th in states:
        for w in range(4):
            monos = component_monomials(th.sys, w, 3)
            for n in range(w + 2):
                mode = current_mode(th, n)
                for mo in monos:
                    unit = State(th.sys, integral=({mo: 1}, 1))
                    assert mode(mo) == nth_product(
                        th, unit, n).integral()[0], (family, n, mo)


def test_current_mode_takes_nth_product_off_even_quadratic_currents(
        monkeypatch):
    # a cubic state, an odd current or a mode n < 0 reads no table: each
    # image is nth_product on the unit state of the whole monomial.  An
    # even quadratic current at n >= 0 calls it on one- and two-mode
    # states only
    sys_ = build_system(bosonic=(2, 1), fermionic=(2, 1))
    quadratic = theta(make_algebra("gl", 2), sys_, "left").states[0]
    cubic = wick([generator_state(sys_, "beta", 1, 1),
                  generator_state(sys_, "gamma", 1, 1),
                  generator_state(sys_, "gamma", 1, 2)])
    odd = next(th for th in mixed_psi_family(sys_).states if parity_of(th))
    monos = [mo for mo in component_monomials(sys_, 2, 3) if len(mo) == 3]
    real = fock.nth_product
    seen = []

    def spy(a, b, n):
        seen.extend(b.integral()[0])
        return real(a, b, n)

    monkeypatch.setattr(fock, "nth_product", spy)
    for th, n, whole in [(cubic, 1, True), (odd, 0, True),
                         (quadratic, -1, True), (quadratic, 1, False)]:
        seen.clear()
        mode = current_mode(th, n)
        for mo in monos:
            unit = State(sys_, integral=({mo: 1}, 1))
            assert mode(mo) == real(th, unit, n).integral()[0]
        if whole:
            assert seen == monos
        else:
            assert seen and all(len(mo) <= 2 for mo in seen)


def test_invariant_lift_search_keeps_every_mode():
    # its report counts the rows of every listed mode of every current,
    # more than a generating set of g[t] would write
    sys_ = build_system(bosonic=(2, 2))
    F = theta(make_algebra("gl", 2), sys_, "right")
    target = det_family(sys_, (1, 2), side="beta")
    w, ch, _ = gradings(target)
    modes = (0, 1, 2)
    units = [State(sys_, {mo: QQ(1)})
             for mo in component_monomials(sys_, w, 2, charge=ch)]

    def rows(pairs):
        return {(i, n, tm) for v in [target, *units] for i, n in pairs
                for tm in nth_product(F.states[i], v, n).terms}

    every = rows([(i, n) for i in range(len(F.states)) for n in modes])
    cut = rows(root_cut(F.algebra, current_generators(F.algebra, 2)))
    rep = invariant_lift_search(F, target, 2, modes)
    assert rep["equations"] == len(every) > len(cut)


def test_torus_guards_under_optimize():
    # a torus helper that hands out zero atom weights lets columns of
    # nonzero torus weight through; the torus weight guard, which reads
    # the eigenvalues of the h t^0 and the o_0 themselves, must stop both
    # solvers, also when -O strips asserts.  Then, with the torus
    # back, a block key that puts every monomial in a block of its own
    # must trip the state side's block split guard, and one that also
    # keys by coordinate the jet side's
    code = (
        "from freefield import constructions, diffalg, liealg\n"
        "def zero_weights(indices, atoms, image):\n"
        "    diag, weights = liealg.torus_weights(indices, atoms, image)\n"
        "    return diag, {a: (0,) * len(diag) for a in weights}\n"
        "diffalg.torus_weights = zero_weights\n"
        "A = liealg.make_algebra('sl', 2)\n"
        "space = diffalg.VarSpace([diffalg.FamilyDecl('x', 2, 2, 0, 0, 'rep')])\n"
        "sys_ = constructions.build_system(bosonic=(2, 2))\n"
        "F = constructions.theta(A, sys_, side='left')\n"
        "def split():\n"
        "    diffalg.torus_weights = liealg.torus_weights\n"
        "    constructions._copy_charge_key = lambda sys, mono: mono\n"
        "    constructions.state_invariant_basis(F, 1, 2)\n"
        "def jet_split():\n"
        "    diffalg.torus_weights = liealg.torus_weights\n"
        "    # the jet side keys int codes, each the index of its variable\n"
        "    vs = space.variables(0)\n"
        "    diffalg._block_key = lambda mono, run: tuple(sorted(\n"
        "        (vs[v].family, vs[v].copy, vs[v].coord) for v in mono))\n"
        "    diffalg.invariant_basis(space, A, 0, 2)\n"
        "for solve in (lambda: diffalg.invariant_basis(space, A, 0, 2),\n"
        "              lambda: constructions.state_invariant_basis(F, 1, 2),\n"
        "              split, jet_split):\n"
        "    try:\n"
        "        solve()\n"
        "    except RuntimeError as e:\n"
        "        print('guarded:', e)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    assert all(ln.startswith("guarded: torus weight of") for ln in lines[:2])
    assert lines[2:] == ["guarded: block split violated"] * 2, proc.stdout


def test_sec4_identity_report():
    rep = sec4_identity(build_system(bosonic=(2, 2)))
    assert rep["holds"] and not rep["printed_form_holds"]
    assert rep["normal_degree"] == 4 and rep["zeroth_degree"] <= 2
    assert rep["escapes_lower_filtration"]


# -- the builders against Wick products of generator states ----------------
# Each reference multiplies generator states through the circle-product
# engine (`wick`), a path to the same monomials that shares no code with
# `generator_polynomial` beyond the sorted monomial format.


def _pair(sys_, f1, j1, i1, f2, j2, i2):
    return wick([generator_state(sys_, f1, j1, i1),
                 generator_state(sys_, f2, j2, i2)])


def _reference_theta(A, sys_, side):
    states = []
    for M in A.rep:
        total = zero(sys_)
        if side == "left":
            for shape, odd in ((sys_.bosonic, False), (sys_.fermionic, True)):
                for j in range(1, shape[1] + 1 if shape else 1):
                    for (ip, i), c in M.items():
                        if odd:
                            term = _pair(sys_, "b", j, ip + 1, "c", j, i + 1)
                        else:
                            term = _pair(sys_, "gamma", j, i + 1,
                                         "beta", j, ip + 1)
                        total = total.add(term.scale(c if odd else -c))
        else:
            n = (sys_.bosonic or sys_.fermionic)[0]
            lo, hi = ("gamma", "beta") if sys_.bosonic else ("b", "c")
            for (a, ap), c in M.items():
                for i in range(1, n + 1):
                    total = total.add(
                        _pair(sys_, lo, a + 1, i, hi, ap + 1, i).scale(c))
        states.append(total)
    return states


def _reference_quad(group, sys_):
    n, m = sys_.bosonic
    states = []
    if group.kind == "so":
        for lab in sp_any(m).labels:
            kind, (j, k) = split_label(lab)
            fj, fk = {"m": ("gamma", "gamma"), "d": ("beta", "beta")}.get(
                kind, ("gamma", "beta"))
            total = zero(sys_)
            for c in range(1, n + 1):
                total = total.add(_pair(sys_, fj, j, c, fk, k, c))
            states.append(total)
        return states
    half = n // 2
    for lab in make_algebra("so_split", 2 * m).labels:
        kind, (j, k) = split_label(lab)
        total = zero(sys_)
        if kind in ("s", "d"):
            fam = "gamma" if kind == "s" else "beta"
            for c in range(1, half + 1):
                total = total.add(_pair(sys_, fam, j, c, fam, k, c + half))
                total = total.sub(_pair(sys_, fam, j, c + half, fam, k, c))
        else:
            for c in range(1, n + 1):
                total = total.add(_pair(sys_, "gamma", j, c, "beta", k, c))
        states.append(total)
    return states


def _reference_bc(sys_, which):
    if which == "psi":
        n, m = sys_.fermionic
        states = []
        for lab in make_algebra("gl", m).labels:
            _, (i, j) = split_label(lab)
            total = zero(sys_)
            for a in range(1, n + 1):
                total = total.add(_pair(sys_, "b", i, a, "c", j, a))
            states.append(total)
        return states
    if which in ("D", "Dprime"):
        fam = "b" if which == "D" else "c"
        m = sys_.fermionic[1]
        return [_pair(sys_, fam, k, 1, fam, l, 2).add(
                    _pair(sys_, fam, l, 1, fam, k, 2))
                for k in range(1, m + 1) for l in range(k, m + 1)]
    if which in ("E", "Eprime"):
        bos, fer = ("beta", "b") if which == "E" else ("gamma", "c")
        return [_pair(sys_, bos, i, 1, fer, k, 2).sub(
                    _pair(sys_, bos, i, 2, fer, k, 1))
                for i in range(1, sys_.bosonic[1] + 1)
                for k in range(1, sys_.fermionic[1] + 1)]
    fam = "beta" if which == "F" else "gamma"
    s = sys_.bosonic[1]
    return [_pair(sys_, fam, i, 1, fam, j, 2).sub(
                _pair(sys_, fam, j, 1, fam, i, 2))
            for i in range(1, s + 1) for j in range(i + 1, s + 1)]


def _reference_mixed_psi(sys_):
    n, s = sys_.bosonic
    r = sys_.fermionic[1]
    states = []
    for lab in make_algebra("glsuper", r, s).labels:
        _, (Ai, Bi) = split_label(lab)
        total = zero(sys_)
        for a in range(1, n + 1):
            if Ai <= r and Bi <= r:
                t = _pair(sys_, "b", Ai, a, "c", Bi, a)
            elif Ai > r and Bi > r:
                t = _pair(sys_, "beta", Ai - r, a, "gamma", Bi - r, a).scale(-1)
            elif Ai <= r:
                t = _pair(sys_, "b", Ai, a, "gamma", Bi - r, a)
            else:
                t = _pair(sys_, "beta", Ai - r, a, "c", Bi, a).scale(-1)
            total = total.add(t)
        states.append(total)
    return states


def _reference_det(sys_, entries):
    n = len(entries)
    total = zero(sys_)
    for perm in permutations(range(n)):
        factors = [generator_state(sys_, *entries[perm[c]][c])
                   for c in range(n)]
        total = total.add(wick(factors).scale(QQ(perm_sign(perm))))
    return total


@pytest.mark.parametrize("kind, rank, shape, side", [
    ("sl", 2, {"bosonic": (2, 2)}, "left"),
    ("gl", 3, {"fermionic": (3, 2)}, "left"),
    ("sp", 4, {"bosonic": (4, 1), "fermionic": (4, 2)}, "left"),
    ("glsuper", (1, 1), {"bosonic": (2, 1), "fermionic": (2, 1)}, "left"),
    ("gl", 2, {"bosonic": (3, 2)}, "right"),
    ("sl", 3, {"fermionic": (2, 3)}, "right"),
])
def test_theta_matches_wick_reference(kind, rank, shape, side):
    A = make_algebra(kind, *rank) if isinstance(rank, tuple) \
        else make_algebra(kind, rank)
    sys_ = build_system(**shape)
    F = theta(A, sys_, side=side)
    assert list(F.states) == _reference_theta(A, sys_, side)
    assert any(not st.is_zero() for st in F.states)


@pytest.mark.parametrize("kind, rank, shape", [
    ("so", 3, (3, 2)), ("so", 4, (4, 3)), ("sp", 4, (4, 2)), ("sp", 6, (6, 1))])
def test_quad_family_matches_wick_reference(kind, rank, shape):
    group = make_algebra(kind, rank)
    sys_ = build_system(bosonic=shape)
    assert list(quad_family(group, sys_).states) == _reference_quad(group, sys_)


@pytest.mark.parametrize("which, shape", [
    ("psi", {"fermionic": (2, 3)}),
    ("psi", {"bosonic": (2, 1), "fermionic": (3, 2)}),
    ("D", {"fermionic": (2, 3)}),
    ("Dprime", {"fermionic": (2, 3)}),
    ("E", {"bosonic": (2, 2), "fermionic": (2, 2)}),
    ("Eprime", {"bosonic": (2, 2), "fermionic": (2, 2)}),
    ("F", {"bosonic": (2, 3)}),
    ("Fprime", {"bosonic": (2, 3), "fermionic": (2, 1)}),
])
def test_bc_family_matches_wick_reference(which, shape):
    sys_ = build_system(**shape)
    got = bc_family(sys_, which)
    states = list(got.states) if which == "psi" else [st for _, st in got]
    assert states == _reference_bc(sys_, which)
    assert states and all(not st.is_zero() for st in states)


@pytest.mark.parametrize("shape", [((2, 1), (2, 1)), ((2, 1), (2, 2)),
                                   ((3, 2), (3, 1))])
def test_mixed_psi_family_matches_wick_reference(shape):
    bos, fer = shape
    sys_ = build_system(bosonic=bos, fermionic=fer)
    assert list(mixed_psi_family(sys_).states) == _reference_mixed_psi(sys_)


@pytest.mark.parametrize("shape, J, side, axis", [
    ((2, 2), (1, 2), "beta", "copies"),
    ((3, 3), (3, 1, 2), "gamma", "copies"),
    ((3, 2), (2, 3), "beta", "coords"),
    ((2, 3), (3, 1), "gamma", "copies"),
    ((4, 3), (4, 1, 3), "gamma", "coords"),
])
def test_det_family_matches_wick_reference(shape, J, side, axis):
    sys_ = build_system(bosonic=shape)
    k = len(J)
    if axis == "copies":
        entries = [[(side, J[c], r + 1) for c in range(k)] for r in range(k)]
    else:
        entries = [[(side, c + 1, J[r]) for c in range(k)] for r in range(k)]
    D = det_family(sys_, J, side=side, axis=axis)
    assert D == _reference_det(sys_, entries) and not D.is_zero()


@pytest.mark.parametrize("m", [1, 2])
def test_mixed_det_matches_wick_reference(m):
    sys_ = build_system(bosonic=(2 * m, m))
    cols = [(fam, j) for j in range(1, m + 1) for fam in ("gamma", "beta")]
    entries = [[(fam, j, r + 1) for fam, j in cols] for r in range(2 * m)]
    M = mixed_det(sys_)
    assert M == _reference_det(sys_, entries) and not M.is_zero()

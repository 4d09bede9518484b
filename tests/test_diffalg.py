import collections
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from conftest import generator_state
from reference_elimination import reference_nullspace

from freefield import diffalg
from freefield.constructions import (build_system, det_family, symbol_generators,
                                     theta)
from freefield.diffalg import (
    FamilyDecl, JetImages, ResourceCapError, VarSpace, _block_key, _parity,
    coding, _copy_orbits, _orbit_size, _products,
    abstract_var, apply_D, bidegree_dims, diff_add,
    diff_bidegree, diff_mul, diff_sub, diff_to_text, enumerate_component,
    _var_images, generated_span, graded_multisets, invariant_basis,
    invariant_orbits, jet_var, lie_jet_action,
    monomial_counts, monomial_from_factors, plain_quadrics, quantum_correct,
    symbol, symbol_var, varspace_for_system, wick_expand,
)
from freefield.fock import gradings, monomial_state, nth_product
from freefield.liealg import (LieAlgebraSpec, current_generators, make_algebra,
                              simple_root_vectors, torus_weights)
from freefield.linalg import Echelon, axpy, derive, koszul_sort
from freefield.rationals import QQ


def test_odd_variables_anticommute():
    t1 = jet_var("t", 1, 1, 0, parity=1)
    t2 = jet_var("t", 1, 2, 0, parity=1)
    p = monomial_from_factors([t1])
    q = monomial_from_factors([t2])
    assert diff_mul(p, q) == diff_sub({}, diff_mul(q, p))
    assert not diff_mul(p, p)
    # engine symbol families are reserved
    with pytest.raises(ValueError):
        jet_var("b", 1, 1, 0, parity=1)


def test_apply_D_leibniz_and_weight():
    x = monomial_from_factors([jet_var("x", 1, 1, 0)])
    y = monomial_from_factors([jet_var("x", 2, 1, 0)])
    lhs = apply_D(diff_mul(x, y))
    rhs = diff_add(diff_mul(apply_D(x), y), diff_mul(x, apply_D(y)))
    assert lhs == rhs
    w0, d0 = diff_bidegree(diff_mul(x, y))
    w1, d1 = diff_bidegree(lhs)
    assert (w1, d1) == (w0 + 1, d0)
    # a repeated factor: D(x^3) = 3 x^2 Dx
    cube = diff_mul(x, diff_mul(x, x))
    assert apply_D(cube) == {k: 3 * c for k, c in diff_mul(
        diff_mul(x, x), apply_D(x)).items()}


def _reference_D(p):
    """D factor by factor: each factor of each monomial raised in its
    place, and the product re-sorted with its Koszul sign."""
    out: dict = {}
    for mono, c in p.items():
        for k, v in enumerate(mono):
            axpy(out, monomial_from_factors(
                [*mono[:k], v._replace(order=v.order + 1), *mono[k + 1:]], c))
    return out


def test_apply_D_on_odd_and_mixed_monomials():
    t = [jet_var("t", c, i, o, parity=1)
         for c in (1, 2) for i in (1, 2) for o in (0, 1, 2)]
    x = [jet_var("x", c, 1, o) for c in (1, 2) for o in (0, 1)]
    # D(t^(0) t^(1)) = t^(0) t^(2): the other term repeats t^(1)
    assert apply_D(monomial_from_factors([t[0], t[1]])) == (
        monomial_from_factors([t[0], t[2]]))
    rng = random.Random(11)
    for pool in (t, t + x):
        for _ in range(150):
            p: dict = {}
            for _ in range(rng.randrange(1, 4)):
                factors = [rng.choice(pool) for _ in range(rng.randrange(1, 6))]
                axpy(p, monomial_from_factors(
                    factors, rng.choice([1, -2, QQ(3, 5)])))
            assert apply_D(p) == _reference_D(p), p
            # int coefficients stay int
            ints = {m: 2 * c for m, c in p.items() if c.denominator == 1}
            assert all(type(c) is int for c in apply_D(
                {m: int(c) for m, c in ints.items()}).values())


def test_lie_jet_action_matches_engine_symbol():
    sys = build_system(bosonic=(2, 1))
    A = make_algebra("sl", 2)
    F = theta(A, sys, side="left")
    space = varspace_for_system(sys)
    v = monomial_state(sys, [(sys.gen("beta", 1, 1).index, -2),
                             (sys.gen("gamma", 1, 2).index, -1)])
    _, _, dv = gradings(v)
    sv = symbol(v, dv)
    for idx in range(A.dim):
        for r in (0, 1, 2):
            lhs = symbol(nth_product(F.states[idx], v, r), dv)
            rhs = lie_jet_action(JetImages(space.action_for(A, idx), r), sv)
            assert lhs == rhs, (idx, r)


@pytest.mark.parametrize("shape", [
    {"bosonic": (2, 2)}, {"fermionic": (2, 2)},
    {"bosonic": (2, 1), "fermionic": (2, 1)}],
    ids=["bosonic", "fermionic", "mixed"])
def test_lie_jet_action_on_int_codes_matches_variables(shape):
    # the matrices are ints; coded tables with a parity list, decoded, give
    # the DV result
    space = varspace_for_system(build_system(**shape))
    A = make_algebra("sl", 2)
    variables = space.variables(3)
    code, parity, _ = coding(variables)
    rng = random.Random(5)
    polys = []
    for _ in range(12):
        p: dict = {}
        for _ in range(3):
            factors = rng.sample(variables, rng.randrange(1, 4))
            axpy(p, monomial_from_factors(factors, QQ(rng.randrange(1, 9), 3)))
        polys.append(p)
    for idx in range(A.dim):
        mats = space.action_for(A, idx)
        assert all(type(x) is int for M in mats.values()
                   for entries in M.values() for _, x in entries)
        for r in (0, 1, 2):
            coded = JetImages(mats, r, code)
            for p in polys:
                want = lie_jet_action(JetImages(mats, r), p)
                cp = {tuple(map(code.__getitem__, m)): c for m, c in p.items()}
                got = lie_jet_action(coded, cp, parity)
                assert {tuple(variables[i] for i in m): c
                        for m, c in got.items()} == want, (idx, r)


def test_invariant_basis_plain_sl2_minors():
    # four copies of the sl2-defining rep: weight-0 invariants are spanned
    # by the six 2x2 minors
    space = VarSpace([FamilyDecl("x", 4, 2, 0, 0, "rep")])
    A = make_algebra("sl", 2)
    inv0 = invariant_basis(space, A, 0, 2)
    # one orbit of six blocks, each with one minor; the squares of copies
    # have no invariant
    assert inv0 == [(0, 1, 1), (2, 6, 1), (2, 4, 0)]


def _brute_sort(factors):
    """A factor list sorted by brute force, with the sign (-1)^(inverted
    pairs of odd factors); (None, 0) when an odd factor repeats."""
    odd = [v for v in factors if v.parity]
    if len(set(odd)) < len(odd):
        return None, 0
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return tuple(sorted(factors)), (-1) ** inversions


def _reference_diff_mul(p, q):
    """Reference for diff_mul: sort every concatenated factor list by
    `_brute_sort`, and drop it when an odd factor repeats."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono, sign = _brute_sort(m1 + m2)
            if sign:
                axpy(out, {mono: c1 * c2 * sign})
    return out


@pytest.mark.parametrize("rational", [False, True])
def test_diff_mul_matches_reference(rational):
    # few odd variables, so products often share an odd factor; several
    # families and copies, so odd factors cross in every order
    space = VarSpace([FamilyDecl("x", 2, 2, 0, 0, "rep"),
                      FamilyDecl("c", 2, 2, 1, 0, "dual"),
                      FamilyDecl("f", 1, 2, 1, 1, "rep")])
    variables = space.variables(1)
    rng = random.Random(f"diff_mul-{rational}")
    coeffs = ([QQ(-3, 2), QQ(1, 3), QQ(2), QQ(-1)] if rational
              else [-3, -1, 1, 2, 5])

    def random_poly():
        p: dict = {}
        for _ in range(rng.randint(0, 5)):
            factors = rng.choices(variables, k=rng.randint(0, 4))
            for mono, sign in monomial_from_factors(factors).items():
                axpy(p, {mono: int(sign) * rng.choice(coeffs)})
        return p

    shared = 0
    for _ in range(300):
        p, q = random_poly(), random_poly()
        got = diff_mul(p, q)
        assert got == _reference_diff_mul(p, q), (diff_to_text(p),
                                                  diff_to_text(q))
        # integer inputs stay integer
        assert all(type(c) is (QQ if rational else int) for c in got.values())
        shared += any(v.parity and v in m2 for m1 in p for m2 in q for v in m1)
    assert shared > 50


def _dense(mats, n):
    """Dense n x n copies of a table of sparse matrices indexed by column,
    {col: [(row, QQ), ...]}, with integral entries as ints, which keeps
    products with them cheap."""
    def entry(v):
        return int(v) if v == int(v) else v
    out = {}
    for fam, M in mats.items():
        dense = out[fam] = [[0] * n for _ in range(n)]
        for c, entries in M.items():
            for r, v in entries:
                dense[r][c] = entry(v)
    return out


def _reference_lie_jet_action(mats, r, p):
    """Reference for lie_jet_action on dense matrices: rebuild the factor
    list for every matrix entry and re-sort it by `_brute_sort`; t^r
    scales a factor of order k by k!/(k-r)!, which is `math.perm(k, r)`."""
    out: dict = {}
    for mono, c in p.items():
        for k, v in enumerate(mono):
            lam = math.perm(v.order, r)
            if not lam:
                continue
            M = mats[v.family]
            col = v.coord - 1
            for row in range(len(M)):
                entry = M[row][col]
                if not entry:
                    continue
                factors = list(mono)
                factors[k] = v._replace(coord=row + 1, order=v.order - r)
                mono2, sign = _brute_sort(factors)
                if sign:
                    axpy(out, {mono2: c * lam * entry * sign})
    return out


# even and odd families, rep and dual roles, both conformal offsets; the
# two odd families have two copies each, so odd factors of different
# families and copies cross when a factor is replaced
def _mixed_space(n):
    return VarSpace([FamilyDecl("x", 2, n, 0, 0, "rep"),
                     FamilyDecl("y", 1, n, 0, 1, "dual"),
                     FamilyDecl("c", 1, n, 1, 0, "dual"),
                     FamilyDecl("f", 2, n, 1, 1, "rep")])


@pytest.mark.parametrize("kind, n", [("sl", 2), ("so", 3), ("gl", 2),
                                     ("sp", 4)])
def test_lie_jet_action_matches_reference(kind, n):
    A = make_algebra(kind, n)
    space = _mixed_space(n)
    odd = [v for v in space.variables(3) if v.parity]
    even = [v for v in space.variables(3) if not v.parity]
    rng = random.Random(f"{kind}{n}")
    for _ in range(40):
        # every monomial has odd factors, most also even ones
        p: dict = {}
        for _ in range(rng.randint(1, 4)):
            factors = rng.sample(odd, rng.randint(1, 3)) + rng.sample(
                even, rng.randint(0, 3))
            rng.shuffle(factors)
            axpy(p, monomial_from_factors(
                factors, QQ(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))))
        idx = rng.randrange(A.dim)
        mats = space.action_for(A, idx)
        for r in range(4):
            assert lie_jet_action(JetImages(mats, r), p) == (
                _reference_lie_jet_action(_dense(mats, n), r, p)), (
                    idx, r, diff_to_text(p))


def _whole_component(space, weight, degree, torus=None):
    """Every canonical monomial of the (weight, degree) component, of
    torus weight 0 when torus is given, every block of a copy orbit
    included: `graded_multisets` of the variables without their copies."""
    vs = space.variables(weight)
    tws = [torus[v] for v in vs] if torus is not None else None
    return [tuple(vs[i] for i in tup) for tup in graded_multisets(
        [(v.weight, 1, v.parity) for v in vs], weight, degree, degree, tws)]


def _full_system_invariants(space, A, weight, maxdeg):
    """Reference for invariant_basis: equations for every basis xi and
    every 0 <= r <= weight from the reference action, eliminated by the
    reference elimination per block.  Returns {(degree, block key):
    {free monomial: its canonical kernel vector}} for the blocks with a
    kernel, in output order."""
    actions = [_dense(space.action_for(A, i), A.rep_dim) for i in range(A.dim)]
    out = {}
    for d in range(maxdeg + 1):
        blocks: dict = {}
        for m in _whole_component(space, weight, d):
            blocks.setdefault(_block_key(m), []).append(m)
        for key in sorted(blocks):
            cols = sorted(blocks[key])
            equations = []
            for mats in actions:
                for r in range(weight + 1):
                    rows: dict = {}
                    for ci, mono in enumerate(cols):
                        img = _reference_lie_jet_action(mats, r, {mono: 1})
                        for tmono, c in img.items():
                            rows.setdefault(tmono, {})[ci] = c
                    equations.extend(rows[t] for t in sorted(rows))
            kernel = reference_nullspace(equations, range(len(cols)))
            if kernel:
                out[(d, key)] = {cols[f]: {cols[i]: c for i, c in vec.items()}
                                 for f, vec in kernel.items()}
    return out


def _copy_orbit(space, key):
    """Per family, the multiset of the factor counts of its copies."""
    counts = dict(key)
    return tuple(tuple(sorted(counts.get((f.family, j), 0)
                              for j in range(1, f.copies + 1)))
                 for f in space.families)


# even and odd families with several copies; every family with one copy;
# four copies of the plain sl2 module; the bc system on two copies
_SPACES = {
    "mixed": lambda A: _mixed_space(A.rep_dim),
    "one-copy": lambda A: varspace_for_system(build_system(
        bosonic=(A.rep_dim, 1), fermionic=(A.rep_dim, 1))),
    "plain-4": lambda A: VarSpace([FamilyDecl("x", 4, A.rep_dim, 0, 0, "rep")]),
    "bc-2": lambda A: varspace_for_system(build_system(
        fermionic=(A.rep_dim, 2))),
}


def _case(kind, n, maxdeg, space_name="mixed"):
    dims = n if isinstance(n, tuple) else (n,)
    name = "-".join(map(str, (kind, *dims, maxdeg)))
    if space_name != "mixed":
        name += f"-{space_name}"
    return pytest.param(kind, dims, maxdeg, space_name, id=name)


@pytest.mark.parametrize("kind, dims, maxdeg, space_name", [
    _case("sl", 2, 3), _case("so", 3, 3), _case("sl", 3, 2), _case("gl", 2, 3),
    _case("so", 4, 2), _case("sp", 4, 2),
    # gl1 is all centre; from degree 4 on, dropping the centre at some
    # r >= 2 enlarges the kernel
    _case("gl", 1, 4),
    # odd basis elements beside a diagonal torus; the split torus of
    # so_split, where the antisymmetric so(3) has none
    _case("glsuper", (1, 1), 3),
    _case("so_split", 4, 2),
    _case("sl", 2, 3, "one-copy"),
    _case("sl", 2, 4, "plain-4"),
    _case("sl", 2, 4, "bc-2"),
])
def test_invariant_basis_matches_full_system(kind, dims, maxdeg, space_name):
    A = make_algebra(kind, *dims)
    space = _SPACES[space_name](A)
    for weight in range(4):
        expected = _full_system_invariants(space, A, weight, maxdeg)
        assert expected, (kind, dims, weight)
        # the reference's nonempty blocks, grouped by orbit in key order
        orbits: dict = {}
        for (d, key), kernel in expected.items():
            orbits.setdefault((d, _copy_orbit(space, key)), []).append(kernel)
        got = invariant_basis(space, A, weight, maxdeg)
        assert [d for d, _, _ in got] == sorted(d for d, _, _ in got)
        solved = [(d, size, dim) for d, size, dim in got if dim]
        assert len(solved) == len(orbits), (kind, dims, weight)
        for (d, size, dim), (orbit, want) in zip(solved, orbits.items()):
            # the degree and dimension are those of the orbit's first
            # block in the reference, and the orbit size is its count of
            # blocks with a kernel
            assert d == orbit[0] and dim == len(want[0]), (weight, orbit)
            assert size == len(want), (weight, orbit)
            # every block of the orbit has the representative's
            # dimension, which multiplying by the orbit size takes for
            # granted
            assert [len(kernel) for kernel in want] == [dim] * size, (
                weight, orbit)
        # every reference kernel vector is killed by every x_i t^r,
        # r <= weight
        for i in range(A.dim):
            mats = space.action_for(A, i)
            for r in range(weight + 1):
                for kernel in expected.values():
                    for vec in kernel.values():
                        assert lie_jet_action(JetImages(mats, r),
                                              vec) == {}, (i, r, vec)


def test_orbit_column_guard_under_optimize():
    # three copies of the sl2 module: at degree 2 the three mixed blocks
    # have two columns each and the three squares one.  Only the
    # representatives are built, so the guard checks its premise, every
    # variable's torus weight that of its copy-1 twin.  A torus helper that
    # scales each weight by the copy breaks it (the mixed blocks would keep
    # neither of their two columns, and the minors would go missing) and
    # must stop the solve, also when -O strips asserts
    code = (
        "from freefield import diffalg, liealg\n"
        "A = liealg.make_algebra('sl', 2)\n"
        "space = diffalg.VarSpace([diffalg.FamilyDecl('x', 3, 2, 0, 0, 'rep')])\n"
        "print(diffalg.invariant_basis(space, A, 0, 2))\n"
        "def copy_weights(indices, atoms, image):\n"
        "    diag, weights = liealg.torus_weights(indices, atoms, image)\n"
        "    # the atoms are int codes, each the index of its variable\n"
        "    variables = space.variables(0)\n"
        "    return diag, {a: tuple(variables[a[0]].copy * x for x in w)\n"
        "                  for a, w in weights.items()}\n"
        "diffalg.torus_weights = copy_weights\n"
        "try:\n"
        "    diffalg.invariant_basis(space, A, 0, 2)\n"
        "except RuntimeError as e:\n"
        "    print('guarded:', e)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the constant, the three minors and the squares without invariant,
    # then the guard
    assert len(lines) == 2, proc.stdout
    assert lines[0] == "[(0, 1, 1), (2, 3, 1), (2, 3, 0)]", proc.stdout
    assert lines[1].startswith("guarded: torus weight of x1[2]^(0)"), (
        proc.stdout)
    assert "orbit representative" in lines[1], proc.stdout


def test_current_generators_sl2_and_gl2_centre():
    sl2 = make_algebra("sl", 2)
    assert current_generators(sl2, 4) == [(0, 0), (1, 0), (0, 1)]
    gl2 = make_algebra("gl", 2)
    weight = 3
    gens = current_generators(gl2, weight)
    # the identity t^r is no bracket, so every r needs a generator that
    # carries it: one whose matrix has nonzero trace
    for r in range(weight + 1):
        assert any(sum(v for (a, b), v in gl2.rep[i].items() if a == b)
                   for i, s in gens if s == r), r


@pytest.mark.parametrize("kind, dims", [
    pytest.param(kind, dims, id="-".join(map(str, (kind, *dims))))
    for kind, dims in [("sl", (2,)), ("so", (3,)), ("gl", (1,)), ("gl", (2,)),
                       ("sp", (4,)), ("glsuper", (1, 1)), ("so_split", (4,))]])
def test_current_generators_restrict_to_lower_weights(kind, dims):
    # bidegree_dims computes the pairs once, for its largest weight
    A = make_algebra(kind, *dims)
    for top in range(5):
        pairs = current_generators(A, top)
        for w in range(top + 1):
            assert current_generators(A, w) == [
                (i, r) for i, r in pairs if r <= w], (top, w)


def test_generated_span_counts_bihomogeneous():
    x11 = monomial_from_factors([jet_var("x", 1, 1, 0)])
    x21 = monomial_from_factors([jet_var("x", 2, 1, 0)])
    minor = diff_sub(diff_mul(x11, apply_D(x21)), diff_mul(x21, apply_D(x11)))
    # weight-2 span of {minor}: D(minor) at degree 2 and minor*minor at 4
    assert generated_span([minor], 2, 4) == {2: 1, 4: 1}


def test_generated_span_takes_odd_generator_once():
    # x*x = 0 for an odd x, so only the products 1 and x are formed
    x = monomial_from_factors([jet_var("x", 1, 1, 0, parity=1)])
    assert generated_span([x], 0, 2, cap=2) == {0: 1, 1: 1}
    # x + y with y even is bihomogeneous but mixes parities
    y = monomial_from_factors([jet_var("x", 1, 2, 0)])
    with pytest.raises(ValueError, match="bihomogeneous"):
        generated_span([diff_add(x, y)], 0, 2)


def _reference_span_dims(gens, weight, maxdeg):
    """Reference for generated_span: every product of D-derivatives of the
    gens with rational coefficients, multiplied by _reference_diff_mul,
    those of the given weight and degree <= maxdeg eliminated by one
    Echelon, whose rows are counted by the degree diff_bidegree gives
    them."""
    derived = []
    for g in gens:
        for _ in range(weight - diff_bidegree(g)[0] + 1):
            derived.append(g)
            g = apply_D(g)
    ech = Echelon()
    most = maxdeg // min((diff_bidegree(g)[1] for g in gens), default=1)
    for r in range(most + 1):
        for tup in itertools.combinations_with_replacement(derived, r):
            poly = {(): QQ(1)}
            for g in tup:
                poly = _reference_diff_mul(poly, g)
            w, d = diff_bidegree(poly)
            if poly and w == weight and d <= maxdeg:
                ech.add(poly)
    dims: dict = {}
    for row in ech.rows.values():
        w, d = diff_bidegree(row)
        assert w == weight and d is not None and d <= maxdeg
        dims[d] = dims.get(d, 0) + 1
    return dims


@pytest.mark.parametrize("system, name", [
    pytest.param({"fermionic": (2, 2)}, "bc_psi_dets", id="bc_psi_dets"),
    pytest.param({"bosonic": (2, 1), "fermionic": (2, 1)}, "mixed_all",
                 id="mixed_all"),
    pytest.param({"bosonic": (2, 2)}, "right_gl_currents",
                 id="right_gl_currents"),
])
def test_generated_span_matches_rational_products(system, name):
    # symbol generators with odd factors or even ones, each scaled by its
    # own fraction: the integer-scaled products span the same space at
    # every bidegree, products of two generators included
    gens = [{m: QQ(k + 1, 2 * k + 3) * c for m, c in g.items()} for k, g in
            enumerate(symbol_generators(build_system(**system), name))]
    products = 0
    for weight in range(3):
        want = _reference_span_dims(gens, weight, 4)
        assert generated_span(gens, weight, 4) == want, weight
        products += want.get(4, 0)
    assert products


def _plain_quadrics(pairs):
    """The dot products of the copy pairs (j, k) of x on two copies of
    two coordinates."""
    space = VarSpace([FamilyDecl("x", 2, 2, 0, 0, "rep")])
    quadrics = dict(zip([(1, 1), (1, 2), (2, 2)], plain_quadrics(space)))
    return [quadrics[pair] for pair in pairs]


def _two_copies_sum():
    """x_1[1] + x_1[2], which lies in no one block, beside the quadrics."""
    return [diff_add(monomial_from_factors([jet_var("x", 1, 1, 0)]),
                     monomial_from_factors([jet_var("x", 2, 1, 0)])),
            *_plain_quadrics([(1, 1), (1, 2), (2, 2)])]


@pytest.mark.parametrize("gens, maxdeg, sizes", [
    # closed under swapping the copies of b and of c: orbits of blocks
    pytest.param(lambda: symbol_generators(build_system(fermionic=(2, 2)),
                                           "bc_psi_dets"),
                 4, {(("b", 1), 1): 2, (("b", 2), 1): 0}, id="bc_psi_dets"),
    pytest.param(lambda: symbol_generators(
        build_system(bosonic=(2, 1), fermionic=(2, 1)), "mixed_all"),
                 4, {(("b", 1), 1): 1}, id="mixed_all"),
    # x[2].x[2] is missing, so swapping the copies leaves the set: each
    # block is its own orbit
    pytest.param(lambda: _plain_quadrics([(1, 1), (1, 2)]),
                 4, {(("x", 1), 2): 1, (("x", 2), 2): 1},
                 id="quadrics-not-closed"),
    # a generator in two blocks: each block its own orbit too
    pytest.param(_two_copies_sum, 3, {(("x", 1), 2): 1, (("x", 2), 2): 1},
                 id="not-block-homogeneous"),
])
def test_generated_span_matches_unsplit_rank(gens, maxdeg, sizes):
    # the block split, with orbits or with every orbit of size 1, against
    # the rank of every product in one Echelon; sizes pins which split runs,
    # by the orbit size it gives some one-entry block keys
    gens = gens()
    orbit = _copy_orbits(gens)
    assert {entry: orbit((entry,)) for entry in sizes} == sizes
    for weight in range(4):
        want = _reference_span_dims(gens, weight, maxdeg)
        assert generated_span(gens, weight, maxdeg) == want, weight


def _dv_invariant_basis(space, A, weight, maxdeg):
    """invariant_basis on the variables themselves, uncoded: the same
    driver fed DV columns, DV image tables and DV block keys."""
    gens = current_generators(A, weight)
    columns = [space.action_for(A, i) for i in range(A.dim)]
    torus_ops = [(i, 0) for i in range(A.dim)]
    tables = {op: JetImages(columns[op[0]], op[1]) for op in torus_ops + gens}
    copies = {f.family: f.copies for f in space.families}
    return [(d, _orbit_size(copies, key), dim) for (d, key), dim in
            invariant_orbits(
                space.variables(weight),
                lambda torus: _decoded(space, weight, 0, torus, maxdeg),
                torus_ops, gens,
                lambda mono, ops: [derive(mono, tables[op], _parity)
                                   for op in ops],
                lambda m: (len(m), _block_key(m)))]


def _dv_generated_span(gens, weight, maxdeg):
    """generated_span on the variables themselves, uncoded and unsplit:
    the derived generators' DV products of representative blocks into one
    `Echelon`, each of its pivots, the least monomials of the span,
    counted by its DV block's orbit size."""
    orbit = _copy_orbits([g for g in gens if g])
    derived = []
    for g in gens:
        w, d = diff_bidegree(g)
        if g and d <= maxdeg and w <= weight:
            odd = sum(v.parity for v in min(g)) & 1
            for k in range(weight - w + 1):
                derived.append(((w + k, d, odd), _block_key(min(g)), g))
                g = apply_D(g)

    def representative(tup):
        counts = collections.Counter()
        for i in tup:
            counts.update(dict(derived[i][1]))
        return orbit(tuple(sorted(counts.items()))) > 0

    tuples = graded_multisets([a for a, _, _ in derived], weight, 0, maxdeg)
    products = _products([g for _, _, g in derived],
                         filter(representative, tuples))
    ech = Echelon()
    for _, poly in products:
        ech.add(poly)
    dims: dict = {}
    for p in ech.rows:
        dims[len(p)] = dims.get(len(p), 0) + orbit(_block_key(p))
    return dims


@pytest.mark.parametrize("kind, n, space_name", [
    ("sl", 2, "plain-4"), ("sl", 2, "bc-2"), ("sl", 2, "mixed"),
    ("so_split", 4, "mixed"), ("glsuper", (1, 1), "mixed"),
])
def test_coded_invariant_basis_matches_dv_reference(kind, n, space_name):
    # even, fermionic and mixed spaces: the same orbits, sizes and
    # dimensions, in the same order, as the uncoded solve
    A = make_algebra(kind, *(n if isinstance(n, tuple) else (n,)))
    space = _SPACES[space_name](A)
    for weight in range(4):
        want = _dv_invariant_basis(space, A, weight, 3)
        assert any(dim for _, _, dim in want), weight
        assert invariant_basis(space, A, weight, 3) == want, weight


def _affine_sl2():
    """sl2 + C^2, the affine algebra of the plane, on C^3: x, y, h of sl2
    on the first two coordinates, and v1, v2 mapping the third to the
    first and the second.  Every basis element but h is a root vector,
    of root 2, -2, 1 and -1 under h, but the algebra is not reductive:
    the v's are an abelian ideal, and the trace form vanishes on them."""
    def unit(*cells):
        return {(r, c): x for r, c, x in cells}
    rep = [unit((0, 1, 1)), unit((1, 0, 1)), unit((0, 0, 1), (1, 1, -1)),
           unit((0, 2, 1)), unit((1, 2, 1))]
    return LieAlgebraSpec("aff", (2,), ["x", "y", "h", "v1", "v2"],
                          [0] * 5, rep, 3)


@pytest.mark.parametrize("kind, dims, maxdeg, simple", [
    pytest.param(kind, dims, maxdeg, simple,
                 id="-".join(map(str, (kind, *dims, maxdeg))))
    for kind, dims, maxdeg, simple in [
        ("sl", (2,), 4, ["x"]), ("so_split", (3,), 4, ["u[1]"]),
        ("sl", (3,), 4, ["e[1,3]", "e[3,2]"]), ("gl", (2,), 4, ["e[1,2]"]),
        ("gl", (3,), 4, ["e[1,2]", "e[2,3]"]),
        ("sp", (4,), 4, ["m[2,2]", "h[1,2]"])]])
def test_invariant_basis_cut_to_simple_root_vectors(kind, dims, maxdeg, simple):
    # on a mixed bosonic and fermionic space, the g t^0 rows cut to the
    # simple root vectors give the dimensions of every current generator
    A = make_algebra(kind, *dims)
    assert [A.labels[i] for i in simple_root_vectors(A)] == simple
    space = _mixed_space(A.rep_dim)
    for weight in range(4):
        want = _dv_invariant_basis(space, A, weight, maxdeg)
        assert any(dim for _, _, dim in want), weight
        assert invariant_basis(space, A, weight, maxdeg, 10**6) == want, (
            weight)


def test_invariant_basis_keeps_every_pair_off_reductive_root_bases():
    # an odd element, basis elements that are no root vectors (the
    # antisymmetric so(3) has no diagonal element), and a root basis of
    # an algebra that is not reductive: no cut, so every current
    # generator is kept
    aff = _affine_sl2()
    for A in (make_algebra("glsuper", 1, 1), make_algebra("so", 3), aff):
        assert simple_root_vectors(A) is None, A.kind
    space = VarSpace([FamilyDecl("x", 2, 3, 0, 0, "rep")])
    for weight in range(3):
        want = _dv_invariant_basis(space, aff, weight, 3)
        assert invariant_basis(space, aff, weight, 3) == want, weight
    # the cut there would be wrong: the lexicographically simple root is
    # that of v1 alone, whose kernel holds x[1] x[2] at weight 0, which x
    # does not kill
    assert invariant_basis(space, aff, 0, 2, pairs=[(3, 0)]) != (
        _dv_invariant_basis(space, aff, 0, 2))


@pytest.mark.parametrize("gens", [
    # fermionic and mixed sets closed under copies, an even set closed
    # and one not closed, and a generator spanning two blocks
    pytest.param(lambda: symbol_generators(build_system(fermionic=(2, 2)),
                                           "bc_psi_dets"), id="bc_psi_dets"),
    pytest.param(lambda: symbol_generators(
        build_system(bosonic=(2, 1), fermionic=(2, 1)), "mixed_all"),
                 id="mixed_all"),
    pytest.param(lambda: _plain_quadrics([(1, 1), (1, 2), (2, 2)]),
                 id="quadrics"),
    pytest.param(lambda: _plain_quadrics([(1, 1), (1, 2)]),
                 id="quadrics-not-closed"),
    pytest.param(_two_copies_sum, id="not-block-homogeneous"),
])
def test_coded_generated_span_matches_dv_reference(gens):
    gens = gens()
    for weight in range(4):
        want = _dv_generated_span(gens, weight, 4)
        assert generated_span(gens, weight, 4) == want, weight
    assert want


def test_coding_keeps_monomial_order():
    # codes sort, Koszul-sort and key blocks as their variables do, on
    # random monomials of a mixed space, odd repeats included
    rng = random.Random(11)
    vs = _mixed_space(2).variables(2)
    code, parity, run = coding(vs)
    assert [code[v] for v in vs] == list(range(len(vs)))
    monos = [tuple(rng.choice(vs) for _ in range(rng.randint(0, 4)))
             for _ in range(300)]

    def encode(m):
        return tuple(code[v] for v in m)

    for m in monos:
        dv, sign = koszul_sort(m, lambda v: v.parity)
        coded, coded_sign = koszul_sort(encode(m), parity)
        assert coded_sign == sign
        if sign:
            assert coded == encode(dv)
            assert _block_key(coded, run) == _block_key(dv)
    canonical = sorted({tuple(sorted(m)) for m in monos})
    assert sorted(map(encode, canonical)) == list(map(encode, canonical))


def test_enumerate_component_counts():
    space = VarSpace([FamilyDecl("x", 1, 1, 0, 0, "rep")])
    # exact bidegree components in x, Dx, D^2x, ...
    assert enumerate_component(space, 0, 3) == [(0, 0, 0)]  # x^3 only
    # x D^2x and (Dx)^2, as indices into the variables x, Dx, D^2x
    assert enumerate_component(space, 2, 2) == [(0, 2), (1, 1)]
    vs = space.variables(2)
    assert [v.order for v in vs] == [0, 1, 2]


def _decoded(space, weight, degree, torus=None, maxdeg=None):
    """enumerate_component with torus a map from each variable to its
    torus weight, its index tuples read back as tuples of variables."""
    vs = space.variables(weight)
    coded = None if torus is None else [torus[v] for v in vs]
    return [tuple(vs[i] for i in m) for m in
            enumerate_component(space, weight, degree, coded, maxdeg)]


def _space_torus(space, A, weight):
    actions = [space.action_for(A, i) for i in range(A.dim)]
    return torus_weights(range(A.dim), space.variables(weight),
                         lambda i, v: dict(_var_images(actions[i], 0, v)))


@pytest.mark.parametrize("kind, n", [("sl", 2), ("gl", 2), ("sl", 3),
                                     ("sp", 4), ("so_split", 4), ("so", 3)])
def test_enumerate_component_torus_and_counts(kind, n):
    # the pruned enumeration is the torus-weight-0 part of the full one in
    # the representative blocks, and the counting pass gives the full
    # sizes without building them
    A = make_algebra(kind, n)
    space = _mixed_space(n)
    copies = {f.family: f.copies for f in space.families}
    for weight in range(4):
        diag, torus = _space_torus(space, A, weight)
        assert bool(diag) == (kind != "so"), diag
        sizes = monomial_counts([(v.weight, v.parity)
                                 for v in space.variables(weight)], weight, 3)
        for d in range(4):
            full = _whole_component(space, weight, d)
            assert len(full) == sizes[d], (weight, d)
            assert _whole_component(space, weight, d, torus) == [
                m for m in full if all(sum(torus[v][k] for v in m) == 0
                                       for k in range(len(diag)))]
            representatives = [m for m in full
                               if _orbit_size(copies, _block_key(m))]
            assert _decoded(space, weight, d) == representatives
            kept = [m for m in representatives
                    if all(sum(torus[v][k] for v in m) == 0
                           for k in range(len(diag)))]
            assert _decoded(space, weight, d, torus) == kept


@pytest.mark.parametrize("space_name", ["even", "mixed"])
@pytest.mark.parametrize("with_torus", [False, True])
def test_one_walk_over_degrees_matches_each_degree(space_name, with_torus):
    # invariant_basis enumerates a weight once over degrees 0..maxdeg and
    # buckets by length: each bucket is the single-degree list, in order
    A = make_algebra("so_split", 4)
    space = (VarSpace([FamilyDecl("x", 2, 4, 0, 0, "rep"),
                       FamilyDecl("y", 1, 4, 0, 1, "dual")])
             if space_name == "even" else _mixed_space(4))
    maxdeg = 3
    for weight in range(4):
        torus = _space_torus(space, A, weight)[1] if with_torus else None
        walk = _decoded(space, weight, 0, torus, maxdeg)
        assert walk == sorted(walk)
        for d in range(maxdeg + 1):
            got = [m for m in walk if len(m) == d]
            assert got == _decoded(space, weight, d, torus), (weight, d)
        # a window that starts above 0 drops the lower degrees only
        assert _decoded(space, weight, 2, torus, maxdeg) == [
            m for m in walk if len(m) >= 2]


@pytest.mark.parametrize("kind, dims", [("sl", (2,)), ("so", (3,)),
                                        ("gl", (2,))])
def test_bidegree_dims_finds_simple_root_vectors_once(kind, dims,
                                                      monkeypatch):
    # one root cut per call, not one per weight, with the dimensions of
    # invariant_basis cutting its own pairs at each weight
    A = make_algebra(kind, *dims)
    space = varspace_for_system(build_system(bosonic=(A.rep_dim, 1)))
    want: dict = {}
    for w in range(4):
        solved = make_algebra("so_split", *dims) if kind == "so" else A
        for d, size, dim in invariant_basis(space, solved, w, 4, 10 ** 6):
            if dim:
                want[f"{w},{d}"] = want.get(f"{w},{d}", 0) + size * dim
    calls = []
    real = diffalg.simple_root_vectors
    monkeypatch.setattr(diffalg, "simple_root_vectors",
                        lambda B: calls.append(B.kind) or real(B))
    inv, _ = bidegree_dims(space, A, [], 3, 4, 10 ** 6)
    assert calls == ["so_split" if kind == "so" else kind]
    assert inv == want and any(key.startswith("3,") for key in inv)


@pytest.mark.parametrize("n, maxdeg", [(3, 4), (4, 4), (5, 3)])
@pytest.mark.parametrize("space_name", ["plain", "system"])
def test_so_dims_on_the_split_torus_match_the_antisymmetric_basis(
        n, maxdeg, space_name):
    # bidegree_dims solves the invariants of so(n) for so_split(n); the
    # dimensions must be those of the antisymmetric basis, solved directly
    # by invariant_basis (no torus, every column)
    A = make_algebra("so", n)
    space = (VarSpace([FamilyDecl("x", 2, n, 0, 0, "rep")])
             if space_name == "plain" else
             # rep and dual families, bosonic and fermionic
             varspace_for_system(build_system(bosonic=(n, 1),
                                              fermionic=(n, 1))))
    weights = 3 if space_name == "plain" else 2
    inv, _ = bidegree_dims(space, A, [], weights, maxdeg, 10 ** 6)
    want: dict = {}
    for w in range(weights + 1):
        for d, size, dim in invariant_basis(space, A, w, maxdeg, 10 ** 6):
            if dim:
                want[f"{w},{d}"] = want.get(f"{w},{d}", 0) + size * dim
    assert inv == want
    assert inv["0,2"] and any(key.startswith(f"{weights},") for key in inv)


def test_graded_multisets_matches_brute_force():
    # seeded random atoms against a filter over every multiset: the same
    # tuples in the same (sorted) order, odd atoms at most once, degrees
    # in the window, and the torus, target and copy cuts equal to
    # filtering the uncut output
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randint(0, 6)
        atoms = [(rng.randint(0, 2), rng.randint(1, 2), rng.randint(0, 1))
                 for _ in range(n)]
        k = rng.randint(0, 2)
        torus = [tuple(rng.randint(-1, 1) for _ in range(k))
                 for _ in range(n)]
        weight = rng.randint(0, 4)
        mindeg = rng.randint(0, 3)
        maxdeg = rng.randint(mindeg, 5)
        want = sorted(
            tup for r in range(maxdeg + 1)
            for tup in itertools.combinations_with_replacement(range(n), r)
            if not any(atoms[i][2] and tup.count(i) > 1 for i in tup)
            and sum(atoms[i][0] for i in tup) == weight
            and mindeg <= sum(atoms[i][1] for i in tup) <= maxdeg)
        full = graded_multisets(atoms, weight, mindeg, maxdeg)
        assert full == want, (trial, atoms, weight, mindeg, maxdeg)
        balanced = [tup for tup in full
                    if not any(map(sum, zip(*(torus[i] for i in tup))))]
        got = graded_multisets(atoms, weight, mindeg, maxdeg, torus)
        assert got == balanced, (trial, atoms, torus, weight, mindeg, maxdeg)
        # a random torus weight to reach, nonzero when k > 0, cuts as the
        # filter of the uncut output by it does
        target = [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
        reached = [tup for tup in full if [
            sum(torus[i][c] for i in tup) for c in range(k)] == target]
        got = graded_multisets(atoms, weight, mindeg, maxdeg, torus,
                               target=target)
        assert got == reached, (trial, atoms, torus, target, weight)
        # the copy cut keeps the tuples of representative blocks, by the
        # rule of _orbit_size on their counts per (family, copy)
        copies = sorted(rng.choice([("a", 1), ("a", 2), ("a", 3), ("b", 1),
                                    ("b", 2)]) for _ in range(n))
        kept = [tup for tup in balanced if _orbit_size(
            {"a": 3, "b": 2},
            sorted(collections.Counter(copies[i] for i in tup).items()))]
        got = graded_multisets(atoms, weight, mindeg, maxdeg, torus, copies)
        assert got == kept, (trial, atoms, torus, copies, weight)
    # a run shorter than the one before it is cut also where the last atom
    # is looked up: at degree 5, counts (2, 3) and (1, 4) stay, (4, 1) and
    # (3, 2) go, and so does (0, 5), which skips copy 1
    assert graded_multisets([(0, 1, 0)] * 2, 0, 5, 5, None,
                            [("a", 1), ("a", 2)]) == [
        (0, 0, 0, 0, 0), (0, 0, 1, 1, 1), (0, 1, 1, 1, 1)]
    with pytest.raises(ValueError):
        graded_multisets([(1, 0, 0)], 1, 0, 1)


def test_torus_weights_are_diagonal_entries():
    A = make_algebra("sl", 3)
    space = VarSpace([FamilyDecl("x", 1, 3, 0, 0, "rep"),
                      FamilyDecl("y", 1, 3, 0, 0, "dual")])
    diag, torus = _space_torus(space, A, 0)
    assert [A.labels[i] for i in diag] == ["h[1]", "h[2]"]
    assert [torus[v] for v in space.variables(0)] == [
        (1, 0), (-1, 1), (0, -1), (-1, 0), (1, -1), (0, 1)]


def test_resource_cap():
    space = VarSpace([FamilyDecl("x", 3, 3, 0, 0, "rep")])
    A = make_algebra("gl", 3)
    with pytest.raises(ResourceCapError):
        invariant_basis(space, A, 3, 6, cap=5)


def test_normal_order_round_trip():
    sys = build_system(bosonic=(2, 1))
    p = diff_mul(monomial_from_factors([symbol_var("beta", 1, 1, 0)]),
                 monomial_from_factors([symbol_var("gamma", 1, 2, 1)]))
    st = wick_expand(
        p, lambda v: generator_state(sys, v.family, v.copy, v.coord), sys)
    _, _, d = gradings(st)
    assert symbol(st, d) == p


def test_quantum_correct_trivial_relation():
    sys = build_system(bosonic=(1, 1))
    D = det_family(sys, (1,), side="beta")
    Dp = det_family(sys, (1,), side="gamma")
    F = theta(make_algebra("gl", 1), sys, side="right")
    q_state = F.states[0]
    gens = [("d", symbol(D, 1), D), ("dp", symbol(Dp, 1), Dp),
            ("q", symbol(q_state, 2), q_state)]
    p = diff_sub(
        diff_mul(monomial_from_factors([abstract_var("d", 0, 0, 1)]),
                 monomial_from_factors([abstract_var("dp", 0, 0, 0)])),
        monomial_from_factors([abstract_var("q", 0, 0, 1)]))
    res = quantum_correct(p, gens, sys)
    assert res.status == "ok" and res.corrections == ()
    assert res.total == p


def test_quantum_correct_rejects_non_relation():
    sys = build_system(bosonic=(1, 1))
    D = det_family(sys, (1,), side="beta")
    gens = [("d", symbol(D, 1), D)]
    p = monomial_from_factors([abstract_var("d", 0, 0, 1)])
    with pytest.raises(ValueError):
        quantum_correct(p, gens, sys)


def test_action_matrices_roles():
    A = make_algebra("sl", 2)
    space = VarSpace([FamilyDecl("beta", 1, 2, 0, 1, "rep"),
                      FamilyDecl("gamma", 1, 2, 0, 0, "dual")])
    mats = space.action_for(A, 0)
    assert set(mats) == {"beta", "gamma"}
    # sparse: nonzero entries only, indexed by column, rows ascending
    for M in mats.values():
        for entries in M.values():
            assert all(x for _, x in entries)
            assert [r for r, _ in entries] == sorted({r for r, _ in entries})
    dense = _dense(mats, 2)
    M, Md = dense["beta"], dense["gamma"]
    # dual action is minus transpose
    for r in range(2):
        for c in range(2):
            assert Md[r][c] == -M[c][r]
    with pytest.raises(ValueError, match="unknown role"):
        VarSpace([FamilyDecl("beta", 1, 2, 0, 1, "adjoint")])

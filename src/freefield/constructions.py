"""
Named vertex operators inside free-field systems.

Quadratic current families for a Lie algebra acting on the generators
(left on coordinates, right on copies), conformal and charge elements,
determinant-type states, the quadratic pairing families, and exact
verification: affine closure with a measured level, commutant membership,
invariant dimensions on the state side, and correction searches for candidate
singular vectors.
"""

from itertools import permutations

from .rationals import QQ, ZERO, ONE, qstr
from .linalg import axpy, perm_sign, solve_affine
from .liealg import (LieAlgebraSpec, current_generators, diagonal_basis,
                     dual_coxeter, gram_inverse, make_algebra, normalized_gram,
                     sp_any, split_label, trace_gram)
from .fock import (SystemSpec, State, vacuum, zero, generator_polynomial,
                   nth_product, derivative, gradings, state_weight,
                   state_to_text)
from .diffalg import (ResourceCapError, abstract_var, graded_multisets,
                      invariant_orbits, monomial_counts, monomial_from_factors,
                      quantum_correct, root_cut, symbol, wick_expand)


def build_system(bosonic=None, fermionic=None) -> SystemSpec:
    return SystemSpec(bosonic=bosonic, fermionic=fermionic)


class CurrentFamily:
    """Basis-aligned family of weight-1 currents xi -> theta^xi.

    states[i] corresponds to algebra.labels[i].
    """

    def __init__(self, algebra: LieAlgebraSpec, sys: SystemSpec, states,
                 side: str, name: str):
        self.algebra = algebra
        self.sys = sys
        self.states = tuple(states)
        self.side = side
        self.name = name
        # theta-style families are weight 1 and charge 0 throughout; the
        # quadratic pairing families carry weights 0/1/2 and charges -2/0/2,
        # so the shared container only demands homogeneity.
        for th in self.states:
            w, ch, deg = gradings(th)
            if not th.is_zero() and (w is None or ch is None or deg > 2):
                raise ValueError(f"current family {name}: bad gradings {(w, ch, deg)}")

    def current(self, x) -> State:
        """State for a coordinate vector over the basis (label, index or
        {basis: coeff} dict)."""
        out = zero(self.sys)
        for i, c in self.algebra.coords(x).items():
            out = out.add(self.states[i].scale(c))
        return out

    def items(self):
        return zip(self.algebra.labels, self.states)


def theta(A: LieAlgebraSpec, sys: SystemSpec, side: str = "left") -> CurrentFamily:
    """Quadratic currents for A acting on the generators.

    side "left": A acts on coordinates inside every copy; betagamma copies
    contribute -sum :gamma^{x'_i} beta^{rho(xi)x_i}:, bc copies contribute
    +sum :b^{rho(xi)x_i} c^{x'_i}:.  side "right": A = gl acts on the copy
    index of a pure system; betagamma copies carry the dual pairing
    pattern, bc copies the b-row pattern.
    """
    states = []
    if side == "left":
        sectors = [(shape, odd) for shape, odd in
                   ((sys.bosonic, False), (sys.fermionic, True)) if shape]
        for (n, _), _ in sectors:
            if n != A.rep_dim:
                raise ValueError(
                    f"rep dimension {A.rep_dim} does not match coordinate count {n}")
        for M in A.rep:
            terms = []
            for (_, m), odd in sectors:
                for j in range(1, m + 1):
                    for (ip, i), c in M.items():
                        if odd:
                            terms.append((c, [("b", j, ip + 1), ("c", j, i + 1)]))
                        else:
                            terms.append((-c, [("gamma", j, i + 1), ("beta", j, ip + 1)]))
            states.append(generator_polynomial(sys, terms))
        return CurrentFamily(A, sys, states, "left", f"theta_left_{A.kind}")
    if side == "right":
        if sys.bosonic and sys.fermionic:
            raise ValueError("right action needs a pure system")
        n, m = sys.bosonic or sys.fermionic
        if A.rep_dim != m:
            raise ValueError(
                f"rep dimension {A.rep_dim} does not match copy count {m}")
        lo, hi = ("gamma", "beta") if sys.bosonic else ("b", "c")
        for M in A.rep:
            states.append(generator_polynomial(sys, [
                (c, [(lo, a + 1, i), (hi, ap + 1, i)])
                for (a, ap), c in M.items() for i in range(1, n + 1)]))
        return CurrentFamily(A, sys, states, "right", f"theta_right_{A.kind}")
    raise ValueError(f"unknown side {side!r}")


class AffineReport:
    """Result of verify_affine: closure, measured level, higher products."""

    def __init__(self, closure_ok, closure_witness, level, level_ok,
                 level_witness, higher_ok, higher_witness, form):
        self.closure_ok = closure_ok
        self.closure_witness = closure_witness
        self.level = level
        self.level_ok = level_ok
        self.level_witness = level_witness
        self.higher_ok = higher_ok
        self.higher_witness = higher_witness
        self.form = form

    @property
    def ok(self):
        return self.closure_ok and self.level_ok and self.higher_ok

    def summary(self) -> dict:
        return {
            "closure_ok": self.closure_ok,
            "level": None if self.level is None else qstr(self.level),
            "level_ok": self.level_ok,
            "higher_ok": self.higher_ok,
            "form": self.form,
        }


def verify_affine(F: CurrentFamily, form="trace") -> AffineReport:
    """Check, for all basis pairs, that the zeroth product closes with the
    algebra's structure constants, the first product is one scalar multiple
    of the declared form ("trace" or "normalized") times the vacuum, and
    second products vanish.  The scalar is the measured level;
    discrepancies are reported, never absorbed.  ValueError on any other
    form."""
    A = F.algebra
    if form == "trace":
        gram = trace_gram(A)
    elif form == "normalized":
        gram = normalized_gram(A)
    else:
        raise ValueError(f"unknown verify_affine form {form!r}")
    vac = vacuum(F.sys)
    closure_ok, closure_witness = True, None
    level_ok, level_witness = True, None
    higher_ok, higher_witness = True, None
    level = None
    for i in range(A.dim):
        for j in range(A.dim):
            d0 = nth_product(F.states[i], F.states[j], 0)
            expected = F.current(A.structure(i, j))
            if not d0.sub(expected).is_zero():
                if closure_ok:
                    closure_ok = False
                    closure_witness = (A.labels[i], A.labels[j], d0.sub(expected))
            d1 = nth_product(F.states[i], F.states[j], 1)
            lam = d1.terms.get((), ZERO)
            if not d1.sub(vac.scale(lam)).is_zero():
                if level_ok:
                    level_ok = False
                    level_witness = (A.labels[i], A.labels[j], "nonscalar", d1)
            g = gram[i][j]
            if g:
                k = lam / g
                if level is None:
                    level = k
                elif level_ok and k != level:
                    level_ok = False
                    level_witness = (A.labels[i], A.labels[j], "inconsistent", k)
            elif lam and level_ok:
                level_ok = False
                level_witness = (A.labels[i], A.labels[j], "off-form", lam)
            d2 = nth_product(F.states[i], F.states[j], 2)
            if not d2.is_zero() and higher_ok:
                higher_ok = False
                higher_witness = (A.labels[i], A.labels[j], d2)
    return AffineReport(closure_ok, closure_witness, level, level_ok,
                        level_witness, higher_ok, higher_witness, form)


def sugawara(F: CurrentFamily, k) -> State:
    """Quadratic Casimir field (1/(2(k+h))) sum G^{ij} :theta^i theta^j:
    with G the Gram matrix of the normalized form; h the dual Coxeter
    number.  Exact and basis-independent; no orthonormalization."""
    A = F.algebra
    h = dual_coxeter(A)
    if h is None:
        raise ValueError(f"no normalized form for kind {A.kind!r}")
    k = QQ(k)
    if k == QQ(-h):
        raise ValueError("critical level k = -h_dual is excluded")
    total = zero(F.sys)
    for i, row in enumerate(gram_inverse(normalized_gram(A))):
        for j, c in sorted(row.items()):
            total = total.add(nth_product(F.states[i], F.states[j], -1).scale(c))
    return total.scale(QQ(1, 2) / (k + h))


def sugawara_checks(F: CurrentFamily, k) -> tuple:
    """(checks, c) for L = sugawara(F, k) and c = k dim g / (k + h): the
    Virasoro products of L with itself at central charge c, and whether
    every current is primary of weight 1 for L, as {name: bool}."""
    L = sugawara(F, k)
    c = k * F.algebra.dim / (k + dual_coxeter(F.algebra))
    checks = {
        "L0_is_derivative": nth_product(L, L, 0).sub(derivative(L)).is_zero(),
        "L1_is_2L": nth_product(L, L, 1).sub(L.scale(2)).is_zero(),
        "L2_vanishes": nth_product(L, L, 2).is_zero(),
        "L3_is_half_c":
            nth_product(L, L, 3).sub(vacuum(F.sys).scale(c / 2)).is_zero(),
    }
    checks["currents_primary_weight_one"] = all(
        nth_product(L, th, 1).sub(th).is_zero()
        and nth_product(L, th, 2).is_zero()
        and nth_product(L, th, 0).sub(derivative(th)).is_zero()
        for th in F.states)
    return checks, c


def conformal_and_charge(sys: SystemSpec):
    """(L_S, L_E, e): conformal elements of the bosonic and fermionic
    sectors and the charge element; zero states for absent sectors.
    L_S = sum :beta d(gamma):, L_E = -sum :b d(c):, e = sum :beta gamma:."""
    L_S, L_E, e = [], [], []
    if sys.bosonic:
        n, m = sys.bosonic
        for j in range(1, m + 1):
            for i in range(1, n + 1):
                L_S.append((1, [("beta", j, i), ("gamma", j, i, 1)]))
                e.append((1, [("beta", j, i), ("gamma", j, i)]))
    if sys.fermionic:
        n, m = sys.fermionic
        for j in range(1, m + 1):
            for i in range(1, n + 1):
                L_E.append((-1, [("b", j, i), ("c", j, i, 1)]))
    return tuple(generator_polynomial(sys, terms) for terms in (L_S, L_E, e))


def _det_state(sys, entries) -> State:
    """Determinant of a square matrix of generators; entries[r][c] is a
    (family, copy, coord) triple.  Expansion order does not matter since
    `generator_polynomial` sorts each product of (-1)-modes with its
    Koszul sign."""
    n = len(entries)
    return generator_polynomial(sys, [
        (perm_sign(perm), [entries[perm[c]][c] for c in range(n)])
        for perm in permutations(range(n))])


def det_family(sys: SystemSpec, J, side: str = "beta", axis: str = "copies") -> State:
    """Determinant state over the bosonic matrix of generators.

    axis "copies": J lists n distinct copies, rows run over coordinates.
    axis "coords": J lists m distinct coordinates, columns run over copies.
    side "beta" gives charge -|J|, side "gamma" charge +|J|.
    """
    if side not in ("beta", "gamma"):
        raise ValueError(f"side must be beta or gamma, got {side!r}")
    if not sys.bosonic:
        raise ValueError("determinant families need a bosonic sector")
    n, m = sys.bosonic
    J = tuple(J)
    if len(set(J)) != len(J):
        raise ValueError(f"repeated index in {J}")
    if axis == "copies":
        if len(J) != n:
            raise ValueError(f"need {n} copies, got {len(J)}")
        entries = [[(side, J[c], r + 1) for c in range(n)] for r in range(n)]
    elif axis == "coords":
        if len(J) != m:
            raise ValueError(f"need {m} coordinates, got {len(J)}")
        entries = [[(side, c + 1, J[r]) for c in range(m)] for r in range(m)]
    else:
        raise ValueError(f"unknown axis {axis!r}")
    return _det_state(sys, entries)


def mixed_det(sys: SystemSpec) -> State:
    """n x n determinant with columns gamma, beta, gamma, beta, ... one
    pair per copy; needs n = 2m.  Weight m, charge 0."""
    n, m = sys.bosonic
    if n != 2 * m:
        raise ValueError(f"mixed determinant needs n = 2m, got {(n, m)}")
    cols = []
    for j in range(1, m + 1):
        cols.append(("gamma", j))
        cols.append(("beta", j))
    entries = [[(cols[c][0], cols[c][1], r + 1) for c in range(n)] for r in range(n)]
    return _det_state(sys, entries)


def quad_family(group: LieAlgebraSpec, sys: SystemSpec) -> CurrentFamily:
    """Quadratic pairing currents commuting with the left action of group.

    group so_n on S((C^n)^m): copies pair through the symmetric dot
    product; the family realizes sp_2m.  group sp_2n on S((C^{2n})^m):
    copies pair through the split symplectic form; the family realizes
    so_2m in the split basis.  Both use labels m/d/h resp. s/d/h aligned
    with the target algebra basis.
    """
    if not sys.bosonic or sys.fermionic:
        raise ValueError("quadratic pairing families need a pure bosonic system")
    n, m = sys.bosonic
    if group.kind == "so":
        if group.rep_dim != n:
            raise ValueError("group must act on the coordinate space")
        target = sp_any(m)
        states = []
        for lab in target.labels:
            kind, (j, k) = split_label(lab)
            if kind == "m":
                fj, fk = "gamma", "gamma"
            elif kind == "d":
                fj, fk = "beta", "beta"
            else:
                fj, fk = "gamma", "beta"
            states.append(generator_polynomial(sys, [
                (1, [(fj, j, c), (fk, k, c)]) for c in range(1, n + 1)]))
        return CurrentFamily(target, sys, states, "right", "quad_so")
    if group.kind == "sp":
        if group.rep_dim != n or n % 2:
            raise ValueError("group must act on an even coordinate space")
        half = n // 2
        target = make_algebra("so_split", 2 * m)
        states = []
        for lab in target.labels:
            kind, (j, k) = split_label(lab)
            terms = []
            if kind in ("s", "d"):
                fam = "gamma" if kind == "s" else "beta"
                for c in range(1, half + 1):
                    terms.append((1, [(fam, j, c), (fam, k, c + half)]))
                    terms.append((-1, [(fam, j, c + half), (fam, k, c)]))
            else:
                for c in range(1, n + 1):
                    terms.append((1, [("gamma", j, c), ("beta", k, c)]))
            states.append(generator_polynomial(sys, terms))
        return CurrentFamily(target, sys, states, "right", "quad_sp")
    raise ValueError(f"no quadratic pairing family for kind {group.kind!r}")


PAIR_FAMILIES = ("D", "Dprime", "E", "Eprime", "F", "Fprime")


def bc_family(sys: SystemSpec, which: str):
    """Generator families of the fermionic and mixed systems with n = 2.

    psi: the CurrentFamily of gl_m currents sum_a :b^{x_{a,i}} c^{x'_{a,j}}:
    in gl basis order.  The PAIR_FAMILIES come as a list of (label, state)
    pairs, labelled which[i,j]:
    D / Dprime: symmetrized b-b resp. c-c pairs, k <= l.
    E / Eprime, F / Fprime: mixed beta-b / gamma-c pairs and antisymmetrized
    beta-beta / gamma-gamma pairs across the two coordinates.
    """
    if which == "psi":
        if not sys.fermionic:
            raise ValueError("psi needs a fermionic sector")
        n, m = sys.fermionic
        A = make_algebra("gl", m)
        states = []
        for lab in A.labels:
            _, (i, j) = split_label(lab)
            states.append(generator_polynomial(sys, [
                (1, [("b", i, a), ("c", j, a)]) for a in range(1, n + 1)]))
        return CurrentFamily(A, sys, states, "right", "bc_psi")
    if which in ("D", "Dprime"):
        if not sys.fermionic or sys.fermionic[0] != 2:
            raise ValueError("pair determinants need fermionic n = 2")
        fam = "b" if which == "D" else "c"
        m = sys.fermionic[1]
        return [(f"{which}[{k},{l}]", generator_polynomial(sys, [
                    (1, [(fam, k, 1), (fam, l, 2)]),
                    (1, [(fam, l, 1), (fam, k, 2)])]))
                for k in range(1, m + 1) for l in range(k, m + 1)]
    if which in ("E", "Eprime"):
        if not (sys.fermionic and sys.bosonic) or sys.bosonic[0] != 2 \
                or sys.fermionic[0] != 2:
            raise ValueError("mixed pairs need bosonic and fermionic n = 2")
        bos, fer = ("beta", "b") if which == "E" else ("gamma", "c")
        s, r = sys.bosonic[1], sys.fermionic[1]
        return [(f"{which}[{i},{k}]", generator_polynomial(sys, [
                    (1, [(bos, i, 1), (fer, k, 2)]),
                    (-1, [(bos, i, 2), (fer, k, 1)])]))
                for i in range(1, s + 1) for k in range(1, r + 1)]
    if which in ("F", "Fprime"):
        if not sys.bosonic or sys.bosonic[0] != 2:
            raise ValueError("antisymmetric pairs need bosonic n = 2")
        fam = "beta" if which == "F" else "gamma"
        s = sys.bosonic[1]
        return [(f"{which}[{i},{j}]", generator_polynomial(sys, [
                    (1, [(fam, i, 1), (fam, j, 2)]),
                    (-1, [(fam, j, 1), (fam, i, 2)])]))
                for i in range(1, s + 1) for j in range(i + 1, s + 1)]
    raise ValueError(f"unknown family {which!r}")


# Sign conventions of the odd and bosonic blocks of the gl(r|s) family,
# fixed by requiring exact super closure against the glsuper structure
# constants (checked by the test suite on every build).  The bosonic block
# must carry -1; the odd blocks need opposite signs, and the remaining
# overall odd sign is the parity automorphism, fixed here as bg = +1.
_MIXED_EVEN_SIGN = QQ(-1)
_MIXED_BG_SIGN = QQ(1)
_MIXED_BC_SIGN = QQ(-1)


def mixed_psi_family(sys: SystemSpec) -> CurrentFamily:
    """gl(r|s) currents on the mixed system: fermionic copies fill the
    first r rows and columns, bosonic copies the last s."""
    if not (sys.bosonic and sys.fermionic):
        raise ValueError("mixed family needs both sectors")
    nb, s = sys.bosonic
    nf, r = sys.fermionic
    if nb != nf:
        raise ValueError("sectors must share the coordinate count")
    n = nb
    A = make_algebra("glsuper", r, s)
    states = []
    for lab in A.labels:
        _, (Ai, Bi) = split_label(lab)
        if Ai <= r and Bi <= r:
            sign, left, right = ONE, ("b", Ai), ("c", Bi)
        elif Ai > r and Bi > r:
            sign, left, right = _MIXED_EVEN_SIGN, ("beta", Ai - r), ("gamma", Bi - r)
        elif Ai <= r:
            sign, left, right = _MIXED_BG_SIGN, ("b", Ai), ("gamma", Bi - r)
        else:
            sign, left, right = _MIXED_BC_SIGN, ("beta", Ai - r), ("c", Bi)
        states.append(generator_polynomial(sys, [
            (sign, [(*left, a), (*right, a)]) for a in range(1, n + 1)]))
    return CurrentFamily(A, sys, states, "right", "mixed_glrs")


GENERATOR_SETS = ("right_gl_currents", "bc_psi_dets", "mixed_all")


def symbol_generators(sys: SystemSpec, name: str) -> list:
    """Degree-2 symbols of the nonzero states of a named generator set:
    right_gl_currents, the right gl_m currents of a betagamma system;
    bc_psi_dets, the psi currents with the D and Dprime pairs; mixed_all,
    the gl(r|s) currents with every pair family."""
    if name == "right_gl_currents":
        gens = theta(make_algebra("gl", sys.bosonic[1]), sys, "right").states
    elif name == "bc_psi_dets":
        gens = bc_family(sys, "psi").states + tuple(
            st for which in ("D", "Dprime") for _, st in bc_family(sys, which))
    elif name == "mixed_all":
        gens = mixed_psi_family(sys).states + tuple(
            st for which in PAIR_FAMILIES for _, st in bc_family(sys, which))
    else:
        raise ValueError(f"unknown generator set {name!r}")
    return [symbol(st, 2) for st in gens if not st.is_zero()]


def commutant_check(v: State, F: CurrentFamily):
    """Does every family current annihilate v under all nonnegative
    products?  Products vanish identically once n exceeds wt(v), so the
    check is finite.  Returns (True, None) or (False, (label, n, product))."""
    w = state_weight(v)
    for lab, th in F.items():
        for n in range(0, w + 1):
            p = nth_product(th, v, n)
            if not p.is_zero():
                return False, (lab, n, p)
    return True, None


def _modes(sys: SystemSpec, weight: int) -> list:
    """The creation modes (generator index, m) of weight at most `weight`,
    sorted, each as (mode, its weight, parity, charge)."""
    return [((g.index, -1 - depth), g.weight + depth, g.parity, g.charge)
            for g in sys.generators
            for depth in range(weight - g.weight, -1, -1)]


def component_monomials(sys: SystemSpec, weight: int, maxdeg: int, charge=None,
                        torus=None):
    """Canonical monomials of exact weight, degree <= maxdeg, optionally
    fixed total charge, in canonical sort order: the
    `diffalg.graded_multisets` of the creation modes, each of degree 1.

    torus, when given, maps each creation mode to its integer torus
    weight vector, and only the monomials of torus weight 0 are produced,
    cut inside the enumeration."""
    modes = _modes(sys, weight)
    tws = [torus[mode] for mode, *_ in modes] if torus else None
    atoms = [(w, 1, odd) for _, w, odd, _ in modes]
    return [tuple(modes[i][0] for i in tup)
            for tup in graded_multisets(atoms, weight, 0, maxdeg, tws)
            if charge is None or sum(modes[i][3] for i in tup) == charge]


def _copy_charge_key(sys, mono):
    slots, charge = sys.slots, sys.charge
    counts = {}
    for gi, _ in mono:
        s = slots[gi]
        counts[s] = counts.get(s, 0) + charge[gi]
    return tuple(sorted((s, ch) for s, ch in counts.items() if ch))


def _products(F: CurrentFamily, v: State, modes):
    """Every term of th o_n v as ((label, n, monomial), c), for each
    current th of F and each n in modes: c is an int of the product's
    integer form (`State.integral`), whose den is th's den times v's, so
    c is den(th) den(v) times the coefficient."""
    for lab, th in F.items():
        for n in modes:
            for tm, c in nth_product(th, v, n).integral()[0].items():
                yield (lab, n, tm), c


def state_invariant_basis(F: CurrentFamily, weight: int, maxdeg: int,
                          cap: int = 20000, pairs=None) -> int:
    """Dimension of the joint kernel of all nonnegative products with the
    family currents on the span of monomials of the given exact weight and
    degree <= maxdeg: the sum over blocks of the dimensions
    `diffalg.invariant_orbits` returns, each block its own orbit.  A
    ResourceCapError when the component has more than cap monomials, all
    degrees <= maxdeg counted together and every monomial, not only the
    torus-weight-0 ones that are solved; they are counted, not built.

    The atoms are the creation modes.  Products vanish beyond
    wt(th) + weight - 1, and the equations are written for every such
    (current, mode) unless pairs is given: the (i, n) that stand for
    th_i o_n, or a function that returns them given the torus operators
    `invariant_orbits` finds diagonal, which the caller vouches have the
    same kernel (`state_dims`).  The torus is read off the th o_0, each
    a derivation of every product, so the kernel lies in the span of the
    torus-weight-0 monomials, and its dimension depends on neither the
    row order nor the column order.  Left families preserve the per-copy
    charge, so the solve splits into blocks by it.  The images are the
    int forms of the products (`State.integral`), each operator's scaled
    by its current's den alone: that keeps its kernel and the zero sums
    of its torus eigenvalues, while a scale per monomial would change the
    eigenvalue ratios the torus is read off."""
    sys = F.sys
    modes = _modes(sys, weight)
    size = sum(monomial_counts([(w, odd) for _, w, odd, _ in modes],
                               weight, maxdeg))
    if size > cap:
        raise ResourceCapError(cap, size)
    if pairs is None:
        pairs = [(i, n) for i, th in enumerate(F.states)
                 for n in range(state_weight(th) + weight)]

    def image(mono, ops):
        v = State(sys, integral=({mono: 1}, 1))
        return [nth_product(F.states[i], v, n).integral()[0] for i, n in ops]

    block = ((lambda mo: _copy_charge_key(sys, mo)) if F.side == "left"
             else (lambda mo: ()))
    return sum(dim for _, dim in invariant_orbits(
        [mode for mode, *_ in modes],
        lambda torus: component_monomials(sys, weight, maxdeg, torus=torus),
        [(i, 0) for i in range(len(F.states))], pairs, image, block))


def _realizes_current_algebra(F: CurrentFamily) -> bool:
    """The closure check of `state_dims`, on the integer forms of the
    products (`State.sub` combines them by `linalg.common_denominator`)."""
    A, states = F.algebra, F.states
    return all(th.is_zero() or gradings(th)[0] == 1 for th in states) and all(
        nth_product(a, b, 0).sub(F.current(A.structure(i, j))).is_zero()
        and nth_product(a, b, 1).integral()[0].keys() <= {()}
        for i, a in enumerate(states) for j, b in enumerate(states))


def state_dims(F: CurrentFamily, max_weight: int, maxdeg: int,
               cap: int = 20000) -> list:
    """`state_invariant_basis` at each weight 0..max_weight, on a
    generating set of g[t] where the family's modes are shown to realize
    it, and on every mode otherwise.

    Closure check, run once: every nonzero current has weight 1, and for
    every basis pair (a, b), th^a o_0 th^b = th^[a,b] and th^a o_1 th^b =
    k(a,b)|0>.  Then th^a o_j th^b has weight 1 - j < 0 for j >= 2, so it
    is 0, and the commutator formula gives [th^a_(m), th^b_(n)] =
    th^[a,b]_(m+n) + m k(a,b) |0>_(m+n-1).  The central term vanishes for
    m, n >= 0: |0>_(k) is 0 unless k = -1, that is m = n = 0, where the
    factor m is 0.  So x t^n -> th^x_(n), n >= 0, is a Lie map from g[t],
    and th_(n) for n > w maps weight w below 0, so on weight w the modes
    realize g[t]/t^(w+1).  If X and Y kill v then so does [X, Y], so the
    pairs of `current_generators(A, max_weight)` with r <= w, which
    generate it, have the kernel of every mode there.  They are computed
    once.  (For a superalgebra they are every pair, so every mode.)

    Torus guard: `diffalg.root_cut` cuts the pairs with r = 0 to simple
    root vectors.  Its proof needs each basis element h of its torus
    (`liealg.diagonal_basis`) to act diagonally on the component.  So at
    weight w the cut pairs are used only when `invariant_orbits` finds
    every th^h o_0 diagonal on the creation modes of weight <= w: a
    derivation, it is then diagonal on every monomial, it is read as part
    of the torus, and every column solved has torus weight 0 under it.
    The component is a g-module on which the torus, which holds the
    centre, acts diagonally, and root_cut's argument gives the same
    kernel.  Otherwise the pairs are used uncut."""
    if not _realizes_current_algebra(F):
        return [state_invariant_basis(F, w, maxdeg, cap)
                for w in range(max_weight + 1)]
    A = F.algebra
    pairs = current_generators(A, max_weight)
    cut = root_cut(A, pairs)
    torus = [(i, 0) for i in diagonal_basis(A)]

    def ops(w):
        return lambda diag: [p for p in (
            cut if all(h in diag for h in torus) else pairs) if p[1] <= w]

    return [state_invariant_basis(F, w, maxdeg, cap, ops(w))
            for w in range(max_weight + 1)]


def invariant_lift_search(F: CurrentFamily, target: State, maxdeg: int,
                          modes, cap: int = 20000) -> dict:
    """Search for a correction X (same weight and charge as target, degree
    <= maxdeg) with every listed product theta o_n (target + X) = 0.

    Left families preserve per-copy charges, so candidates can be cut to
    the target's charge block without losing solutions; corrections outside
    the block satisfy a homogeneous system on their own.  Returns a report
    with feasibility, the coefficient rank and the system size.

    The rows are those of `_products`: each belongs to one current th and
    is scaled by den(th), so a unit monomial's entry is an int and the
    right-hand side is -c/den(target).  Scaling rows keeps the reduced
    echelon rows, and so the solution and the rank.
    """
    sys = F.sys
    w, ch, _ = gradings(target)
    if w is None or ch is None:
        raise ValueError("target must be weight and charge homogeneous")
    cands = component_monomials(sys, w, maxdeg, charge=ch)
    if F.side == "left":
        keys = {_copy_charge_key(sys, mo) for mo in target.integral()[0]}
        if len(keys) == 1:
            key = keys.pop()
            cands = [mo for mo in cands if _copy_charge_key(sys, mo) == key]
    if len(cands) > cap:
        raise ResourceCapError(cap, len(cands))
    den = target.integral()[1]
    rows = {key: [{}, QQ(-c, den)] for key, c in _products(F, target, modes)}
    for mo in cands:
        for key, c in _products(F, State(sys, integral=({mo: 1}, 1)),
                                modes):
            rows.setdefault(key, [{}, 0])[0][mo] = c  # [equation, rhs]
    sol, rank = solve_affine([eq for eq, _ in rows.values()],
                             [b for _, b in rows.values()], cands)
    report = {
        "feasible": sol is not None,
        "rank": rank,
        "unknowns": len(cands),
        "equations": len(rows),
    }
    if sol is not None:
        correction = State(sys, {mo: c for mo, c in sol.items() if c})
        report["correction"] = state_to_text(correction)
    return report


def sec4_identity(sys: SystemSpec, J=None, Jp=None) -> dict:
    """Exact identity tying the charge element to determinant pairs:

        e o_1 :D_J dD'_{J'}:  =  n * :D_J D'_{J'}:  -  n * d(D_J o_0 D'_{J'})

    with the normally ordered product of full degree 2n and the zeroth
    product of degree at most 2n - 2, so the left side escapes the
    degree-(2n-2) filtration piece.  A commonly printed variant without
    the factor n and the derivative on the correction term is weight
    inhomogeneous and cannot hold; its failure is reported alongside."""
    n, m = sys.bosonic
    J = tuple(J) if J else tuple(range(1, n + 1))
    Jp = tuple(Jp) if Jp else tuple(range(1, n + 1))
    D = det_family(sys, J, side="beta")
    Dp = det_family(sys, Jp, side="gamma")
    _, _, e = conformal_and_charge(sys)
    lhs = nth_product(e, nth_product(D, derivative(Dp), -1), 1)
    prod = nth_product(D, Dp, -1)
    low = nth_product(D, Dp, 0)
    rhs = prod.scale(QQ(n)).sub(derivative(low).scale(QQ(n)))
    printed = prod.sub(low.scale(QQ(n)))
    return {
        "holds": lhs.sub(rhs).is_zero(),
        "printed_form_holds": lhs.sub(printed).is_zero(),
        "normal_degree": gradings(prod)[2],
        "zeroth_degree": gradings(low)[2],
        "escapes_lower_filtration": gradings(lhs)[2] == 2 * n,
        "n": n,
    }


def correct_det_relation(sys: SystemSpec, cap: int) -> tuple:
    """`quantum_correct` on the classical relation d d' = det(q_ab) of a
    betagamma system with n = m: d, d' the beta and gamma determinants over
    all copies, q_ab the right gl_m currents.  Returns (the result, whether
    the Wick re-expansion of its accumulated polynomial vanishes, whether
    the length-2 part of that polynomial is the relation itself)."""
    n, m = sys.bosonic
    indices = tuple(range(1, n + 1))
    DJ = det_family(sys, indices, side="beta")
    DJp = det_family(sys, indices, side="gamma")
    gens = [("d", symbol(DJ, n), DJ), ("dp", symbol(DJp, n), DJp)]
    weights = {"d": n, "dp": 0}
    for lab, st in theta(make_algebra("gl", m), sys, "right").items():
        _, (a, b) = split_label(lab)
        gens.append((f"q{a}{b}", symbol(st, 2), st))
        weights[f"q{a}{b}"] = 1

    def var(name):
        return abstract_var(name, 0, 0, weights[name])

    p = monomial_from_factors([var("d"), var("dp")], 1)
    for perm in permutations(range(1, m + 1)):
        factors = [var(f"q{a}{b}") for a, b in zip(range(1, m + 1), perm)]
        axpy(p, monomial_from_factors(factors, -perm_sign(perm)))
    res = quantum_correct(p, gens, sys, cap=cap)
    by_name = {name: st for name, _sym, st in gens}
    reexpanded = wick_expand(res.total, lambda v: by_name[v.family], sys)
    top = {mono: c for mono, c in res.total.items() if len(mono) == 2}
    return res, reexpanded.is_zero(), top == p

"""
Zero modes of Fock states on polynomial states, Zhu's star product, and
their classical counterparts.  A polynomial in the variables x'[i,j] is a
weight-0 state of a betagamma system, x'[i,j] = gamma(-1) of coordinate i
of copy j.  The zero modes come from `fock.zhu_zero_mode`, the engine's
one integer product pass with the mode a(wt-1) of each monomial of a.
Weyl algebra elements remain only for the classical determinant of
derivatives and for witness text.
"""

from itertools import permutations, product as iproduct

from .constructions import component_monomials, det_family
from .diffalg import falling
from .linalg import axpy, perm_sign
from .rationals import QQ, ONE, qstr
from .fock import State, binom, nth_product, state_weight, zhu_zero_mode


# A WeylElement is a dict {(alpha, beta): QQ} where alpha and beta are
# sorted tuples of variable keys (i, j) with repetition: the normal-form
# monomial x'^alpha d^beta, all x' factors left of all d factors.


def weyl_term(c, alpha=(), beta=()) -> dict:
    c = QQ(c)
    return {(tuple(sorted(alpha)), tuple(sorted(beta))): c} if c else {}


def _counts(tup) -> dict:
    out: dict = {}
    for v in tup:
        out[v] = out.get(v, 0) + 1
    return out


def _tup(counts) -> tuple:
    out = []
    for v in sorted(counts):
        out.extend([v] * counts[v])
    return tuple(out)


def normal_form_product(u: dict, v: dict) -> dict:
    """Associative product with all x' moved left of all d:
    d^b x'^a = sum_k prod_v binom(b_v,k_v) * a_v!/(a_v-k_v)! x'^{a-k} d^{b-k}.
    """
    out: dict = {}
    for (a1, b1), c1 in u.items():
        bc = _counts(b1)
        for (a2, b2), c2 in v.items():
            ac = _counts(a2)
            shared = [v_ for v_ in bc if v_ in ac]
            ranges = [range(min(bc[v_], ac[v_]) + 1) for v_ in shared]
            # distinct ks give distinct monomials, each with a positive
            # integer coefficient
            terms = {}
            for ks in iproduct(*ranges):
                coeff = 1
                na, nb = dict(ac), dict(bc)
                for v_, k in zip(shared, ks):
                    if k:
                        coeff *= binom(bc[v_], k) * falling(ac[v_], k)
                        na[v_] -= k
                        nb[v_] -= k
                alpha = tuple(sorted(a1 + _tup(na)))
                beta = tuple(sorted(_tup(nb) + b2))
                terms[(alpha, beta)] = coeff
            axpy(out, terms, c1 * c2)
    return out


def apply_weyl(w: dict, q: dict) -> dict:
    """Operator w acting on the polynomial q (pure x' element); terms with
    leftover derivatives annihilate the constant 1 and drop out."""
    for a, b in q:
        if b:
            raise ValueError("polynomial argument must be derivative-free")
    full = normal_form_product(w, q)
    return {mono: c for mono, c in full.items() if not mono[1]}


def weyl_to_text(w: dict) -> str:
    """Canonical text: terms sorted, "p/q * x'[i,j]^a d[i,j]^b"."""
    if not w:
        return "0"
    parts = []
    for alpha, beta in sorted(w):
        c = w[(alpha, beta)]
        facs = []
        for name, tup in (("x'", alpha), ("d", beta)):
            cnt = _counts(tup)
            for (i, j) in sorted(cnt):
                e = cnt[(i, j)]
                facs.append(f"{name}[{i},{j}]" + (f"^{e}" if e > 1 else ""))
        parts.append(f"{qstr(c)} * " + (" ".join(facs) if facs else "1"))
    return " + ".join(parts)


# -- classical determinants --------------------------------------------------


def classical_dets(shape, J) -> dict:
    """Commutative n x n determinant of the derivatives d[i, j] over the
    copies j in J."""
    n, m = shape
    J = tuple(J)
    if len(set(J)) != len(J):
        raise ValueError(f"repeated index in {J}")
    if len(J) != n:
        raise ValueError(f"need {n} distinct copies, got {len(J)}")
    out: dict = {}
    for perm in permutations(range(n)):
        vars_ = tuple((r + 1, J[perm[r]]) for r in range(n))
        axpy(out, weyl_term(QQ(perm_sign(perm)), beta=vars_))
    return out


# -- Zhu-side checks ---------------------------------------------------------


def poly_monomials(sys, maxdeg: int) -> list:
    """The monomial states of weight 0 and degree <= maxdeg, sorted:
    `constructions.component_monomials(sys, 0, maxdeg)`.  On a betagamma
    system these are the gamma(-1) monomials, the x'-monomials."""
    if sys.fermionic:
        raise ValueError("polynomial states need a pure betagamma system")
    return [State(sys, {mono: ONE})
            for mono in component_monomials(sys, 0, maxdeg)]


def decode_polynomial(a: State) -> dict:
    """The polynomial state a as a derivative-free Weyl element."""
    out: dict = {}
    sys = a.sys
    for mono, c in a.terms.items():
        alpha = []
        for gi, mm in mono:
            g = sys.generators[gi]
            if g.family != "gamma" or mm != -1:
                raise ValueError("state is not a polynomial in the coordinates")
            alpha.append((g.coord, g.copy))
        axpy(out, {(tuple(sorted(alpha)), ()): c})
    return out


def zhu_star(a: State, b: State) -> State:
    """Zhu's star product sum_j binom(m,j) a o_{j-1} b, m the weight of a."""
    m = state_weight(a)
    star = State(a.sys, {})
    for j in range(0, m + 1):
        c = binom(m, j)
        if c:
            star = star.add(nth_product(a, b, j - 1).scale(c))
    return star


def zhu_det_mismatch(sys, J, polys):
    """The first polynomial state q in polys on which the zero mode of the
    beta determinant state D_J differs from the classical determinant of
    derivatives over the copies J, as Weyl elements (q, zero-mode image,
    classical image); None when the two agree on every q."""
    DJ = det_family(sys, J, side="beta")
    dd = classical_dets(sys.bosonic, J)
    for q in polys:
        qw = decode_polynomial(q)
        got, want = decode_polynomial(zhu_zero_mode(DJ, q)), apply_weyl(dd, qw)
        if got != want:
            return qw, got, want
    return None

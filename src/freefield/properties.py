"""Seeded random self-checks of the mode engine identities.

Six families of identities are exercised on small random states:
skew-symmetry, the commutator formula, pull-off independence of the
product recursion, derivation laws for the translation operator,
weight/charge additivity, and filtration degree bounds.  Every check
returns (ok, witness); run_property_suite drives all six from one seed
and is shared by the test suite and the verification harness.  Two more
seeded checks tie the engine to the jet action (jet_equivariance, on
integers, once per distinct sampled monomial, both sides scaled by the k!
of each monomial's factors) and to Zhu's algebra (zhu_star_check).
"""

import random
from math import factorial, gcd, prod

from .rationals import QQ
from .fock import (State, apply_mode, binom, derivative, gradings,
                   monomial_state, nth_product, parity_of, state_to_text,
                   state_weight, vacuum)
from .constructions import build_system
from .diffalg import (JetImages, coding, integer_matrices, lie_jet_action,
                      symbol, symbol_var, varspace_for_system)
from .linalg import koszul_sort
from .weyl import zhu_star, zhu_zero_mode


CHECKS = (
    "skew_symmetry",
    "commutator_formula",
    "pull_off_independence",
    "derivation_laws",
    "weight_charge_additivity",
    "filtration_bounds",
)


def default_systems():
    """One bosonic, one fermionic and one mixed system; small on purpose."""
    return (
        build_system(bosonic=(2, 1)),
        build_system(fermionic=(2, 1)),
        build_system(bosonic=(1, 1), fermionic=(1, 1)),
    )


def random_monomial(sys, rng, max_len=2, max_depth=1):
    """Nonzero single-monomial state with a small rational coefficient,
    num/den in lowest terms, built as its integer form."""
    while True:
        modes = []
        for _ in range(rng.randrange(1, max_len + 1)):
            gi = rng.randrange(len(sys.generators))
            modes.append((gi, -1 - rng.randrange(0, max_depth + 1)))
        num = rng.randrange(1, 4) * (1 if rng.random() < 0.5 else -1)
        den = rng.randrange(1, 3)
        g = gcd(num, den)
        a = monomial_state(sys, modes, num // g, den // g)
        if not a.is_zero():
            return a


def _koszul(a, b):
    return -1 if (parity_of(a) and parity_of(b)) else 1


def check_skew_symmetry(a, b, n):
    """a o_n b against the derivative-twisted sum over b o_{n+j} a."""
    wa, wb = state_weight(a), state_weight(b)
    rhs = State(a.sys)
    for j in range(0, max(wa + wb - n, 0)):
        term = nth_product(b, a, n + j)
        if term.is_zero():
            continue
        for _ in range(j):
            term = derivative(term)
        rhs = rhs.add(term.scale(QQ((-1) ** ((n + j + 1) & 1), factorial(j))))
    diff = nth_product(a, b, n).sub(rhs.scale(_koszul(a, b)))
    if diff.is_zero():
        return True, None
    return False, f"n={n}: residual {state_to_text(diff)}"


def check_commutator_formula(a, b, c, m, n):
    """[a_(m), b_(n)] acting on c versus the binomial sum, m, n >= 0."""
    lhs = nth_product(a, nth_product(b, c, n), m).sub(
        nth_product(b, nth_product(a, c, m), n).scale(_koszul(a, b))
    )
    rhs = State(a.sys)
    wa, wb = state_weight(a), state_weight(b)
    for j in range(0, max(wa + wb, 0)):
        coeff = binom(m, j)
        if not coeff:
            continue
        rhs = rhs.add(nth_product(nth_product(a, b, j), c, m + n - j).scale(coeff))
    diff = lhs.sub(rhs)
    if diff.is_zero():
        return True, None
    return False, f"m={m} n={n}: residual {state_to_text(diff)}"


def one_step_product(phi, m0, u, b, n):
    """nth product of phi(m0)u with b reduced by a single strip step,
    written with public mode operations only; the engine recursion must
    agree no matter which mode the caller stripped."""
    sys = u.sys
    wu, wb = state_weight(u), state_weight(b)
    out = State(sys)
    for j in range(0, max(wu + wb - n, 0)):
        inner = nth_product(u, b, n + j)
        if inner.is_zero():
            continue
        coeff = ((-1) ** (j & 1)) * binom(m0, j)
        out = out.add(apply_mode(phi, m0 - j, inner).scale(coeff))
    cross = -1 if (sys.parity[phi.index] and parity_of(u)) else 1
    second = QQ(-((-1) ** (m0 & 1)) * cross)
    depth = max((-p - 1 for mono in b.integral()[0] for _, p in mono),
                default=-1)
    for j in range(0, depth + 1):
        hit = apply_mode(phi, j, b)
        if hit.is_zero():
            continue
        coeff = second * ((-1) ** (j & 1)) * binom(m0, j)
        out = out.add(nth_product(u, hit, m0 + n - j).scale(coeff))
    return out


def check_pull_off_independence(a, b, n, pos):
    """Strip the mode at position pos of the monomial a instead of the
    first one and compare with the engine."""
    ((mono, ca),) = a.terms.items()
    gi, m0 = mono[pos % len(mono)]
    rest = mono[: pos % len(mono)] + mono[pos % len(mono) + 1 :]
    u = State(a.sys, {rest: QQ(1)})
    phi = a.sys.generators[gi]
    back = apply_mode(phi, m0, u)
    if list(back.terms) != [mono]:
        return False, f"re-insertion of {phi.token()}({m0}) failed"
    sign = back.terms[mono]
    got = one_step_product(phi, m0, u, b, n).scale(ca / sign)
    diff = got.sub(nth_product(a, b, n))
    if diff.is_zero():
        return True, None
    return False, f"n={n} pos={pos}: residual {state_to_text(diff)}"


def check_derivation_laws(a, b, n):
    """Translation is a derivation of every circle product, lowers the
    first slot to -n times the next product down, and agrees with the
    (-2)-product against the vacuum."""
    lhs = derivative(nth_product(a, b, n))
    rhs = nth_product(derivative(a), b, n).add(nth_product(a, derivative(b), n))
    if not lhs.sub(rhs).is_zero():
        return False, f"n={n}: product rule residual"
    slot = nth_product(derivative(a), b, n).sub(nth_product(a, b, n - 1).scale(-n))
    if not slot.is_zero():
        return False, f"n={n}: first-slot law residual {state_to_text(slot)}"
    vac = vacuum(a.sys)
    if not derivative(a).sub(nth_product(a, vac, -2)).is_zero():
        return False, "derivative disagrees with the (-2)-product on vacuum"
    return True, None


def check_weight_charge_additivity(a, b, n):
    wa, ca_, _ = gradings(a)
    wb, cb_, _ = gradings(b)
    p = nth_product(a, b, n)
    if p.is_zero():
        return True, None
    w, c, _ = gradings(p)
    if w == wa + wb - n - 1 and c == ca_ + cb_:
        return True, None
    return False, f"n={n}: gradings ({w}, {c}) from ({wa},{ca_}) and ({wb},{cb_})"


def check_filtration_bounds(a, b, n):
    _, _, da = gradings(a)
    _, _, db = gradings(b)
    p = nth_product(a, b, n)
    if p.is_zero():
        return True, None
    _, _, dp = gradings(p)
    bound = da + db if n < 0 else da + db - 2
    if dp <= bound:
        return True, None
    return False, f"n={n}: degree {dp} exceeds {bound}"


def run_property_suite(seed=0, instances=200):
    """Run every check on `instances` fresh random instances; returns a
    report dict keyed by check name."""
    rng = random.Random(seed)
    systems = default_systems()
    report = {
        name: {"instances": 0, "failures": 0, "witness": None} for name in CHECKS
    }

    def record(name, ok, witness):
        entry = report[name]
        entry["instances"] += 1
        if not ok:
            entry["failures"] += 1
            if entry["witness"] is None:
                entry["witness"] = witness

    for i in range(instances):
        sys = systems[i % len(systems)]
        a = random_monomial(sys, rng)
        b = random_monomial(sys, rng)
        c = random_monomial(sys, rng)
        wa, wb = state_weight(a), state_weight(b)
        n = rng.randrange(-2, max(wa + wb, 0) + 1)
        record("skew_symmetry", *check_skew_symmetry(a, b, n))
        m_c, n_c = rng.randrange(0, 3), rng.randrange(0, 3)
        record("commutator_formula", *check_commutator_formula(a, b, c, m_c, n_c))
        record(
            "pull_off_independence",
            *check_pull_off_independence(a, b, n, rng.randrange(0, 4)),
        )
        record("derivation_laws", *check_derivation_laws(a, b, n))
        record("weight_charge_additivity", *check_weight_charge_additivity(a, b, n))
        record("filtration_bounds", *check_filtration_bounds(a, b, n))
    return report


def jet_equivariance(F, seed: int, samples: int) -> tuple:
    """symbol(theta o_r v, deg v) must equal the jet action of xi t^r on
    symbol(v, deg v) for every basis xi of the left family F, r = 0, 1, 2
    and `samples` random monomials v drawn from the seed.  Returns (number
    of failures, the first as (label, r, v, engine side, jet side) or
    None).

    Both sides are linear in v, so v = c*m passes where its unit monomial
    m does: each distinct m is checked once, and its failures count again
    for each sample that repeats it.  The symbol of m is sign/P(m) times
    its sorted variables, P the product of the k! of the factors' orders
    k.  Scaling each monomial K by P(K), a bijection on polynomials, takes
    the engine side, ints/den = theta o_r m, to lhs[K]/den at the K of
    each top-degree m', lhs[K] = sign*ints[m'], and the jet side to
    rhs[K]*P(K)/(s*P(m)), rhs the tables of s times xi t^r
    (`integer_matrices`) applied to sign times m's sorted variables.  So
    the sides agree when they have the same monomials and
    lhs*P(m)*s == rhs*den*P(K) on each.  The variables are int codes
    (`coding`) of the symbol variables of orders 0..2, the sampler's, and
    of their images under each xi t^r, which for a left family are among
    them."""
    sys, A = F.sys, F.algebra
    space = varspace_for_system(sys)
    mats = [integer_matrices(space.action_for(A, i)) for i in range(A.dim)]
    base = {(g.index, -k - 1): symbol_var(g.family, g.copy, g.coord, k)
            for g in sys.generators for k in range(3)}
    code, parity, _ = coding(sorted(set(base.values()).union(
        w for cols, _ in mats for r in range(3) for v in base.values()
        for w, _ in JetImages(cols, r)[v])))
    mode_code = {md: code[v] for md, v in base.items()}.__getitem__
    fact = [factorial(v.order) for v in code].__getitem__
    checks = [(i, th, s, r, JetImages(cols, r, code))
              for i, (th, (cols, s)) in enumerate(zip(F.states, mats))
              for r in range(3)]
    rng = random.Random(seed)
    memo: dict = {}  # monomial -> its failing (current index, r)
    failures, witness = 0, None
    for _ in range(samples):
        v = random_monomial(sys, rng, max_len=3, max_depth=2)
        (mono,) = v.integral()[0]
        dv, bad = len(mono), memo.get(mono)
        if bad is None:
            bad = memo[mono] = []
            km, sign = koszul_sort(list(map(mode_code, mono)), parity)
            pm, unit = prod(map(fact, km)), State(sys, integral=({mono: 1}, 1))
            for i, th, s, r, images in checks:
                ints, den = nth_product(th, unit, r).integral()
                lhs = {}
                for m, c in ints.items():
                    if len(m) > dv:
                        raise ValueError(
                            f"degree {len(m)} exceeds symbol degree {dv}")
                    if len(m) == dv:
                        k, sk = koszul_sort(list(map(mode_code, m)), parity)
                        lhs[k] = sk * c * pm * s
                rhs = lie_jet_action(images, {km: sign}, parity)
                if lhs.keys() != rhs.keys() or any(
                        c != rhs[k] * den * prod(map(fact, k))
                        for k, c in lhs.items()):
                    bad.append((i, r))
        failures += len(bad)
        if bad and witness is None:  # the report shows it over QQ
            i, r = bad[0]
            witness = (A.labels[i], r, v,
                       symbol(nth_product(F.states[i], v, r), dv),
                       lie_jet_action(JetImages(space.action_for(A, i), r),
                                      symbol(v, dv)))
    return failures, witness


def zhu_star_check(sys, polys, seed: int, samples: int) -> tuple:
    """The zero mode of Zhu's star product a * b must act on every
    polynomial state q in polys as that of a after that of b, for
    `samples` random pairs of monomials drawn from the seed.  Returns
    (number of failing pairs, the first as (a, b, q) or None)."""
    rng = random.Random(seed)
    failures, witness = 0, None
    for _ in range(samples):
        a = random_monomial(sys, rng, max_len=2, max_depth=1)
        b = random_monomial(sys, rng, max_len=2, max_depth=1)
        star = zhu_star(a, b)
        for q in polys:
            if zhu_zero_mode(star, q) != zhu_zero_mode(a, zhu_zero_mode(b, q)):
                failures += 1
                if witness is None:
                    witness = (a, b, q)
                break
    return failures, witness

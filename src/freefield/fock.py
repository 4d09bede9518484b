"""Exact Fock-state engine for free-field vertex superalgebras.

States are finite rational combinations of canonical creation-mode
monomials, sorted by (generator, mode) and Koszul-sign normalized by the
one Koszul rule, `linalg.koszul_insert`.  The state <-> field dictionary
:d^{k1}phi_1 ... d^{kr}phi_r:  <->  k1!...kr! phi_1(-k1-1)...phi_r(-kr-1)|0>
lives in `generator_polynomial`, the one builder of normally ordered
generator fields; `diffalg.symbol` is its inverse on top degree.
All circle products are computed by the iterate recursion below, a
one-mode first factor in closed form; weight
and charge homogeneity of every product is checked at run time (also
under `python -O`), not assumed.

The kernel knows the contraction structure: each generator contracts
with exactly one partner, beta_i^(j) with gamma_i^(j) and b_i^(j) with
c_i^(j), recorded in the partner table `SystemSpec.partner`.  The
grading memo keeps, next to the (weight, charge, parity) of each
monomial, two bitmasks: its generators and their partners.  By the zero
lemma proved at `_nth_mono`, a product a o_n b with n >= 0 in which no
factor of a has its partner in b is zero; one `&` of the masks finds
it, and it is neither built nor cached.  Annihilation modes act through
`_contractions`, which visits only the partner's modes.

The kernel is integral: every coefficient of the recursion is a
generalized binomial times a +-1 contraction or Koszul sign, so
`_apply_mode_mono`, `_nth_mono` and the per-system product cache work in
`int`.  So does state arithmetic.  A `State` stores one form, its
integer form (ints, den), its terms being ints/den.  `_product` (behind
`nth_product` and Zhu's zero mode `zhu_zero_mode`, the mode a(wt-1) of
each monomial of a), `apply_mode` and `derivative` run over
`State.integral` of their inputs and return states built from their
integer sums.  `scale`, `add` and `sub` combine integer forms over a
common denominator (`linalg.common_denominator`).  Rationals are formed
only when `State.terms` is read, one QQ per term, kept on the state:
for text, symbols and levels.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from math import comb, factorial

from . import linalg
from .linalg import (Images, apply_derivation, axpy, common_denominator,
                     derive, koszul_insert, koszul_sort)
from .rationals import QQ, qstr, parse_qstr

# family -> (parity, conformal weight, charge) of its generator fields
FAMILIES = {"beta": (0, 1, -1), "gamma": (0, 0, 1), "b": (1, 1, -1), "c": (1, 0, 1)}


class GeneratorId:
    """One free-field generator: family beta/gamma/b/c, copy j, coordinate i.

    Copies index tensor slots (V or its bc analogue); coordinates index a
    basis of V.  Order of construction inside SystemSpec fixes the total
    order used for canonical monomials.
    """

    __slots__ = ("family", "copy", "coord", "parity", "weight", "charge", "index")

    def __init__(self, family: str, copy: int, coord: int, index: int):
        self.family = family
        self.copy = copy
        self.coord = coord
        self.parity, self.weight, self.charge = FAMILIES[family]
        self.index = index

    @property
    def slot(self) -> str:
        return ("f" if self.parity else "b") + str(self.copy)

    def token(self) -> str:
        return f"g[{self.slot},{self.family},{self.coord}]"

    def __repr__(self):
        return self.token()


def env_int(name: str, default, expected: str):
    """The environment variable name as an int, default when it is unset.
    Its value must be ASCII decimal digits only, so no sign, space,
    underscore or other script's digit; ValueError "{name} must be
    {expected}, got {value!r}" otherwise."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    if not (raw.isascii() and raw.isdecimal()):
        raise ValueError(f"{name} must be {expected}, got {raw!r}")
    return int(raw)


class SystemSpec:
    """A free-field system: m_b bosonic copies of C^{n_b} (beta/gamma pairs)
    plus m_f fermionic copies of C^{n_f} (b/c pairs).

    Generators are enumerated in canonical order: bosonic copies first
    (beta before gamma within a copy), then fermionic copies (b before c);
    coordinates ascending inside each family block.
    """

    def __init__(self, bosonic=None, fermionic=None):
        if bosonic is None and fermionic is None:
            raise ValueError("empty system")
        self.bosonic = tuple(bosonic) if bosonic else None
        self.fermionic = tuple(fermionic) if fermionic else None
        gens: list[GeneratorId] = []
        if self.bosonic:
            n, m = self.bosonic
            if n < 1 or m < 1:
                raise ValueError("bosonic shape needs n, m >= 1")
            for j in range(1, m + 1):
                for fam in ("beta", "gamma"):
                    for i in range(1, n + 1):
                        gens.append(GeneratorId(fam, j, i, len(gens)))
        if self.fermionic:
            n, m = self.fermionic
            if n < 1 or m < 1:
                raise ValueError("fermionic shape needs n, m >= 1")
            for j in range(1, m + 1):
                for fam in ("b", "c"):
                    for i in range(1, n + 1):
                        gens.append(GeneratorId(fam, j, i, len(gens)))
        self.generators = tuple(gens)
        self._lookup = {
            (g.family, g.copy, g.coord): g.index for g in self.generators
        }
        self.parity = tuple(g.parity for g in gens)
        self.weight = tuple(g.weight for g in gens)
        self.charge = tuple(g.charge for g in gens)
        # (parity, copy) of each generator: its tensor slot as ints
        self.slots = tuple((g.parity, g.copy) for g in gens)
        # partner[gi] = (gj, phi o_0 psi): the one generator psi that phi
        # contracts with, and the +-1 of that contraction.  Both families
        # of a pair are built for every copy and coordinate, so every
        # generator has its partner
        family = {"beta": ("gamma", 1), "gamma": ("beta", -1),
                  "b": ("c", 1), "c": ("b", 1)}
        self.partner = tuple(
            (self._lookup[(family[g.family][0], g.copy, g.coord)],
             family[g.family][1]) for g in gens)
        # the translation's table of mode images, phi(m) -> -m phi(m-1)
        self.translation = Images(lambda md: [((md[0], md[1] - 1), -md[1])])
        self._nth_cache: dict = {}
        # monomial -> (weight, charge, parity, generator mask, partner
        # mask), filled by `_grade`
        self._grading: dict = {}
        # the most entries the product cache and the grading memo each
        # keep; 0 turns both off
        self._cache_cap = env_int("FREEFIELD_CACHE_CAP", 1000000,
                                  "a non-negative integer")

    def gen(self, family: str, copy: int, coord: int) -> GeneratorId:
        key = (family, copy, coord)
        if key not in self._lookup:
            raise KeyError(f"no generator {key} in this system")
        return self.generators[self._lookup[key]]

    def mode_parity(self, mode) -> int:
        """Parity of a mode (generator index, m), the `parity` argument of
        the Koszul rule `linalg.koszul_insert`."""
        return self.parity[mode[0]]


class State:
    """Finite map canonical monomial -> nonzero QQ; immutable by convention.

    A monomial is a tuple of modes (generator index, m <= -1) sorted
    ascending by (index, m); the empty tuple is the vacuum.

    A state stores one form, its integer form (ints, den): an int per
    monomial and a positive int den, the terms being ints/den.
    State(sys, {mono: QQ}) clears the denominators of its terms once
    (`linalg.integral`); State(sys, integral=(ints, den)) takes the form
    as it is.  `terms` is a read-only QQ view of it.
    """

    __slots__ = ("sys", "_integral", "_terms")

    def __init__(self, sys: SystemSpec, terms: dict | None = None,
                 integral=None):
        self.sys = sys
        self._integral = integral or linalg.integral(terms or {})
        self._terms = None

    @property
    def terms(self) -> dict:
        """monomial -> QQ, read-only: formed from the integer form, one QQ
        per term, on first read and kept."""
        if self._terms is None:
            ints, den = self._integral
            self._terms = ({m: QQ(c) for m, c in ints.items()} if den == 1
                           else {m: QQ(c, den) for m, c in ints.items()})
        return self._terms

    def integral(self):
        """The stored integer form (ints, den): den*terms as an int dict
        and a positive int den, not necessarily least."""
        return self._integral

    def is_zero(self) -> bool:
        return not self._integral[0]

    def scale(self, c) -> "State":
        ints, den = self.integral()
        _, k, den = common_denominator(1, den, c)
        if not k:
            return State(self.sys)
        return State(self.sys, integral=(
            {m: k * v for m, v in ints.items()}, den))

    def add(self, other: "State", scale=1) -> "State":
        """self + scale*other, over the common denominator of the two
        integer forms."""
        _check_same_system(self, other)
        ia, da = self.integral()
        ib, db = other.integral()
        ka, kb, den = common_denominator(da, db, scale)
        out = dict(ia) if ka == 1 else {m: ka * v for m, v in ia.items()}
        if kb:
            axpy(out, ib, kb)
        return State(self.sys, integral=(out, den))

    def sub(self, other: "State") -> "State":
        return self.add(other, -1)

    def __eq__(self, other):
        if not (isinstance(other, State) and self.sys is other.sys):
            return False
        ia, da = self.integral()
        ib, db = other.integral()
        return ia.keys() == ib.keys() and all(
            c * db == ib[m] * da for m, c in ia.items())

    def __hash__(self):
        raise TypeError("states are not hashable")

    def __repr__(self):
        return f"State({state_to_text(self)})"


def _check_same_system(a: State, b: State):
    if a.sys is not b.sys:
        raise ValueError("states from different systems")


def vacuum(sys: SystemSpec) -> State:
    return State(sys, integral=({(): 1}, 1))


def zero(sys: SystemSpec) -> State:
    return State(sys)


def binom(m: int, j: int) -> int:
    """Generalized binomial m(m-1)...(m-j+1)/j!, any integer m, j >= 0:
    C(m, j) for m >= 0, and (-1)^j C(j-m-1, j) for m < 0, since then
    m(m-1)...(m-j+1) = (-1)^j (j-m-1)(j-m-2)...(-m)."""
    if j < 0:
        raise ValueError("binom needs j >= 0")
    if m >= 0:
        return comb(m, j)
    return -comb(j - m - 1, j) if j & 1 else comb(j - m - 1, j)


# -- monomial helpers -------------------------------------------------------


def _grade(sys: SystemSpec, mono) -> tuple:
    """(weight, charge, parity, gens, partners) of a monomial: gens has
    bit gi set for each generator gi among its modes, partners the bit of
    each of their partners.  Computed from its modes on first use and
    memoized on the system while the memo is under the cache cap."""
    grade = sys._grading.get(mono)
    if grade is None:
        weight = charge = parity = gens = partners = 0
        for gi, m in mono:
            weight += -m - 1 + sys.weight[gi]
            charge += sys.charge[gi]
            parity ^= sys.parity[gi]
            gens |= 1 << gi
            partners |= 1 << sys.partner[gi][0]
        grade = (weight, charge, parity, gens, partners)
        if len(sys._grading) < sys._cache_cap:
            sys._grading[mono] = grade
    return grade


def mono_weight(sys: SystemSpec, mono) -> int:
    return _grade(sys, mono)[0]


def mono_charge(sys: SystemSpec, mono) -> int:
    return _grade(sys, mono)[1]


def mono_parity(sys: SystemSpec, mono) -> int:
    return _grade(sys, mono)[2]


def monomial_state(sys: SystemSpec, modes, coeff=1, den=1) -> State:
    """coeff/den times the state of modes given in operator order
    (leftmost first), canonicalized with its Koszul sign.  An int coeff
    over a positive int den is taken as the integer form ({mono: sign *
    coeff}, den) and forms no QQ; a rational coeff needs den 1."""
    modes = list(modes)
    if any(m > -1 for _, m in modes):
        raise ValueError("creation modes require m <= -1")
    mono, sign = koszul_sort(modes, sys.mode_parity)
    if not (sign and coeff):
        return State(sys)
    if type(coeff) is int:
        return State(sys, integral=({mono: sign * coeff}, den))
    return State(sys, {mono: QQ(coeff) * sign})


def generator_polynomial(sys: SystemSpec, terms) -> State:
    """sum c * k_1!...k_r! g_1(-k_1-1)...g_r(-k_r-1)|0>, the normally
    ordered polynomial sum c :d^{k_1}g_1...d^{k_r}g_r: in the generator
    fields, over terms (c, [(family, copy, coord[, k]), ...]) given in
    operator order, k = 0 when left out.  This is the one place of the
    state <-> field dictionary; `diffalg.symbol` inverts it.  Each
    product is canonicalized with its Koszul sign by `koszul_sort`, as in
    `monomial_state`."""
    out: dict = {}
    for c, gens in terms:
        modes = []
        for g in gens:
            k = g[3] if len(g) > 3 else 0
            modes.append((sys.gen(*g[:3]).index, -k - 1))
            if k:
                c *= factorial(k)
        mono, sign = koszul_sort(modes, sys.mode_parity)
        if sign:
            axpy(out, {mono: sign * c})
    return State(sys, out)


# -- mode action ------------------------------------------------------------


def _contractions(sys: SystemSpec, gi: int, mono) -> list:
    """The terms of phi(j) applied to one canonical monomial, for phi the
    generator gi and every depth j >= 0 at once: a list of (j, mono
    without one mode psi(-j-1), c), depth ascending.  Only modes of the
    partner psi of phi contract, and modes sort by (index, m), so they
    form one slice of mono, found by bisection.  c is phi o_0 psi times
    the Koszul sign of moving phi(j) past the modes before psi(-j-1),
    times the number of equal (bosonic) modes psi(-j-1) in mono, which
    all leave the same monomial.  This is the one contraction routine of
    the package."""
    pi, sign = sys.partner[gi]
    lo = bisect_left(mono, (pi,))
    hi = bisect_left(mono, (pi + 1,), lo)
    odd = sys.parity[gi]
    if odd and sum(sys.parity[gj] for gj, _ in mono[:lo]) & 1:
        sign = -sign
    out = []
    # the slice is ordered by m ascending, so depth descending: walk it
    # from its end.  Odd modes never repeat, and each passes one more odd
    # mode
    k = hi - 1
    while k >= lo:
        first = bisect_left(mono, mono[k], lo, k)
        c = sign * (k - first + 1)
        if odd and (k - lo) & 1:
            c = -c
        out.append((-1 - mono[k][1], mono[:first] + mono[first + 1:], c))
        k = first - 1
    return out


def _apply_mode_mono(sys: SystemSpec, gi: int, m: int, mono) -> dict:
    """phi(m) applied to one canonical monomial; returns {mono: int}."""
    if m <= -1:
        new, sign = koszul_insert(mono, (gi, m), sys.mode_parity)
        return {new: sign} if sign else {}
    return {new: c for j, new, c in _contractions(sys, gi, mono) if j == m}


def apply_mode(phi: GeneratorId, m: int, s: State) -> State:
    """phi(m) s, accumulated over `State.integral` of s like `nth_product`."""
    sys = s.sys
    ints, den = s.integral()
    out: dict = {}
    for mono, c in ints.items():
        axpy(out, _apply_mode_mono(sys, phi.index, m, mono), c)
    return State(sys, integral=(out, den))


# -- circle products --------------------------------------------------------


def _nth_mono(sys: SystemSpec, ma, mb, n: int) -> dict:
    """nth product of two canonical monomials as {mono: int}, memoized on
    the system.  Results past the weight cutoff and results zero by the
    lemma below are never cached, so the cache is read before the
    gradings are looked up.

    The recursion strips the first factor phi(m0) of ma = phi(m0) rest;
    its coefficients (-1)^j binom(m0, j) are comb(j-m0-1, j), as m0 < 0.

    Zero lemma: for n >= 0, if no factor of ma has its partner in mb,
    then ma o_n mb = 0.  By induction on len(ma), from the recursion
    alone: the base case ma = () gives {} for every n != -1; every
    first-sum term is rest o_{n+j} mb with n+j >= 0, and no factor of
    rest has its partner in mb, so it is zero by induction; every
    second-sum term applies an annihilation mode phi(j), j >= 0, of the
    first factor phi of ma to mb, and phi has no partner in mb, so it is
    zero.  With the generator and partner masks of `_grade` the test is
    one `&`.

    One-mode closed form: for ma = (phi(m0),), rest is the vacuum, and
    |0> o_k v is v for k = -1 and 0 otherwise.  So the first sum keeps
    only j = -1-n, which needs n <= -1: phi(m0+n+1) inserted into mb by
    the Koszul rule.  The second sum keeps only the depth j = m0+n+1,
    which needs j >= 0, so n >= -1-m0 >= 0 as m0 <= -1: the one
    contraction of that depth.  The two cases exclude each other, so the
    product has at most one term, and the recursion never reaches
    ma = (), which stays for callers with a vacuum first factor."""
    if not ma:
        return {mb: 1} if n == -1 else {}
    key = (ma, mb, n)
    cache = sys._nth_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    grading = sys._grading
    wa, ca, _, gens_a, _ = grading.get(ma) or _grade(sys, ma)
    wb, cb, _, _, partners_b = grading.get(mb) or _grade(sys, mb)
    if n >= 0 and (n > wa + wb - 1 or not gens_a & partners_b):
        return {}

    (gi, m0), rest = ma[0], ma[1:]
    mode_parity = sys.mode_parity
    if not rest and n < 0:
        j = -1 - n
        new, sign = koszul_insert(mb, (gi, m0 - j), mode_parity)
        acc = {new: sign * comb(j - m0 - 1, j)} if sign else {}
    elif not rest:
        # comb(j-m0-1, j) = comb(n, j), and second_sign is +1 for odd m0
        # and -1 for even m0, rest being even
        acc = {mono: v * comb(n, j) if m0 & 1 else -v * comb(n, j)
               for j, mono, v in _contractions(sys, gi, mb)
               if j == m0 + n + 1}
    else:
        w_rest, _, par_rest, gens_rest, _ = (grading.get(rest)
                                             or _grade(sys, rest))
        cross_sign = -1 if (sys.parity[gi] and par_rest) else 1
        second_sign = cross_sign if m0 & 1 else -cross_sign
        acc = {}
        # first sum: apply_mode(phi, m0-j, nth(rest, mb, n+j)); the inner
        # product vanishes once n+j passes the weight cutoff, and for every
        # n+j >= 0 when no factor of rest contracts with mb (the zero
        # lemma).  phi(m0-j) is a creation mode, so it is inserted in place
        # by the Koszul rule
        j_hi = w_rest + wb - 1 - n
        if not gens_rest & partners_b:
            j_hi = min(j_hi, -n - 1)
        j = 0
        while j <= j_hi:
            inner = _nth_mono(sys, rest, mb, n + j)
            if inner:
                coeff = comb(j - m0 - 1, j)
                mode = (gi, m0 - j)
                for mono, v in inner.items():
                    new, sign = koszul_insert(mono, mode, mode_parity)
                    if sign:
                        s = acc.get(new, 0) + sign * coeff * v
                        if s:
                            acc[new] = s
                        else:
                            acc.pop(new, None)
            j += 1

        # second sum: nth(rest, apply_mode(phi, j, mb), m0+n-j); only the
        # partner modes of phi in mb contract, one monomial per depth j
        for j, mono, v in _contractions(sys, gi, mb):
            axpy(acc, _nth_mono(sys, rest, mono, m0 + n - j),
                 comb(j - m0 - 1, j) * second_sign * v)

    # every monomial of a o_n b sits in weight wa+wb-n-1 and the additive
    # charge; this is the runtime homogeneity check
    expected_w, expected_c = wa + wb - n - 1, ca + cb
    for mono in acc:
        w, c = (grading.get(mono) or _grade(sys, mono))[:2]
        if w != expected_w or c != expected_c:
            raise RuntimeError(
                f"inhomogeneous product: {mono} in {ma} o_{n} {mb}")

    if len(cache) < sys._cache_cap:
        cache[key] = acc
    return acc


def _product(a: State, b: State, n) -> State:
    """The sum of ma o_k mb over the terms ma of a and mb of b, with k = n,
    or k = wt(ma) - 1 when n is None.  This is the one integer pass of the
    engine: it reads the integer forms (ia, da) and (ib, db) of its inputs
    (`State.integral`), and the sum of ca*cb times the kernel's products
    is da*db times the rational product, so it returns the state of that
    integer form and forms no QQ.  A pair with k >= 0 past the weight
    cutoff or zero by the zero lemma (`_nth_mono`) adds nothing and is
    skipped before the call, each term's `_grade` looked up once."""
    _check_same_system(a, b)
    sys = a.sys
    ia, da = a.integral()
    ib, db = b.integral()
    right = [(mb, cb, _grade(sys, mb)) for mb, cb in ib.items()]
    out: dict = {}
    for ma, ca in ia.items():
        wa, _, _, gens_a, _ = _grade(sys, ma)
        k = wa - 1 if n is None else n
        for mb, cb, (wb, _, _, _, partners_b) in right:
            if k < 0 or k < wa + wb and gens_a & partners_b:
                axpy(out, _nth_mono(sys, ma, mb, k), ca * cb)
    return State(sys, integral=(out, da * db))


def nth_product(a: State, b: State, n: int) -> State:
    """a o_n b."""
    return _product(a, b, n)


def current_mode(th: State, n: int):
    """The mode th(n) on canonical monomials: a function mono -> {mono:
    int} equal to nth_product(th, unit(mono), n).integral()[0], with
    unit(mono) the state of mono with coefficient 1.  For n < 0, or a th
    that is odd, weight-inhomogeneous or has a monomial whose length is
    not 2, it is that call; otherwise it reads two tables.

    Proof.  Take a term :d^p a d^q b: of th and n >= 0.  Its mode (n) is
    a sum of a-modes a(j) times b-modes b(n-1-j), and both are creation
    modes only when j <= -1 and j >= n, which is impossible.  So on Fock
    monomials th(n) = D_n + Delta_n:
    - D_n, the terms of one creation and one annihilation mode, replaces
      one factor by a creation mode: th is even, so it is an even
      derivation, fixed by the one-mode states th(n)|v>, each one mode.
    - Delta_n, the terms of two annihilation modes, contracts a pair of
      factors x <= y to a scalar, the one it gives on x y |0>: the vacuum
      coefficient of th(n)|x y>, as D_n keeps the number of modes.
      Moving x y to the front costs the Koszul sign of `koszul_sort`.
    D_n is an `Images` table keyed by mode, applied by `linalg.derive`.
    Delta_n is read for the pairs whose generators both lie in th's
    partner mask (`_grade`), the only ones a term contracts, and whose
    weights sum to n + 1 - wt(th), the only ones with a vacuum term;
    each pair's scalar is computed on first use.  Every entry is an
    `nth_product` on a one- or two-mode unit state, so `_nth_mono` checks
    its weight and charge, also under python -O; a D_n entry that is not
    one mode raises RuntimeError.  A monomial of weight w reads no table
    when n >= wt(th) + w: its image is 0."""
    sys = th.sys

    def product(mono):
        v = State(sys, integral=({mono: 1}, 1))
        return nth_product(th, v, n).integral()[0]

    ints = th.integral()[0]
    wt = gradings(th)[0]
    if n < 0 or wt is None or parity_of(th) or any(len(m) != 2 for m in ints):
        return product
    mask = 0
    for m in ints:
        mask |= _grade(sys, m)[4]

    def one(mode):
        out = product((mode,)).items() if mask >> mode[0] & 1 else ()
        if any(len(mono) != 1 for mono, _ in out):
            raise RuntimeError(f"th o_{n} of {mode} is not one mode: {out}")
        return [(mono[0], c) for mono, c in out]

    images = Images(one)
    pairs = Images(lambda xy: product(xy).get((), 0))
    parity, weight = sys.mode_parity, sys.weight
    total = n + 1 - wt  # the weight of a pair with a vacuum term

    def apply(mono):
        if n >= wt + _grade(sys, mono)[0]:
            return {}
        out = derive(mono, images, parity)
        mine = [(v, weight[v[0]] - 1 - v[1]) for v in mono
                if mask >> v[0] & 1]
        for k, (x, wx) in enumerate(mine):
            for y, wy in mine[k + 1:]:
                c = pairs[x, y] if wx + wy == total else 0
                if c:
                    rest = list(mono)
                    rest.remove(x)
                    rest.remove(y)
                    rest = tuple(rest)
                    c *= koszul_sort([x, y], parity, rest)[1]
                    out[rest] = out.get(rest, 0) + c
        return out

    return apply


def zhu_zero_mode(a: State, q: State) -> State:
    """Zero-mode action of a on the state q: the mode a(wt-1) of each
    monomial of a, so a(wt-1) per weight-homogeneous component.  On a
    weight-0 q the image is weight 0 again; `_nth_mono` checks the weight
    of every product it forms, also under python -O, so an image outside
    weight 0 indicates an engine bug and raises there."""
    return _product(a, q, None)


def wick(factors) -> State:
    """Right-nested iterated Wick product."""
    factors = list(factors)
    if not factors:
        raise ValueError("wick needs at least one factor")
    out = factors[-1]
    for a in reversed(factors[:-1]):
        out = nth_product(a, out, -1)
    return out


def derivative(a: State) -> State:
    """Translation operator; the even derivation phi(m) -> -m phi(m-1),
    applied by `linalg.derive` with the system's table `translation`, over
    `State.integral` of a like `apply_mode`.

    Must agree with nth_product(a, vacuum, -2); the test suite checks both
    implementations against each other."""
    ints, den = a.integral()
    out = apply_derivation(ints, a.sys.translation, a.sys.mode_parity)
    return State(a.sys, integral=(out, den))


def gradings(a: State):
    """(weight, charge, degree); weight/charge are None when inhomogeneous."""
    if a.is_zero():
        return 0, 0, 0
    sys = a.sys
    monos = a.integral()[0]
    weights = {mono_weight(sys, m) for m in monos}
    charges = {mono_charge(sys, m) for m in monos}
    degree = max(map(len, monos))
    w = weights.pop() if len(weights) == 1 else None
    c = charges.pop() if len(charges) == 1 else None
    return w, c, degree


def state_weight(a: State) -> int:
    w, _, _ = gradings(a)
    if w is None:
        raise ValueError("state is not weight-homogeneous")
    return w


def parity_of(a: State):
    """0/1 for parity-homogeneous states, None otherwise."""
    if a.is_zero():
        return 0
    ps = {mono_parity(a.sys, m) for m in a.integral()[0]}
    return ps.pop() if len(ps) == 1 else None


# -- serialization ----------------------------------------------------------


def state_to_text(a: State) -> str:
    """Canonical text: terms sorted by monomial, 'p/q * g[slot,fam,i](-m) ...'."""
    if a.is_zero():
        return "0"
    parts = []
    for mono in sorted(a.terms):
        c = a.terms[mono]
        if mono:
            facs = " ".join(
                f"{a.sys.generators[gi].token()}({m})" for gi, m in mono
            )
        else:
            facs = "1"
        parts.append(f"{qstr(c)} * {facs}")
    return " + ".join(parts)


def state_from_text(sys: SystemSpec, text: str) -> State:
    text = text.strip()
    if text == "0":
        return State(sys)
    out = State(sys)
    for part in text.split(" + "):
        coeff_txt, facs_txt = part.split(" * ", 1)
        c = parse_qstr(coeff_txt)
        modes = []
        if facs_txt.strip() != "1":
            for tok in facs_txt.split():
                # g[b1,beta,2](-3)
                inner, mode_txt = tok.split("](", 1)
                slot, fam, coord = inner[2:].split(",")
                copy = int(slot[1:])
                m = int(mode_txt[:-1])
                modes.append((sys.gen(fam, copy, int(coord)).index, m))
        out = out.add(monomial_state(sys, modes, c))
    return out

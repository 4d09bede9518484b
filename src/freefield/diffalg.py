"""Super differential polynomials: symbol algebras, jet rings, g[t]-actions.

A variable is a family label plus copy, coordinate, derivative order; its
weight is order + offset where offset is the conformal weight of the
underlying generator (0 for plain jet variables).  Polynomials are maps
from canonical sorted monomials to rationals, with odd variables
anticommuting.
"""

from __future__ import annotations

from bisect import bisect_left
from math import factorial
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .liealg import (current_generators, make_algebra, simple_root_vectors,
                     torus_weights)
from .linalg import (Echelon, Images, apply_derivation, axpy,
                     block_nullspaces, derive, integral, koszul_sort,
                     pivot_columns, primitive)
from .rationals import QQ, qstr
from . import fock


class DV(NamedTuple):
    """Differential variable; sort order = declaration order of fields."""

    family: str
    copy: int
    coord: int
    order: int
    parity: int
    offset: int

    @property
    def weight(self) -> int:
        return self.order + self.offset

    def token(self) -> str:
        return f"{self.family}{self.coord}[{self.copy}]^({self.order})"


def symbol_var(family: str, copy: int, coord: int, order: int) -> DV:
    parity, weight, _ = fock.FAMILIES[family]
    return DV(family, copy, coord, order, parity, weight)


def jet_var(family: str, copy: int, coord: int, order: int, parity: int = 0) -> DV:
    if family in fock.FAMILIES:
        raise ValueError(f"{family!r} is reserved for symbol variables")
    return DV(family, copy, coord, order, parity, 0)


def abstract_var(name: str, order: int, parity: int, weight: int) -> DV:
    """D^order of the abstract generator `name` of the given parity and
    weight, as a variable of the polynomials `quantum_correct` takes."""
    return DV(name, 0, 0, order, parity, weight)


# -- polynomial arithmetic --------------------------------------------------

# a variable's parity, for the Koszul rule, and its (family, copy), for
# `_block_key`; `coding` gives both as lookups by int code
_parity = attrgetter("parity")
_run = itemgetter(0, 1)


def monomial_from_factors(factors, coeff=1) -> dict:
    """Canonicalize a factor list with Koszul signs; odd repeats kill it."""
    mono, sign = koszul_sort(list(factors), _parity)
    c = QQ(coeff) * sign
    return {mono: c} if c else {}


def diff_add(p: dict, q: dict, scale=1) -> dict:
    """p + scale*q as a new polynomial."""
    out = dict(p)
    axpy(out, q, scale)
    return out


def diff_sub(p: dict, q: dict) -> dict:
    return diff_add(p, q, -1)


def diff_mul(p: dict, q: dict, parity=_parity) -> dict:
    """p*q, with the coefficient type of the inputs.  Two canonical
    monomials multiply to the Koszul sort of m1 into m2, which is 0 when
    they share an odd factor.  For one m1 the products with distinct m2
    are distinct monomials, so they are collected in one dict and added
    with one axpy."""
    out: dict = {}
    for m1, c1 in p.items():
        row = {}
        for m2, c2 in q.items():
            mono, sign = koszul_sort(m1, parity, m2)
            if sign:
                row[mono] = sign * c2
        axpy(out, row, c1)
    return out


def mono_weight(mono) -> int:
    return sum(v.weight for v in mono)


def symbol(a: fock.State, r: int) -> dict:
    """Image in the associated graded at degree r as a polynomial in
    symbol variables; monomials shorter than r map to 0.  It inverts the
    state <-> field dictionary of `fock.generator_polynomial` on top
    degree: k! g(-k-1) becomes the symbol variable of g of order k."""
    gens = a.sys.generators
    out: dict = {}
    for mono, c in a.terms.items():
        if len(mono) > r:
            raise ValueError(f"degree {len(mono)} exceeds symbol degree {r}")
        if len(mono) < r:
            continue
        den = 1
        factors = []
        for gi, m in mono:
            g = gens[gi]
            k = -m - 1
            den *= factorial(k)
            factors.append(symbol_var(g.family, g.copy, g.coord, k))
        axpy(out, monomial_from_factors(factors, c / den if den > 1 else c))
    return out


def diff_bidegree(p: dict):
    """(weight, degree) when homogeneous, None entries otherwise."""
    if not p:
        return 0, 0
    ws = {mono_weight(m) for m in p}
    ds = {len(m) for m in p}
    return (ws.pop() if len(ws) == 1 else None, ds.pop() if len(ds) == 1 else None)


# -- derivation and g[t]-action ---------------------------------------------


def apply_D(p: dict) -> dict:
    """The total derivative: the even derivation v^(i) -> v^(i+1), applied
    by `linalg.derive`; its coefficients are 1, so int ones stay int."""
    return apply_derivation(
        p, Images(lambda v: [(v._replace(order=v.order + 1), 1)]), _parity)


def _d_powers(g: dict, n: int) -> list:
    """[g, D g, ..., D^n g]."""
    out = [g]
    for _ in range(n):
        out.append(apply_D(out[-1]))
    return out


def falling(i: int, r: int) -> int:
    """lambda^r_i = i!/(i-r)! for 0 <= r <= i, else 0."""
    if r < 0 or r > i:
        return 0
    return factorial(i) // factorial(i - r)


def _var_images(columns: dict, r: int, v: DV) -> list:
    """xi t^r on one variable: v^(i) -> [(w, lambda^r_i * M[row, col])] over
    the nonzero entries of the column of v in its family's matrix M, as
    `VarSpace.action_for` indexes it, rows ascending."""
    lam = falling(v.order, r)
    if not lam:
        return []
    if v.family not in columns:
        raise KeyError(f"no action matrix for family {v.family!r}")
    return [(v._replace(coord=row + 1, order=v.order - r), lam * x)
            for row, x in columns[v.family].get(v.coord - 1, ())]


class JetImages(Images):
    """The `linalg.Images` of one xi t^r: variable -> its `_var_images`.
    columns maps each variable family to the matrix of xi on that family's
    coordinate labels (column index = source coordinate, 1-based shift),
    indexed by column as `VarSpace.action_for` gives it.  Given code, the
    `coding` map of a sorted variable list, it is keyed by int code
    instead, and the images are coded too: a KeyError for an image outside
    that list."""

    def __init__(self, columns: dict, r: int, code=None):
        if r < 0:
            raise ValueError("need r >= 0")
        if code is None:
            super().__init__(lambda v: _var_images(columns, r, v))
        else:
            variables = list(code)
            super().__init__(lambda i: [
                (code[w], e) for w, e in _var_images(columns, r, variables[i])])


def lie_jet_action(images: JetImages, p: dict, parity=_parity) -> dict:
    """xi t^r acting as an even derivation: v^{(i)} -> lambda^r_i (M v)^{(i-r)},
    with images the `JetImages` of xi t^r and parity that of a variable,
    or of an int code (`coding`) for coded tables."""
    return apply_derivation(p, images, parity)


# -- bidegree components and invariants -------------------------------------


class FamilyDecl(NamedTuple):
    family: str
    copies: int
    coords: int
    parity: int
    offset: int
    role: str  # 'rep' or 'dual'


class VarSpace:
    """Ambient polynomial ring: a list of variable families with roles."""

    def __init__(self, families):
        self.families = tuple(families)
        seen = set()
        for f in self.families:
            if f.family in seen:
                raise ValueError(f"duplicate family {f.family!r}")
            if f.role not in ("rep", "dual"):
                raise ValueError(f"unknown role {f.role!r}")
            seen.add(f.family)

    def variables(self, max_weight: int) -> list:
        out = []
        for f in self.families:
            for j in range(1, f.copies + 1):
                for i in range(1, f.coords + 1):
                    for k in range(0, max_weight - f.offset + 1):
                        out.append(
                            DV(f.family, j, i, k, f.parity, f.offset)
                        )
        return sorted(out)

    def action_for(self, A, xi) -> dict:
        """Family -> matrix of xi for lie_jet_action: rho(xi) on a 'rep'
        family, -rho(xi)^T on a 'dual' one, its nonzero entries indexed by
        column, {col: [(row, x), ...]} with rows ascending; ints for a
        basis element xi."""
        out: dict = {}
        for f in self.families:
            M = A.matrix_for(xi) if f.role == "rep" else A.dual_matrix(xi)
            cols = out[f.family] = {}
            for (row, col), x in sorted(M.items()):
                cols.setdefault(col, []).append((row, x))
        return out


def varspace_for_system(sys: fock.SystemSpec) -> VarSpace:
    fams = []
    for shape, pair in ((sys.bosonic, ("beta", "gamma")),
                        (sys.fermionic, ("b", "c"))):
        if shape:
            n, m = shape
            for family, role in zip(pair, ("rep", "dual")):
                parity, weight, _ = fock.FAMILIES[family]
                fams.append(FamilyDecl(family, m, n, parity, weight, role))
    return VarSpace(fams)


def graded_multisets(atoms, weight: int, mindeg: int, maxdeg: int,
                     torus=None, copies=None, target=None) -> list:
    """Index tuples i1 <= i2 <= ... into atoms, given as (weight, degree,
    parity) with degree >= 1, that take an odd atom at most once, whose
    weights sum to `weight` and whose degrees sum to a value in
    [mindeg, maxdeg].  They come in lexicographic order, each tuple before
    its extensions: for atoms listed in the sort order of what they stand
    for, the sorted order of the multisets.

    torus, when given, lists an integer torus weight vector per atom, and
    only the tuples of torus weight target (the zero vector when None) are
    produced.  A branch t short of target, that may add at most r more
    atoms, all from atoms[s:], is cut unless lo*r <= -t <= hi*r in every
    coordinate, with (lo, hi) the coordinatewise bounds over atoms[s:]
    and the zero vector.  Where at most one more atom
    fits, it is looked up by the weight and torus weight it must have.

    copies, when given, lists per atom its (family, copy), ascending along
    the atoms, and only the tuples whose block (count per (family, copy))
    is the representative of its copy orbit are produced: in each family
    the copies taken are 1, 2, ..., k, with non-decreasing counts
    (`_orbit_size`).  A run, the atoms of one (family, copy), that skips a
    copy is cut where it would start, and one shorter than the run before
    it where the next run starts or the tuple ends.
    """
    if any(d < 1 for _, d, _ in atoms):
        raise ValueError("every atom needs degree >= 1")
    ws, ds, odd = zip(*atoms) if atoms else ((), (), ())
    dmin = min(ds, default=1)
    cut = bool(torus) and bool(torus[0])
    # the torus weight taken so far, minus target
    t = ([-x for x in target] if target
         else [0] * len(torus[0]) if cut else [])
    if cut:
        lo = hi = (0,) * len(t)
        bounds = [(lo, hi)]
        for v in reversed(torus):
            lo, hi = tuple(map(min, lo, v)), tuple(map(max, hi, v))
            bounds.append((lo, hi))
        bounds.reverse()
    last: dict = {}
    for i, w in enumerate(ws):
        last.setdefault((w, tuple(torus[i]) if cut else ()), []).append(i)
    # per atom: the index of its run, and that of the run it must follow
    # in its family (None for a copy 1, -1 when that run has no atoms)
    orbit = bool(copies)
    if orbit:
        index = {fc: n for n, fc in enumerate(dict.fromkeys(copies))}
        run = [index[fc] for fc in copies]
        after = [None if c == 1 else index.get((f, c - 1), -1)
                 for f, c in copies]
        taken = [0] * len(index)  # atoms taken per run
    out: list = []
    acc: list = []

    def rec(start: int, w_left: int, deg: int):
        room = maxdeg - deg
        if cut:
            lo, hi = bounds[start]
            r = room // dmin
            for x, a, b in zip(t, lo, hi):
                if not a * r <= -x <= b * r:
                    return
        # the last run, cur, may end here when it is as long as the run
        # before it in its family
        cur, ends = None, True
        if orbit and acc:
            cur, before = run[acc[-1]], after[acc[-1]]
            ends = before is None or taken[cur] >= taken[before]
        if ends and w_left == 0 and deg >= mindeg and not any(t):
            out.append(tuple(acc))
        if room < 2 * dmin:  # at most one more atom fits
            cands = last.get((w_left, tuple(-x for x in t)), ())
            for i in cands[bisect_left(cands, start):]:
                if mindeg <= deg + ds[i] <= maxdeg and (not orbit or (
                        ends or taken[cur] + 1 >= taken[before]
                        if run[i] == cur else ends and (
                            after[i] is None
                            or after[i] == cur and taken[cur] <= 1))):
                    out.append(tuple(acc) + (i,))
            return
        for i in range(start, len(ws)):
            if ws[i] > w_left or ds[i] > room:
                continue
            if orbit:
                if run[i] != cur:
                    if not ends:  # only cur may grow; its atoms are behind
                        break
                    if after[i] is not None and after[i] != cur:
                        continue
                taken[run[i]] += 1
            acc.append(i)
            if cut:
                for c, x in enumerate(torus[i]):
                    t[c] += x
            # an odd atom is taken once: the next choice starts past it
            rec(i + 1 if odd[i] else i, w_left - ws[i], deg + ds[i])
            if cut:
                for c, x in enumerate(torus[i]):
                    t[c] -= x
            acc.pop()
            if orbit:
                taken[run[i]] -= 1

    rec(0, weight, 0)
    return out


def monomial_counts(items, weight: int, maxdeg: int) -> list:
    """counts[d], d <= maxdeg: the number of monomials of exact weight
    `weight` and degree d in atoms given as (weight, parity) items, an odd
    atom at most once.  A knapsack count; no monomial is built."""
    table = [[0] * (maxdeg + 1) for _ in range(weight + 1)]
    table[0][0] = 1
    for w_i, odd in items:
        if w_i > weight:
            continue
        if odd:  # each old count extends at most once
            for w in range(weight - w_i, -1, -1):
                for d in range(maxdeg - 1, -1, -1):
                    table[w + w_i][d + 1] += table[w][d]
        else:  # counts that already use the atom extend again
            for w in range(weight - w_i + 1):
                for d in range(maxdeg):
                    table[w + w_i][d + 1] += table[w][d]
    return table[weight]


def enumerate_component(space: VarSpace, weight: int, degree: int,
                        torus: dict | None = None,
                        maxdeg: int | None = None) -> list:
    """The canonical monomials of weight `weight` and of a degree from
    `degree` to `maxdeg` (just `degree` when maxdeg is None) that lie in
    the representative block of their copy orbit, sorted, as index tuples
    into `space.variables(weight)` (`coding`): the `graded_multisets` of
    the variables, each of degree 1, given their (family, copy), so the
    cut is made inside the walk.  A monomial comes before its extensions,
    so the monomials of one degree keep, in a range, the order they have
    alone.  A space with one copy per family has every block its own
    representative.

    torus, when given, maps each index to its variable's integer torus
    weight vector, and only the monomials of torus weight 0 are produced,
    cut inside the enumeration too.
    """
    vs = space.variables(weight)
    tws = [torus[i] for i in range(len(vs))] if torus is not None else None
    top = degree if maxdeg is None else maxdeg
    return graded_multisets([(v.weight, 1, v.parity) for v in vs], weight,
                            degree, top, tws, [v[:2] for v in vs])


class ResourceCapError(RuntimeError):
    def __init__(self, cap: int, size: int):
        super().__init__(
            f"component size {size} exceeds the configured cap {cap}"
        )
        self.cap = cap
        self.size = size


def coding(variables) -> tuple:
    """(code, parity, run) for the sorted list variables: code maps each to
    its index, its int code, and parity and run look up a code's parity and
    (family, copy).  Codes compare as their variables do, so routines on
    coded monomials give what they give on the variables."""
    return ({v: i for i, v in enumerate(variables)},
            [v.parity for v in variables].__getitem__,
            list(map(_run, variables)).__getitem__)


def _block_key(mono, run=_run):
    """The factor count of each (family, copy) of a canonical monomial, in
    key order: its factors are sorted, so each (family, copy) is one run.
    run maps a factor to its (family, copy)."""
    key, last, n = [], None, 0
    for k in map(run, mono):
        if k != last:
            key.append((last, n))
            last, n = k, 0
        n += 1
    key.append((last, n))
    return tuple(key[1:]) if mono else ()  # key[0] is (None, 0)


def _orbit_size(copies: dict, key) -> int:
    """The number of blocks in the copy orbit of the block `key`, a
    `_block_key`, when the block is the orbit's representative, else 0;
    copies maps each family of the key to its number of copies.  The orbit
    is that under relabelling the copies of each family on its own.

    The representative is the orbit's first block in key order: the key is
    family-major, and a family has one entry per copy with a nonzero count
    in every block of the orbit, so that block puts each family's nonzero
    counts on its copies 1, 2, ..., k in non-decreasing order.  The size
    is the product over families of copies! / prod_c m_c!, with m_c the
    number of copies with count c, zeros included.
    """
    counts: dict = {}  # family -> its counts on copies 1, 2, ...
    for (family, copy), n in key:
        got = counts.setdefault(family, [])
        if copy != len(got) + 1 or got and n < got[-1]:
            return 0
        got.append(n)
    size = 1
    for family, got in counts.items():
        size *= falling(copies[family], len(got))  # the zeros' m_0! cancels
        for n in set(got):
            size //= factorial(got.count(n))
    return size


def invariant_orbits(atoms, monomials, torus_ops, ops, image,
                     block_key) -> list:
    """The dimension of the joint kernel of the operators ops on a span of
    monomials in atoms, per block, as `linalg.block_nullspaces` of its
    columns: (block key, kernel dimension) per block, in key order, each
    columns minus the rank of the block's rows under `pivot_columns`.

    ops is the list of operators, or a function that returns it given
    the operators of torus_ops found diagonal, in order (the state side's
    torus guard, `constructions.state_dims`).  image(mono, ops) lists the
    images {monomial: coefficient} of the monomial mono, with coefficient
    1, under each operator of ops in turn.  monomials(torus) lists the
    columns in column order: the monomials of torus weight 0 under torus,
    a map from each atom to its torus weight vector, of one block per
    orbit.  The caller vouches that every operator of torus_ops is a
    derivation of the product of atoms that kills the joint kernel of ops.

    Torus grading: an operator h of torus_ops that maps every atom to a
    multiple of itself (`torus_weights` on the one-atom monomials) maps
    a monomial to itself times the sum of its atoms' eigenvalues, so the
    kernel lies in the span of the monomials of torus weight 0 under all
    such h, and its dimension, columns minus rank, is that of the system
    on those columns alone, in any row and column order.  Only those
    columns are enumerated, and each is checked to have torus weight 0
    under the eigenvalues themselves, not the scaled weights the
    enumeration read (a RuntimeError otherwise).  So every such h kills
    every column, and those among ops are not written as equations.

    Blocks: when every operator maps the monomials of a block, by
    block_key, into the span of that block, the system is block diagonal
    and its kernel is the direct sum of the blocks' kernels, so each
    block is solved on its own.  Every equation row's monomial is
    checked to lie in its column's block (a RuntimeError otherwise).
    The rows are sorted by operator, then by monomial.
    """
    found: dict = {}  # (operator, one-atom monomial) -> its image
    diag, weights = torus_weights(
        torus_ops, [(a,) for a in atoms],
        lambda op, mono: found.setdefault((op, mono), image(mono, [op])[0]))
    eigen = [{a: found[op, (a,)].get((a,), 0) for a in atoms} for op in diag]
    monos = monomials({a: w for (a,), w in weights.items()})
    for mono in monos:
        for ev in eigen:
            if sum(map(ev.__getitem__, mono)):
                raise RuntimeError(f"torus weight of {mono} is not 0")
    ops = [op for op in (ops(diag) if callable(ops) else ops)
           if op not in diag]

    def equations(cols):
        key = block_key(cols[0])
        rows = [{} for _ in ops]  # per operator: {monomial: row}
        for ci, mono in enumerate(cols):
            for out, img in zip(rows, image(mono, ops)):
                for tmono, c in img.items():
                    row = out.get(tmono)
                    if row is None:
                        out[tmono] = {ci: c}
                    else:
                        row[ci] = c
        if any(block_key(t) != key for out in rows for t in out):
            raise RuntimeError("block split violated")
        return [out[t] for out in rows for t in sorted(out)]

    return block_nullspaces(monos, block_key, equations)


def root_cut(A, pairs) -> list:
    """The generating set pairs (i, r) of g[t]/t^(w+1), cut to simple
    root vectors: where `liealg.simple_root_vectors` finds A reductive,
    with a Cartan subalgebra t spanned by its diagonal basis elements, the
    pairs with r = 0 are replaced by the simple root vectors e_i t^0 and
    those with r >= 1 are kept in order; any other algebra keeps every
    pair.  The joint kernel on each component of `invariant_basis` is the
    same.  Each h of t has a diagonal matrix on every family, so it maps
    each variable to a multiple of itself and lies in the torus: the
    kernel, like every column, has torus weight 0.  Let v of weight 0 be
    killed by the e_i and the kept pairs.  A kernel is closed under
    brackets, so the span n+ of the positive root vectors, which the e_i
    generate, kills v.  The component is a finite-dimensional g-module
    (g t^0 keeps weight and degree) on which t acts diagonally, and the
    centre of g has root 0, so it lies in t (for gl, the identity); so
    the module is completely reducible (Weyl).  Its submodule U(g)v =
    U(n-)v has highest weight 0 and one generator, so it is
    indecomposable, hence irreducible: the trivial module.  So g t^0 kills
    v, and with the kept pairs every given pair.  The kernel of the given
    pairs is killed by the e_i, which lie in g t^0, so the two kernels
    are equal."""
    simple = simple_root_vectors(A)
    if simple is None:
        return pairs
    return [(i, 0) for i in simple] + [(i, r) for i, r in pairs if r]


def invariant_basis(space: VarSpace, A, weight: int, maxdeg: int,
                    cap: int = 20000, pairs=None) -> list:
    """The dimension of the joint kernel of g[t] on the (weight, degree <=
    maxdeg) component, one entry (degree, number of blocks in the orbit,
    dimension of a block) per orbit of blocks, defined below, from
    `invariant_orbits` on the orbits' representative blocks.  A
    ResourceCapError when some one degree of the component has more than
    cap monomials, each degree counted on its own and every monomial, not
    only the torus-weight-0 ones of representative blocks that are solved;
    they are counted, not built.

    Only t^r with r <= weight can act nonzero on the component, so g[t]
    acts through g[t]/t^(weight+1).  The equations are written for the
    generating set pairs of that algebra, `current_generators(A, weight)`
    cut to simple root vectors (`root_cut`) when not given: if X and Y
    kill v then so does [X, Y], so the generators have the same joint
    kernel as every xi t^r.  Given pairs are used as they are.  The rep
    matrices are integral (`LieAlgebraSpec`), so every equation row is a
    {column index: int} dict.  The torus is read off the h t^0, which lie
    in g[t]; only the images the torus search reads are built for the
    h t^0 that are not generators.

    The solve runs on int codes (`coding` of the variables): the columns,
    which `enumerate_component` gives as codes, the `JetImages` tables
    keyed by code, the rows and the block keys.  Codes compare as their
    variables do, so every block keeps its key order.

    Blocks: the action never moves a factor across families or copies, so
    the component splits into blocks by degree and per-(family, copy)
    factor counts.  Copy symmetry: every copy of a family is acted on by
    the same matrix, so relabelling the copies of each family on its own
    is an algebra automorphism (odd factors re-sorted with their Koszul
    sign) that commutes with every xi t^r, and maps the invariants of a
    block onto those of its image, so the blocks of an orbit have one
    dimension.  So only each orbit's representative is enumerated, pruned
    inside the walk (`enumerate_component`), and solved: its first block
    in key order, which puts each family's nonzero counts on its copies
    1, 2, ..., k in non-decreasing order.  Its orbit size is read off its
    key (`_orbit_size`).

    Orbit column guard: every variable is checked to have the torus weight
    of its copy-1 twin (a RuntimeError naming the orbit representative
    otherwise).  Then relabelling keeps every torus weight, so it maps the
    torus-weight-0 columns of a block bijectively onto those of its image,
    and every block of an orbit has as many columns as its representative,
    though only the representative is built.

    Output order: degree, then representative block key.
    """
    gens = (root_cut(A, current_generators(A, weight)) if pairs is None
            else pairs)
    variables = space.variables(weight)
    for size in monomial_counts([(v.weight, v.parity) for v in variables],
                                weight, maxdeg):
        if size > cap:
            raise ResourceCapError(cap, size)
    columns = [space.action_for(A, i) for i in range(A.dim)]
    torus_ops = [(i, 0) for i in range(A.dim)]
    code, parity, run = coding(variables)
    tables = {(i, r): JetImages(columns[i], r, code)
              for i, r in [*torus_ops, *gens]}
    copies = {f.family: f.copies for f in space.families}

    def monomials(torus):
        for i, v in enumerate(variables):
            if torus[i] != torus[code[v._replace(copy=1)]]:
                raise RuntimeError(
                    f"torus weight of {v.token()} is not that of its copy 1: "
                    "a block may have more columns than its orbit "
                    "representative")
        return enumerate_component(space, weight, 0, torus, maxdeg)

    return [(d, _orbit_size(copies, key), dim)
            for (d, key), dim in invariant_orbits(
                range(len(variables)), monomials, torus_ops, gens,
                lambda mono, ops: [derive(mono, tables[op], parity)
                                   for op in ops],
                lambda m: (len(m), _block_key(m, run)))]


def _capped(tuples, cap: int):
    """The tuples one by one; a ResourceCapError once more than cap come."""
    for count, tup in enumerate(tuples, 1):
        if count > cap:
            raise ResourceCapError(cap, count)
        yield tup


def _products(polys, tuples, parity=_parity):
    """(tuple, product) for each index tuple of tuples whose product of
    polys (`diff_mul` with parity) is nonzero.  Each product is its prefix's
    times one poly, and the products of proper prefixes are built once."""
    prefix = {(): {(): 1}}

    def product(tup):
        if tup not in prefix:
            prefix[tup] = diff_mul(product(tup[:-1]), polys[tup[-1]], parity)
        return prefix[tup]

    for tup in tuples:
        poly = (diff_mul(product(tup[:-1]), polys[tup[-1]], parity) if tup
                else prefix[()])
        if poly:
            yield tup, poly


def _ray(p: dict) -> frozenset:
    """p up to a nonzero scalar: its primitive integer vector, positive
    at its least monomial (`linalg.integral`, then `linalg.primitive`)."""
    ints = integral(p)[0]
    primitive(ints, min(ints))
    return frozenset(ints.items())


def _swap_copies(p: dict, family: str, c: int) -> dict:
    """p with copies c and c + 1 of family swapped, each monomial re-sorted
    with its Koszul sign; the swap is a bijection on monomials."""
    out: dict = {}
    for mono, x in p.items():
        new, sign = koszul_sort(
            [v._replace(copy=2 * c + 1 - v.copy)
             if v.family == family and v.copy in (c, c + 1) else v
             for v in mono], _parity)
        out[new] = sign * x
    return out


def _copy_orbits(gens):
    """The orbit size of a block by its `_block_key` in the split of
    `generated_span`, 0 off the representatives (`_orbit_size`), as a
    function; a family has as many copies as the largest its gens use.
    Where a generator spans blocks, or the gens are not closed, up to
    nonzero scalars, under swapping adjacent copies of a family, every
    block counts as its own orbit (size 1): every product is kept and
    each rank counts once."""
    keys = [{_block_key(m) for m in g} for g in gens]
    copies: dict = {}
    for key in set().union(*keys):
        for (family, copy), _ in key:
            copies[family] = max(copies.get(family, 0), copy)
    rays = {_ray(g) for g in gens}
    if all(len(k) == 1 for k in keys) and all(
            _ray(_swap_copies(g, f, c)) in rays
            for f, k in copies.items() for c in range(1, k) for g in gens):
        return lambda key: _orbit_size(copies, key)
    return lambda key: 1


def generated_span(gens, weight: int, maxdeg: int, cap: int = 20000,
                   orbit=None) -> dict:
    """{degree: dimension} of the span of all products of D-derivatives of
    the gens at bidegree (weight, degree <= maxdeg), nonzero dimensions
    only.

    Each generator is scaled to integer coefficients once, before D,
    which has integer coefficients, is applied; that leaves the span
    unchanged, so the products are int polynomials.  An odd derived
    generator enters a product at most once (its square vanishes).  All
    have the given weight, and those of degree d lie in the monomials of
    length d; so the span splits by degree.  Only the rank is needed, so
    the products go to `linalg.pivot_columns`, per degree and block.  The
    derived generators are coded once (`coding` of the variables they
    use) and multiplied and ranked as int monomials.

    Blocks: D and the product never move a factor across families or
    copies, so when each generator lies in one block (one `_block_key`),
    each product lies in the block of the sum of its factors' keys.
    Products in distinct blocks have disjoint monomials, so the rank is
    the sum of the blocks' ranks.  Relabelling the copies of a family
    is an automorphism (odd factors re-sorted with their Koszul sign) that
    commutes with D; when it maps each generator to a nonzero multiple of
    a generator, it maps the products of a block into the span of those of
    its image block, and its inverse maps them back, so the blocks of an
    orbit have one rank.  Adjacent swaps generate every relabelling, so
    closure is checked on them (`_copy_orbits`).  So only the products of
    representative blocks are ranked: each orbit's first block in key
    order, which puts each family's nonzero counts on its copies 1, 2,
    ..., k in non-decreasing order.  The dimension at degree d sums, over
    the representative blocks, the orbit size (`_orbit_size`) times the
    rank of the block's products of degree d.  Where the set is not
    closed, every block counts as its own orbit, of size 1, and every
    product is kept; where a generator spans blocks, the products of each
    degree are also ranked together, the unsplit rank.  The cap counts
    every tuple, kept or not.

    orbit is `_copy_orbits` of the nonzero gens, computed here when not
    given; `bidegree_dims` computes it once for all weights.  It holds for
    the gens this call uses, those up to (weight, maxdeg): a swap keeps
    weight and degree, so they are closed when all are, and they use, in
    each family they use, all its copies.
    """
    # derivative closure D^k g while the weight fits, as (atom, block key
    # of g or None when g spans blocks, polynomial)
    derived = []
    for g in gens:
        w, d = diff_bidegree(g)
        odd = {sum(v.parity for v in m) & 1 for m in g}
        if w is None or d is None or len(odd) > 1:
            raise ValueError("generated_span needs bihomogeneous generators")
        if g and d <= maxdeg and w <= weight:
            g = integral(g)[0]
            keys, par = {_block_key(m) for m in g}, odd.pop()
            key = keys.pop() if len(keys) == 1 else None
            derived += [((w + k, d, par), key, dg)
                        for k, dg in enumerate(_d_powers(g, weight - w))]
    if orbit is None:
        orbit = _copy_orbits([g for g in gens if g])
    keys = [key for _, key, _ in derived]
    split = None not in keys

    def block(tup) -> tuple:
        if not split:
            return ()
        counts: dict = {}
        for i in tup:
            for fc, n in keys[i]:
                counts[fc] = counts.get(fc, 0) + n
        return tuple(sorted(counts.items()))

    code, parity, _ = coding(sorted({v for _, _, g in derived
                                     for m in g for v in m}))
    polys = [{tuple(map(code.__getitem__, m)): c for m, c in g.items()}
             for _, _, g in derived]
    tuples = _capped(graded_multisets([a for a, _, _ in derived], weight, 0,
                                      maxdeg), cap)
    kept = {}  # each tuple of a representative block -> that block
    for tup in tuples:
        key = block(tup)
        if orbit(key):
            kept[tup] = key
    groups: dict = {}  # (degree, block) -> its products
    for tup, poly in _products(polys, kept, parity):
        groups.setdefault((len(next(iter(poly))), kept[tup]), []).append(poly)
    dims: dict = {}
    for (d, key), group in groups.items():
        dims[d] = dims.get(d, 0) + orbit(key) * len(pivot_columns(group))
    return dims


def noninvariant_generator(space: VarSpace, A, gens):
    """The first (generator, basis index i, r) with x_i t^r g != 0 for some
    0 <= r <= weight of g, or None when every generator is invariant.

    The invariants form a differential subalgebra: each x t^r acts as a
    derivation and [x t^r, D] is a multiple of x t^(r-1).  So products of
    D-derivatives of invariant generators are invariant, and the equal
    dimensions per bidegree of `bidegree_dims` then prove the span the
    generators give equal to the invariants, though neither is built.
    """
    most = max((mono_weight(m) for g in gens for m in g), default=0)
    tables = [[JetImages(mats, r) for r in range(most + 1)]
              for mats in (space.action_for(A, i) for i in range(A.dim))]
    for g in gens:
        w = max(map(mono_weight, g), default=0)
        for i, images in enumerate(tables):
            for r in range(w + 1):
                if lie_jet_action(images[r], g):
                    return g, i, r
    return None


def plain_quadrics(space: VarSpace) -> list:
    """The dot products sum_i x_i[j] x_i[k], j <= k, of the copies of the
    first family of a plain space."""
    fam = space.families[0]
    out = []
    for j in range(1, fam.copies + 1):
        for k in range(j, fam.copies + 1):
            acc: dict = {}
            for i in range(1, fam.coords + 1):
                axpy(acc, monomial_from_factors(
                    [jet_var("x", j, i, 0), jet_var("x", k, i, 0)], 1))
            out.append(acc)
    return out


def plain_minors(space: VarSpace) -> list:
    """The 2 x 2 minors x_1[j] x_2[k] - x_2[j] x_1[k], j < k, of the copies
    of the first family of a plain space with two coordinates."""
    copies = space.families[0].copies
    return [diff_sub(
        monomial_from_factors([jet_var("x", j, 1, 0), jet_var("x", k, 2, 0)], 1),
        monomial_from_factors([jet_var("x", j, 2, 0), jet_var("x", k, 1, 0)], 1))
        for j in range(1, copies + 1) for k in range(j + 1, copies + 1)]


def bidegree_dims(space: VarSpace, A, gens, max_weight: int, maxdeg: int,
                  cap: int) -> tuple:
    """{"weight,degree": dimension} of the invariants and of the span
    generated by gens, over weights 0..max_weight and degrees <= maxdeg,
    nonzero dimensions only.

    Copy orbits: relabelling the copies of each family permutes the
    blocks of a bidegree.  Both sides form only each orbit's
    representative block and multiply by its orbit size (`_orbit_size`):
    the blocks of an orbit have one invariant dimension (`invariant_basis`)
    and, for block-homogeneous generators closed under relabelling, one
    rank (`generated_span`, with the orbit sizes of `_copy_orbits`
    computed once for all weights).

    The current generators are computed and cut (`root_cut`) once, for
    max_weight, and weight w takes the pairs with r <= w, which are
    `root_cut(A, current_generators(A, w))`.  The cut puts the same simple
    root vectors first and keeps the pairs with r >= 1 in order, so it
    commutes with taking r <= w; and the uncut pairs with r <= w are
    `current_generators(A, w)`, which builds the generated subalgebra
    degree by degree, each degree r from the degrees below it alone.

    so(N) on a split torus: the antisymmetric basis of a `kind == "so"`
    algebra has no rational torus, so its invariants are solved for
    S = so_split(N) instead, which has one (`invariant_basis`).  The
    dimensions agree.  Over Q(i) the form sum x_i^2 is equivalent to the
    split form F of S: there is an invertible T with T^T T = F (for a
    hyperbolic pair, columns (1, i) and (1/2, -i/2)).  Then
    X -> T^-1 X T maps so(N) onto S, and the substitution x -> T^-1 x of
    every copy of a 'rep' family and y -> T^T y of every copy of a 'dual'
    one, at every jet order, is a ring automorphism that keeps weight,
    degree, parity and blocks and turns the action of each X t^r into
    that of (T^-1 X T) t^r.  So it maps the joint kernel of so(N)[t] at
    each bidegree onto that of S[t] over Q(i).  Each kernel is that of a
    matrix over Q, and rank does not change under a field extension, so
    the two dimensions over Q are equal.  The component sizes, and so the
    cap check, do not depend on the algebra, and the generated side never
    reads A.
    """
    if A.kind == "so":
        A = make_algebra("so_split", *A.params)
    pairs = root_cut(A, current_generators(A, max_weight))
    orbit = _copy_orbits([g for g in gens if g])
    inv, gen = {}, {}
    for w in range(0, max_weight + 1):
        for d, size, dim in invariant_basis(
                space, A, w, maxdeg, cap, [(i, r) for i, r in pairs if r <= w]):
            if dim:
                inv[f"{w},{d}"] = inv.get(f"{w},{d}", 0) + size * dim
        for d, dim in generated_span(gens, w, maxdeg, cap, orbit).items():
            gen[f"{w},{d}"] = dim
    return inv, gen


# -- normal ordering and quantum correction ---------------------------------


def wick_expand(p: dict, base, sys: fock.SystemSpec) -> fock.State:
    """Replace each monomial of p by the right-nested Wick product of its
    factors in canonical order, the factor v becoming d^(v.order) applied
    to the state base(v); the empty monomial becomes the vacuum."""
    out = fock.zero(sys)
    for mono, c in p.items():
        factors = []
        for v in mono:
            st = base(v)
            for _ in range(v.order):
                st = fock.derivative(st)
            factors.append(st)
        term = fock.wick(factors) if factors else fock.vacuum(sys)
        out = out.add(term, c)
    return out


class QCResult(NamedTuple):
    status: str          # 'ok' or 'failed'
    total: dict          # accumulated abstract polynomial p - sum corrections
    corrections: tuple   # ((degree, abstract polynomial), ...) as applied
    failed_degree: int | None
    residual_symbol: dict | None


def quantum_correct(p: dict, gens, sys: fock.SystemSpec, cap: int = 20000) -> QCResult:
    """Descent turning a classical relation into an identically zero field.

    p is a polynomial in abstract generator variables (family = generator
    name, order = number of D's applied).  gens is a list of
    (name, symbol DiffPoly, State).  Checks that substituting the symbols
    into p gives zero, then repeatedly normal-orders and subtracts until
    the state vanishes, or fails at a degree whose symbol is not a
    polynomial in the generators' symbols and D-derivatives.
    """
    by_name = {}
    for name, sym, st in gens:
        w, d = diff_bidegree(sym)
        par = fock.parity_of(st)
        if w is None or d is None or par is None:
            raise ValueError(f"generator {name!r} must be bihomogeneous")
        by_name[name] = (sym, st, w, d, par)

    def base(v):
        return by_name[v.family][1]

    if not p:
        return QCResult("ok", {}, (), None, None)

    ws = {sum(by_name[v.family][2] + v.order for v in mono) for mono in p}
    ds = {sum(by_name[v.family][3] for v in mono) for mono in p}
    if len(ws) != 1 or len(ds) != 1:
        raise ValueError("relation must be bihomogeneous over the generators")
    (w_total,), (d_total,) = ws, ds
    # a factor D^k of a generator of weight w >= 0 weighs w + k <= w_total
    powers = {name: _d_powers(sym, w_total - w)
              for name, (sym, _, w, _, _) in by_name.items()}
    check: dict = {}
    for mono, c in p.items():
        term = {(): c}
        for v in mono:
            term = diff_mul(term, powers[v.family][v.order])
        axpy(check, term)
    if check:
        raise ValueError("p is not a classical relation: symbols do not cancel")

    # the D^k-generators of weight <= w_total, as atoms (engine weight,
    # engine degree, parity) of the products that may express a symbol
    items = [(name, k) for name in sorted(by_name)
             for k in range(w_total - by_name[name][2] + 1)]
    atoms = [(by_name[name][2] + k, by_name[name][3], by_name[name][4])
             for name, k in items]
    polys = [powers[name][k] for name, k in items]

    corrections = []
    total = dict(p)
    q = wick_expand(p, base, sys)
    prev_deg = d_total
    guard = 0
    while not q.is_zero():
        guard += 1
        if guard > d_total + 2:
            raise RuntimeError("descent failed to terminate")
        _, _, dq = fock.gradings(q)
        if dq >= prev_deg:
            raise RuntimeError(
                f"descent did not lower the degree: {dq} after {prev_deg}")
        prev_deg = dq
        s = symbol(q, dq)
        ech = Echelon(track=True)
        for prod, poly in _products(polys, _capped(
                graded_multisets(atoms, w_total, dq, dq), cap)):
            ech.add(poly, tag=prod)
        combo = ech.express(dict(s))
        if combo is None:
            return QCResult("failed", total, tuple(corrections), dq, s)
        r: dict = {}
        for prod, c in combo.items():
            factors = [abstract_var(name, k, by_name[name][4], by_name[name][2])
                       for name, k in (items[i] for i in prod)]
            axpy(r, monomial_from_factors(factors, c))
        corrections.append((dq, r))
        total = diff_sub(total, r)
        q = q.sub(wick_expand(r, base, sys))

    if not wick_expand(total, base, sys).is_zero():
        raise RuntimeError("re-expansion of the corrected relation is not zero")
    return QCResult("ok", total, tuple(corrections), None, None)


# -- serialization ----------------------------------------------------------


def diff_to_text(p: dict) -> str:
    if not p:
        return "0"
    parts = []
    for mono in sorted(p):
        c = p[mono]
        facs = " ".join(v.token() for v in mono) if mono else "1"
        parts.append(f"{qstr(c)} * {facs}")
    return " + ".join(parts)

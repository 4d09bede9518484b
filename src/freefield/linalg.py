"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping comparable column keys to nonzero rational
entries (QQ or int); elimination itself runs on integer rows, by one
fraction-free step (`_eliminate`).  Two routines eliminate:

- `Echelon` keeps the reduced row echelon form.  Each row pivots on its
  least key, and every new row is back-substituted into the stored rows
  that hold its pivot, so they are multiples of the unique reduced rows
  of the span, and every vector reduces in one pass over its keys.
  `solve_affine`, `express` and the spans of `liealg` read those rows, so
  what they return does not depend on the order of the input rows.
- `pivot_columns` only ranks, by right-looking elimination with dynamic
  pivots (Markowitz's rule): a shortest live row, on its column in the
  fewest live rows.  Rank does not depend on the pivot order, and on the
  large, nearly full-rank invariant blocks these pivots keep the fill
  that back-substitution causes low.  `nullspace` returns the columns it
  does not pivot on; the invariant solver, `block_nullspaces`, counts
  them per block, columns minus rank; `diffalg.generated_span` ranks its
  products with it.

On sorted monomials, `koszul_insert` is the one Koszul rule and `derive`
the one even-derivation kernel: it applies a table of factor images
(`Images`), such as those of D, each x t^r and the Fock translation, to a
monomial, and `apply_derivation` to a polynomial.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rationals import QQ


def axpy(u: dict, v: dict, scale=1) -> None:
    """u += scale*v in place, dropping zeros; v is left unchanged.

    This is the one sparse accumulator of the package: every sum of states,
    polynomials, Weyl elements and echelon rows goes through it.
    """
    unit = scale == 1
    for k, c in v.items():
        s = u.get(k, 0) + (c if unit else scale * c)
        if s:
            u[k] = s
        else:
            u.pop(k, None)


def koszul_insert(seq: tuple, item, parity, start: int = 0):
    """Place item into the sorted tuple seq, moving it from position
    `start` of seq (its front by default) to its sorted place.

    Returns (new tuple, sign): sign is (-1)^(odd items passed) for an odd
    item and 1 for an even one, and 0 (with None) when item is odd and
    already in seq.  parity maps an item to 0 or 1.  This is the one
    Koszul rule of the package.
    """
    pos = bisect_left(seq, item)
    sign = 1
    if parity(item):
        if pos < len(seq) and seq[pos] == item:
            return None, 0
        passed = seq[pos:start] if pos < start else seq[start:pos]
        if sum(map(parity, passed)) & 1:
            sign = -1
    return seq[:pos] + (item,) + seq[pos:], sign


def koszul_sort(items, parity, seq: tuple = ()):
    """Sort items, given in operator order, into the sorted tuple seq
    that stands to their right, by `koszul_insert` from the right.

    Returns (sorted tuple, sign), or (None, 0) when an odd item repeats.
    """
    sign = 1
    for item in reversed(items):
        seq, s = koszul_insert(seq, item, parity)
        if not s:
            return None, 0
        sign *= s
    return seq, sign


def derive(mono: tuple, images, parity) -> dict:
    """An even derivation on one sorted monomial with coefficient 1, given
    by its table images: images[v] lists the (w, e) of v -> sum e*w.  Each
    factor v in turn is replaced by each image w, which `koszul_insert`,
    with parity, moves from v's place to its sorted place.

    The terms are distinct monomials but for two coincidences, so they
    are collected in one dict, none added to another.  An even factor
    repeated m times gives each of its terms m times, formed once at its
    first place.  Replacing v by w and, for a factor u != v, u by w' gives
    one monomial only when w = v and w' = u: the diagonal images, each of
    which gives mono itself (in place, sign 1), so their coefficients are
    summed into it."""
    out: dict = {}
    diag = 0
    for k, v in enumerate(mono):
        imgs = images[v]
        if not imgs or k and v == mono[k - 1]:
            continue
        m = mono.count(v)
        rest = mono[:k] + mono[k + 1:]
        for w, e in imgs:
            if w == v:
                diag += m * e
                continue
            new, sign = koszul_insert(rest, w, parity, k)
            if sign:
                out[new] = sign * m * e
    if diag:
        out[mono] = diag
    return out


def apply_derivation(p: dict, images, parity) -> dict:
    """The even derivation of `derive` on the polynomial p: each
    monomial's terms, times its coefficient, added by one axpy."""
    out: dict = {}
    for mono, c in p.items():
        axpy(out, derive(mono, images, parity), c)
    return out


class Images(dict):
    """A table of factor images for `derive`: factor -> [(image,
    coefficient)], each computed by image(factor) when first read and
    kept, so that every call for one derivation reads one table."""

    def __init__(self, image):
        super().__init__()
        self._image = image

    def __missing__(self, v):
        out = self[v] = self._image(v)
        return out


def perm_sign(perm) -> int:
    """Sign of a sequence of distinct comparable items: (-1)^inversions,
    the Koszul sign of sorting it with every item odd."""
    return koszul_sort(perm, lambda _: 1)[1]


def _scale(u: dict, k) -> None:
    """u *= k in place for a nonzero k."""
    for key in u:
        u[key] *= k


def integral(vec: dict):
    """(den*vec as an int dict, den) for the least positive den that
    clears the denominators of vec; an all-int vec is only copied."""
    if all(type(c) is int for c in vec.values()):
        return dict(vec), 1
    den = lcm(*[c.denominator for c in vec.values()])
    if den == 1:
        return {k: int(c) for k, c in vec.items()}, 1
    return {k: int(c.numerator) * (den // int(c.denominator))
            for k, c in vec.items()}, den


def common_denominator(da: int, db: int, scale=1) -> tuple:
    """(ka, kb, den) with x/da + scale*y/db = (ka*x + kb*y)/den for every
    x and y, for positive int da and db and an int or rational scale =
    p/q in lowest terms: den = lcm(da, q*db), ka = den/da and kb =
    p*den/(q*db), all ints.  This is `integral`'s rule for the sum of two
    integer forms."""
    p, q = ((scale, 1) if type(scale) is int
            else (int(scale.numerator), int(scale.denominator)))
    qdb = q * db
    den = lcm(da, qdb)
    return den // da, p * (den // qdb), den


def _eliminate(vec: dict, row: dict, p) -> tuple:
    """The fraction-free step (Bareiss 1968): vec = a*vec - b*row in
    place, with a = row[p]/g and b = vec[p]/g for g = gcd(row[p], vec[p]),
    which cancels vec's entry at p; a pivot entry row[p] = 1 needs no gcd.
    Returns (a, b), so that the caller can apply the same step to what vec
    stands for."""
    a, b = row[p], vec[p]
    if a != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            _scale(vec, a)
    axpy(vec, row, -b)
    return a, b


def _primitive(row: dict, p=None) -> int:
    """Divide the int row in place by its content, signed so that its
    entry at p, if given, is positive; returns that signed content."""
    g = gcd(*row.values())
    if p is not None and row[p] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g
    return g


def pivot_columns(vectors) -> set:
    """Columns to pivot on, one per unit of rank of the span of vectors,
    so their number is its rank.

    Right-looking elimination on the vectors cleared of denominators
    (Markowitz's rule, which limits fill): each step takes a shortest
    live row, ties in input order, and pivots on its column held by the
    fewest live rows, the least such column.  It cancels that column in
    every other live row holding it by the fraction-free step, divides
    each of them by its content, drops those that become zero, and
    retires the pivot row.  A step keeps the span of the retired and the
    live rows, and each retired row is zero on the pivots of the rows
    retired before it, so the retired rows are independent: a basis of
    the span.  Which columns pivot depends on the rows' order, their
    number does not.
    """
    rows = [row for row in (integral(vec)[0] for vec in vectors) if row]
    holders = defaultdict(set)  # column -> the live rows holding it
    for i, row in enumerate(rows):
        for k in row:
            holders[k].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    out = set()
    while heap:
        n, i = heappop(heap)
        row = rows[i]
        if row is None or len(row) != n:
            continue  # retired, or pushed again since with another length
        rows[i] = None
        p = min(zip(map(len, map(holders.__getitem__, row)), row))[1]
        out.add(p)
        for k in row:
            holders[k].discard(i)
        for j in holders.pop(p):
            other = rows[j]
            _eliminate(other, row, p)
            for k in row:
                if k in other:
                    holders[k].add(j)
                else:
                    holders[k].discard(j)  # p too: no live row holds it now
            if other:
                _primitive(other)
                heappush(heap, (len(other), j))
            else:
                rows[j] = None
    return out


class Echelon:
    """Incremental reduced row echelon structure over the integers.

    Each stored row is a primitive integer vector (content 1) whose pivot,
    its least key, has a positive entry, and which is zero on every other
    pivot column; so it is a nonzero multiple of the canonical reduced row
    of the span of everything added so far.  Reduction is fraction-free
    (`_eliminate`).  Inputs may be rational; `add` clears their
    denominators, and `express` returns QQ.  With track=True each row also
    carries its expression in terms of the original tagged vectors, which
    `express` uses.
    """

    def __init__(self, track: bool = False):
        self._track = track
        self.rows: dict = {}            # pivot col -> int row, pivot order
        self.combos: dict = {}          # pivot col -> {tag: QQ}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _track_step(self, combo: dict, a: int, b: int, p) -> None:
        """combo = a*combo - b*(the combo of the row of pivot p): what
        `_eliminate` did to a row, done to its combo."""
        if a != 1:
            _scale(combo, a)
        axpy(combo, self.combos[p], -b)

    def _make_primitive(self, p) -> None:
        """Divide the row of pivot p and its combo by the row's content,
        signed so that the pivot entry is positive."""
        g = _primitive(self.rows[p], p)
        if g != 1:
            combo = self.combos[p]
            for t in combo:
                combo[t] /= g

    def _reduce(self, vec: dict, combo: dict):
        """Eliminate the pivot columns of an int vector in one pass.

        Every stored row is zero on every other pivot column, so removing
        one pivot column never brings back another: only the pivots vec
        already holds need a step.  Works in place on vec and combo and
        returns s, the product of the scalings applied to vec: the result
        is s times the rational reduction of the input.
        """
        rows = self.rows
        s = 1
        for p in [k for k in vec if k in rows]:
            a, b = _eliminate(vec, rows[p], p)
            s *= a
            if self._track:
                self._track_step(combo, a, b, p)
        return s

    def add(self, vec: dict, tag=None) -> bool:
        """Insert vec; returns True when it enlarges the span."""
        vec, den = integral(vec)
        combo = {tag: QQ(den)} if (self._track and tag is not None) else {}
        self._reduce(vec, combo)
        if not vec:
            return False
        p = min(vec)
        rows = self.rows
        rows[p], self.combos[p] = vec, combo
        self._make_primitive(p)
        # back-substitute into the stored rows that hold p, which keeps
        # every row zero on the other pivot columns.  The stored rows are
        # scanned: in one pass of each bundled workload at seed 3, add
        # runs 463 (arc_space), 50 (engine) and 462 (state_side) times, on
        # at most 32, 10 and 63 stored rows of at most 2, 6 and 6 entries,
        # too few for an index of the rows holding each column to pay
        for q, row in rows.items():
            if q != p and p in row:
                a, b = _eliminate(row, vec, p)
                if self._track:
                    self._track_step(self.combos[q], a, b, p)
                # the content of a row divides its pivot entry
                if row[q] != 1:
                    self._make_primitive(q)
        return True

    def express(self, vec: dict):
        """Write vec as a combination of the tagged input vectors.

        Returns {tag: QQ} or None when vec is outside the span.  Requires
        track=True and that every independent vector was tagged.
        """
        if not self._track:
            raise ValueError("express() needs track=True")
        work, den = integral(vec)
        combo: dict = {}
        s = den * self._reduce(work, combo)
        if work:
            return None
        return {tag: -c / s for tag, c in combo.items()}


def nullspace(equations, columns) -> list:
    """Free columns of a sparse homogeneous system: equations are
    {column key: rational} dicts meaning sum(coeff*x_col) = 0, and
    columns lists every column key in ascending key order.

    Returns the columns that `pivot_columns` does not pivot on, in column
    order: each indexes one vector of a kernel basis (1 there, 0 at the
    other free columns), so their number is the dimension of the kernel,
    columns minus rank.  Which columns are free depends on the pivots
    chosen, and so on the order of the equations; their number does not.
    """
    pivoted = pivot_columns(equations)
    return [f for f in columns if f not in pivoted]


def block_nullspaces(columns, block_key, equations) -> list:
    """Kernel dimensions of a block-diagonal system, its columns split
    into blocks by block_key.  Each block is solved once, as `nullspace`
    of equations(cols) with the rows keyed by index into its columns.
    Returns (block key, kernel dimension) per block, in key order."""
    blocks: dict = {}
    for c in columns:
        blocks.setdefault(block_key(c), []).append(c)
    return [(key, len(nullspace(equations(cols), range(len(cols)))))
            for key, cols in sorted(blocks.items())]


def solve_affine(equations, rhs, columns):
    """Particular solution of sum(coeff*x) = rhs per equation.

    Each equation enters an `Echelon` rekeyed to column indices, with -rhs
    at index len(columns), after every unknown; so the pivots are the
    columns outside the span of the columns before them and the others
    are the free variables, set to 0.  Returns (solution dict, rank) or
    (None, rank) when the system is inconsistent, which is when the
    constant column becomes a pivot.  rank is the rank of the coefficient
    matrix.
    """
    index = {c: i for i, c in enumerate(columns)}
    const = len(columns)
    ech = Echelon()
    for eq, b in zip(equations, rhs):
        row = {index[c]: v for c, v in eq.items()}
        ech.add({**row, const: -b} if b else row)
    if const in ech.rows:
        return None, ech.rank - 1
    return {columns[p]: QQ(-row[const], row[p])
            for p, row in ech.rows.items() if const in row}, ech.rank

"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping comparable column keys to nonzero rational
entries (QQ or int); elimination itself runs on integer rows.  Each row
pivots on its least key, so the stored rows are multiples of the unique
reduced row echelon form of the span, and what `nullspace` and
`solve_affine` return does not depend on the order of the input rows.
"""

from __future__ import annotations

from bisect import bisect_left
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


class Echelon:
    """Incremental reduced row echelon structure over the integers.

    Each stored row is a primitive integer vector (content 1) whose pivot,
    its least key, has a positive entry, and which is zero on every other
    pivot column; so it is a nonzero multiple of the canonical reduced row
    of the span of everything added so far.  Reduction is fraction-free:
    a row cancels the entry b of a vector whose own pivot entry is a by
    vec = (a/g)*vec - (b/g)*row with g = gcd(a, b) (Bareiss 1968).  Inputs
    may be rational; `add` clears their denominators, and `express`
    returns QQ.  With track=True each row also carries its expression in
    terms of the original tagged vectors, which `express` uses.
    """

    def __init__(self, track: bool = False):
        self._track = track
        self.rows: dict = {}            # pivot col -> int row, pivot order
        self.combos: dict = {}          # pivot col -> {tag: QQ}
        self._holders: dict = {}        # column -> {pivot col whose row has it}

    @property
    def rank(self) -> int:
        return len(self.rows)

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
            row = rows[p]
            a, b = row[p], vec[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                _scale(vec, a)
                s *= a
            axpy(vec, row, -b)
            if self._track:
                if a != 1:
                    _scale(combo, a)
                axpy(combo, self.combos[p], -b)
        return s

    @staticmethod
    def _primitive(row: dict, combo: dict, p) -> None:
        """Divide row and combo in place by the content of row, signed so
        that the pivot entry row[p] is positive."""
        g = gcd(*row.values())
        if row[p] < 0:
            g = -g
        if g != 1:
            for k in row:
                row[k] //= g
            for t in combo:
                combo[t] /= g

    def add(self, vec: dict, tag=None) -> bool:
        """Insert vec; returns True when it enlarges the span."""
        vec, den = integral(vec)
        combo = {tag: QQ(den)} if (self._track and tag is not None) else {}
        self._reduce(vec, combo)
        if not vec:
            return False
        p = min(vec)
        self._primitive(vec, combo, p)
        # back-substitute into the stored rows that hold p, which keeps
        # every row zero on the other pivot columns
        a = vec[p]
        holders = self._holders
        for q in holders.pop(p, ()):
            row = self.rows[q]
            g = gcd(a, row[p])
            m, c = a // g, row[p] // g
            if m != 1:
                _scale(row, m)
            axpy(row, vec, -c)
            if self._track:
                if m != 1:
                    _scale(self.combos[q], m)
                axpy(self.combos[q], combo, -c)
            for k in vec:
                if k in row:
                    holders.setdefault(k, {})[q] = None
                else:
                    holders.get(k, {}).pop(q, None)
            # the content of a row divides its pivot entry
            if row[q] != 1:
                self._primitive(row, self.combos[q], q)
        for k in vec:
            if k != p:
                holders.setdefault(k, {})[p] = None
        self.rows[p] = vec
        self.combos[p] = combo
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

    Returns the non-pivot columns, in column order.  Each indexes one
    vector of the canonical kernel basis (1 there, 0 at the other free
    columns), so their number is the dimension of the kernel.  The
    equations are added shortest first (ties in input order); the free
    columns do not depend on that order, and short rows are cheap pivots
    for the long ones.
    """
    ech = Echelon()
    for eq in sorted(equations, key=len):
        ech.add(eq)
    return [f for f in columns if f not in ech.rows]


def block_nullspaces(columns, block_key, equations) -> list:
    """Free columns of a block-diagonal system, its columns (given in
    column order) split into blocks by block_key.  Each block is solved
    once, as `nullspace` of equations(cols) with the rows keyed by index
    into its columns.  Returns (block key, free columns) per block, in key
    order."""
    blocks: dict = {}
    for c in columns:
        blocks.setdefault(block_key(c), []).append(c)
    return [(key, [cols[i] for i in nullspace(equations(cols),
                                              range(len(cols)))])
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

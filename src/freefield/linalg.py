"""Sparse exact linear algebra over the rationals.

Vectors are dicts mapping hashable column keys to nonzero QQ entries.  All
routines are deterministic: pivots are chosen by a fixed column order and
rows are processed in input order, so reduced bases are canonical for a
given input.
"""

from __future__ import annotations

from .rationals import QQ, ZERO


def axpy(u: dict, v: dict, scale=1) -> None:
    """u += scale*v in place, dropping zeros; v is left unchanged.

    This is the one sparse accumulator of the package: every sum of states,
    polynomials, Weyl elements and echelon rows goes through it.
    """
    unit = scale == 1
    for k, c in v.items():
        s = u.get(k, ZERO) + (c if unit else scale * c)
        if s:
            u[k] = s
        else:
            u.pop(k, None)


def perm_sign(perm) -> int:
    """Sign of a sequence of distinct comparable items: (-1)^inversions."""
    sign = 1
    for i, a in enumerate(perm):
        for b in perm[i + 1:]:
            if a > b:
                sign = -sign
    return sign


def vec_scale(u: dict, scale) -> dict:
    if not scale:
        return {}
    return {k: scale * c for k, c in u.items()}


class Echelon:
    """Incremental reduced row echelon structure.

    Maintains pivot rows with pivot entry 1 and back-substitution applied,
    so `rows` is the canonical reduced basis of the span of everything
    added so far.  With track=True each row also carries its expression in
    terms of the original tagged vectors, which `express` uses.
    """

    def __init__(self, col_rank=None, track: bool = False):
        # col_rank: column key -> sort rank; defaults to the key itself.
        self._col_rank = col_rank if col_rank is not None else (lambda c: c)
        self._track = track
        self.pivots: list = []          # pivot column keys, insertion order
        self.rows: dict = {}            # pivot col -> row dict
        self.combos: dict = {}          # pivot col -> {tag: QQ}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict, combo: dict):
        """Eliminate the pivot columns of vec in one pass.

        Every stored row is zero on every other pivot column, so removing
        one pivot column never brings back another: only the pivots vec
        already holds need a subtraction.  Returns the reduced copy of vec
        and combo, which is updated in place.
        """
        vec = dict(vec)
        rows = self.rows
        for p in [k for k in vec if k in rows]:
            c = vec[p]
            axpy(vec, rows[p], -c)
            if self._track:
                axpy(combo, self.combos[p], -c)
        return vec, combo

    def add(self, vec: dict, tag=None) -> bool:
        """Insert vec; returns True when it enlarges the span."""
        combo = {tag: QQ(1)} if (self._track and tag is not None) else {}
        vec, combo = self._reduce(vec, combo)
        if not vec:
            return False
        p = min(vec, key=self._col_rank)
        inv = 1 / vec[p]
        vec = vec_scale(vec, inv)
        combo = vec_scale(combo, inv)
        # back-substitute into the stored rows to keep them fully reduced
        for q in self.pivots:
            c = self.rows[q].get(p)
            if c:
                axpy(self.rows[q], vec, -c)
                if self._track:
                    axpy(self.combos[q], combo, -c)
        self.pivots.append(p)
        self.rows[p] = vec
        self.combos[p] = combo
        return True

    def residual(self, vec: dict) -> dict:
        """vec reduced modulo the current span."""
        return self._reduce(vec, {})[0]

    def express(self, vec: dict):
        """Write vec as a combination of the tagged input vectors.

        Returns {tag: QQ} or None when vec is outside the span.  Requires
        track=True and that every independent vector was tagged.
        """
        if not self._track:
            raise ValueError("express() needs track=True")
        work, combo = self._reduce(vec, {})
        if work:
            return None
        return {tag: -c for tag, c in combo.items()}

    def reduced_rows(self) -> list:
        """Rows sorted by pivot rank: the canonical basis of the span."""
        return [dict(self.rows[p])
                for p in sorted(self.pivots, key=self._col_rank)]


def rank_of(vectors, col_rank=None) -> int:
    ech = Echelon(col_rank=col_rank)
    for v in vectors:
        ech.add(v)
    return ech.rank


def nullspace(equations, columns) -> list:
    """Kernel basis of a sparse equation system.

    equations: iterable of {column key: QQ} meaning sum(coeff*x_col) = 0.
    columns: ordered list of all column keys (fixes determinism).
    Returns the canonical basis: one vector per free column, that column's
    entry set to 1, in column order.
    """
    order = {c: i for i, c in enumerate(columns)}
    ech = Echelon(col_rank=lambda c: order[c])
    for eq in equations:
        ech.add(eq)
    pivot_set = set(ech.pivots)
    basis = []
    for f in columns:
        if f in pivot_set:
            continue
        v = {f: QQ(1)}
        for p in ech.pivots:
            c = ech.rows[p].get(f)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def solve_affine(equations, rhs, columns):
    """Particular solution of sum(coeff*x) = rhs per equation.

    Returns (solution dict with free vars 0, rank) or (None, rank) when the
    system is inconsistent.  rank is the rank of the coefficient matrix.
    """
    order = {c: i for i, c in enumerate(columns)}
    RHS = ("_rhs",)
    if RHS in order:
        raise ValueError(f"column key {RHS!r} is reserved for the right-hand side")

    def crank(c):
        # rhs column must never be chosen as a pivot before real columns
        return (1, 0) if c == RHS else (0, order[c])

    ech = Echelon(col_rank=crank)
    for eq, b in zip(equations, rhs):
        row = dict(eq)
        if b:
            row[RHS] = -b
        ech.add(row)
    coeff_rank = sum(1 for p in ech.pivots if p != RHS)
    if RHS in ech.rows:
        return None, coeff_rank
    sol = {}
    for p in ech.pivots:
        c = ech.rows[p].get(RHS)
        if c:
            sol[p] = -c
    return sol, coeff_rank

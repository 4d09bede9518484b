"""Reference elimination for the tests: rational Gauss-Jordan with
pivot entries 1, and the canonical kernel basis read off it."""

from freefield.rationals import QQ, ZERO


def lin(u, v, scale):
    """u + scale*v as a new dict without zero entries."""
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, ZERO) + scale * c
    return {k: c for k, c in out.items() if c}


class GaussJordan:
    """Rational Gauss-Jordan elimination with pivot entries 1, walking
    every stored pivot on every reduction; a row pivots on its least
    column under col_rank."""

    def __init__(self, col_rank=lambda c: c):
        self.col_rank = col_rank
        self.rows: dict = {}
        self.combos: dict = {}

    def reduce(self, vec, combo):
        vec, combo = dict(vec), dict(combo)
        for p in self.rows:
            c = vec.get(p)
            if c:
                vec = lin(vec, self.rows[p], -c)
                combo = lin(combo, self.combos[p], -c)
        return vec, combo

    def add(self, vec, tag=None):
        vec, combo = self.reduce(vec, {} if tag is None else {tag: QQ(1)})
        if not vec:
            return False
        p = min(vec, key=self.col_rank)
        inv = QQ(1) / vec[p]
        vec = {k: c * inv for k, c in vec.items()}
        combo = {t: c * inv for t, c in combo.items()}
        for q in self.rows:
            c = self.rows[q].get(p)
            if c:
                self.rows[q] = lin(self.rows[q], vec, -c)
                self.combos[q] = lin(self.combos[q], combo, -c)
        self.rows[p] = vec
        self.combos[p] = combo
        return True

    def express(self, vec):
        work, combo = self.reduce(vec, {})
        return None if work else {t: -c for t, c in combo.items()}


def reference_nullspace(rows, cols):
    """{free column: its canonical kernel vector} in column order: the
    free columns are those that are not pivots when the rows are
    eliminated under the column order of cols, and the vector of a free
    column f is 1 at f, 0 at the other free columns and minus the entry
    of f in each pivot's row at that pivot."""
    order = {c: i for i, c in enumerate(cols)}
    ref = GaussJordan(order.__getitem__)
    # the reduced rows do not depend on the order the rows come in, and
    # short rows are cheap pivots for the long ones
    for row in sorted(rows, key=len):
        ref.add(row)
    return {f: {f: QQ(1), **{p: -r[f] for p, r in ref.rows.items() if f in r}}
            for f in cols if f not in ref.rows}

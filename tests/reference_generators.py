"""Reference generating set of the truncated current algebra for the
tests: the greedy walk over every pair (index, r) in (r, index) order,
closing the span of the kept elements under brackets in one `Echelon`
over all coordinates (index, r)."""

from freefield.linalg import Echelon, axpy
from freefield.rationals import QQ


def greedy_current_generators(A, weight: int) -> list:
    """(basis index, r) pairs whose elements x_index t^r generate
    g[t]/t^(weight+1): a pair is kept when it lies outside the subalgebra
    generated by those kept so far.  With an odd basis element every pair
    is returned."""
    pairs = [(i, r) for r in range(weight + 1) for i in range(A.dim)]
    if any(A.parity):
        return pairs

    def bracket_current(u: dict, v: dict) -> dict:
        out: dict = {}
        for (i, a), cu in u.items():
            for (j, b), cv in v.items():
                if a + b <= weight:
                    br = A.structure(i, j)
                    axpy(out, {(k, a + b): c for k, c in br.items()}, cu * cv)
        return out

    span = Echelon()
    spanning: list = []
    kept = []
    for i, r in pairs:
        if span.rank == len(pairs):
            break
        x = {(i, r): QQ(1)}
        if not span.add(x):
            continue
        kept.append((i, r))
        pending = [x]
        while pending:
            x = pending.pop()
            spanning.append(x)
            for y in spanning:
                z = bracket_current(x, y)
                if z and span.add(z):
                    pending.append(z)
    return kept

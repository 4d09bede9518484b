"""Classical (super)Lie algebra data: bases, representations, forms.

Everything is exact.  Structure constants are recovered from matrix
(super)commutators in the defining representation, never hardcoded, so
bracket tables stay consistent with the rep by construction.
"""

from __future__ import annotations

from math import lcm

from .linalg import Echelon, axpy
from .rationals import QQ, ZERO

Matrix = tuple


def zero_matrix(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return tuple(tuple(ZERO for _ in range(m)) for _ in range(n))


def unit_matrix(n: int, a: int, b: int) -> Matrix:
    """e_{ab}, 0-indexed."""
    return tuple(
        tuple(QQ(1) if (r == a and c == b) else ZERO for c in range(n))
        for r in range(n)
    )


def mat_add(*ms: Matrix) -> Matrix:
    n, m = len(ms[0]), len(ms[0][0])
    return tuple(
        tuple(sum((M[r][c] for M in ms), ZERO) for c in range(m)) for r in range(n)
    )


def mat_scale(M: Matrix, s) -> Matrix:
    return tuple(tuple(s * c for c in row) for row in M)


def mat_mul(X: Matrix, Y: Matrix) -> Matrix:
    n, k, m = len(X), len(Y), len(Y[0])
    return tuple(
        tuple(sum((X[r][t] * Y[t][c] for t in range(k)), ZERO) for c in range(m))
        for r in range(n)
    )


def mat_transpose(M: Matrix) -> Matrix:
    return tuple(tuple(row[c] for row in M) for c in range(len(M[0])))


def mat_trace(M: Matrix):
    return sum((M[i][i] for i in range(len(M))), ZERO)


def mat_supertrace(M: Matrix, parity):
    return sum(
        ((-1) ** parity[i] * M[i][i] for i in range(len(M))), ZERO
    )


def mat_inverse(M: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(M)
    aug = [
        [QQ(M[r][c]) for c in range(n)]
        + [QQ(1) if c == r else ZERO for c in range(n)]
        for r in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class LieAlgebraSpec:
    """Basis-labeled Lie (super)algebra with defining representation.

    rep[i] is the matrix of basis element i on the standard module; for
    glsuper the module is Z/2-graded with rep_parity marking odd rows.
    Immutable after construction; structure constants are derived lazily
    from rep (super)commutators.
    """

    def __init__(self, kind, params, labels, parity, rep, rep_parity=None):
        self.kind = kind
        self.params = tuple(params)
        self.labels = tuple(labels)
        self.parity = tuple(parity)
        self.rep = tuple(rep)
        self.rep_dim = len(rep[0])
        self.rep_parity = tuple(rep_parity) if rep_parity else (0,) * self.rep_dim
        self.dim = len(self.labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._echelon = None
        self._structure: dict = {}
        self._killing = None

    # -- basis bookkeeping -------------------------------------------------

    def index(self, x) -> int:
        if isinstance(x, int):
            return x
        return self.label_index[x]

    def coords(self, x) -> dict:
        """Accept a basis label/index or a {basis: QQ} dict."""
        if isinstance(x, dict):
            return {self.index(k): QQ(c) for k, c in x.items() if c}
        return {self.index(x): QQ(1)}

    def matrix_for(self, x) -> Matrix:
        co = self.coords(x)
        out = zero_matrix(self.rep_dim)
        for i, c in co.items():
            out = mat_add(out, mat_scale(self.rep[i], c))
        return out

    def dual_matrix(self, x) -> Matrix:
        return mat_scale(mat_transpose(self.matrix_for(x)), QQ(-1))

    # -- structure constants ----------------------------------------------

    def _basis_echelon(self) -> Echelon:
        if self._echelon is None:
            ech = Echelon(track=True)
            for i, M in enumerate(self.rep):
                v = {
                    (r, c): M[r][c]
                    for r in range(self.rep_dim)
                    for c in range(self.rep_dim)
                    if M[r][c]
                }
                if not ech.add(v, tag=i):
                    raise ValueError(f"dependent basis matrix {self.labels[i]}")
            self._echelon = ech
        return self._echelon

    def _express_matrix(self, M: Matrix) -> dict:
        v = {
            (r, c): M[r][c]
            for r in range(self.rep_dim)
            for c in range(self.rep_dim)
            if M[r][c]
        }
        combo = self._basis_echelon().express(v)
        if combo is None:
            raise ValueError("matrix outside the algebra span")
        return combo

    def structure(self, i: int, j: int) -> dict:
        """[x_i, x_j] in basis coordinates."""
        key = (i, j)
        if key not in self._structure:
            sign = (-1) ** (self.parity[i] * self.parity[j])
            M = mat_add(
                mat_mul(self.rep[i], self.rep[j]),
                mat_scale(mat_mul(self.rep[j], self.rep[i]), QQ(-sign)),
            )
            self._structure[key] = self._express_matrix(M)
        return self._structure[key]


def current_generators(A: LieAlgebraSpec, weight: int) -> list:
    """(basis index, r) pairs whose elements x_index t^r generate the
    truncated current algebra g[t]/t^(weight+1) as a Lie algebra.

    Pairs are taken greedily in (r, index) order, each one only when it
    lies outside the subalgebra generated by those kept so far; that
    subalgebra is spanned exactly over the coordinates (index, r).  A
    central element that is not a bracket, such as the identity of gl_n,
    is therefore kept at every r.  With an odd basis element every pair is
    returned, since callers act by each x t^r as an even operator and the
    closure under super-brackets would not bound their joint kernel.
    """
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
        # close the span under brackets: every new spanning element is
        # bracketed with every one already there, itself included
        pending = [x]
        while pending:
            x = pending.pop()
            spanning.append(x)
            for y in spanning:
                z = bracket_current(x, y)
                if z and span.add(z):
                    pending.append(z)
    return kept


def torus_weights(indices, atoms, image) -> tuple:
    """The diagonal part of a basis action and the weights it gives.

    image(i, a) is the image {atom: coefficient} of the atom a under the
    basis element i.  An index counts as diagonal when it maps every atom
    to a multiple of itself; the atom's weight under it is that
    eigenvalue, scaled for each index by the lcm of the denominators of
    its eigenvalues, which keeps the weight-0 condition, so weights are
    ints.  Returns (diagonal indices, {atom: tuple of weights, one per
    diagonal index}).
    """
    diag, columns = [], []
    for i in indices:
        col = []
        for a in atoms:
            img = image(i, a)
            if any(b != a for b in img):
                break
            col.append(QQ(img.get(a, 0)))
        else:
            den = lcm(*[c.denominator for c in col])
            diag.append(i)
            columns.append([int(c * den) for c in col])
    return diag, {a: tuple(col[k] for col in columns)
                  for k, a in enumerate(atoms)}


def trace_form(A: LieAlgebraSpec, x, y):
    """(Super)trace of rho(x)rho(y) on the defining module."""
    M = mat_mul(A.matrix_for(x), A.matrix_for(y))
    if A.kind == "glsuper":
        return mat_supertrace(M, A.rep_parity)
    return mat_trace(M)


def gram_matrix(A: LieAlgebraSpec, form) -> Matrix:
    return tuple(
        tuple(form(A, i, j) for j in range(A.dim)) for i in range(A.dim)
    )


def trace_gram(A: LieAlgebraSpec) -> Matrix:
    return gram_matrix(A, trace_form)


def killing_gram(A: LieAlgebraSpec) -> Matrix:
    """K[i][j] = tr(ad x_i ad x_j), the ordinary trace, read off the
    sparse structure constants: (ad x_i)[a][b] is the x_a coefficient of
    [x_i, x_b]."""
    if A._killing is None:
        r = range(A.dim)
        A._killing = tuple(
            tuple(sum((c * A.structure(j, a).get(b, 0)
                       for b in r for a, c in A.structure(i, b).items()), ZERO)
                  for j in r)
            for i in r
        )
    return A._killing


def dual_coxeter(A: LieAlgebraSpec):
    if A.kind == "sl":
        return A.params[0]
    if A.kind in ("so", "so_split"):
        return A.params[0] - 2
    if A.kind == "sp":
        return A.params[0] // 2 + 1
    return None


def normalized_gram(A: LieAlgebraSpec) -> Matrix:
    """Killing form divided by 2 h-dual; the form giving level 1 its
    usual meaning for the simple classical kinds."""
    h = dual_coxeter(A)
    if h is None:
        raise ValueError(f"no normalized form for kind {A.kind!r}")
    if not h:
        raise ValueError(
            f"normalized form undefined for kind {A.kind!r} {A.params}: "
            "dual Coxeter number is zero"
        )
    K = killing_gram(A)
    return mat_scale(K, QQ(1, 2 * h))


# -- constructors ----------------------------------------------------------


def _gl(n: int) -> LieAlgebraSpec:
    labels, rep = [], []
    for a in range(n):
        for b in range(n):
            labels.append(f"e[{a + 1},{b + 1}]")
            rep.append(unit_matrix(n, a, b))
    return LieAlgebraSpec("gl", (n,), labels, [0] * len(labels), rep)


def _sl(n: int) -> LieAlgebraSpec:
    if n == 2:
        labels = ["x", "y", "h"]
        rep = [
            unit_matrix(2, 0, 1),
            unit_matrix(2, 1, 0),
            mat_add(unit_matrix(2, 0, 0), mat_scale(unit_matrix(2, 1, 1), QQ(-1))),
        ]
        return LieAlgebraSpec("sl", (2,), labels, [0, 0, 0], rep)
    labels, rep = [], []
    for a in range(n):
        for b in range(n):
            if a != b:
                labels.append(f"e[{a + 1},{b + 1}]")
                rep.append(unit_matrix(n, a, b))
    for a in range(n - 1):
        labels.append(f"h[{a + 1}]")
        rep.append(
            mat_add(
                unit_matrix(n, a, a),
                mat_scale(unit_matrix(n, a + 1, a + 1), QQ(-1)),
            )
        )
    return LieAlgebraSpec("sl", (n,), labels, [0] * len(labels), rep)


def _so(n: int) -> LieAlgebraSpec:
    """Antisymmetric matrices: preserves the form sum x_i^2."""
    labels, rep = [], []
    for j in range(n):
        for k in range(j + 1, n):
            labels.append(f"a[{j + 1},{k + 1}]")
            rep.append(
                mat_add(unit_matrix(n, j, k), mat_scale(unit_matrix(n, k, j), QQ(-1)))
            )
    return LieAlgebraSpec("so", (n,), labels, [0] * len(labels), rep)


def _sp_block(m: int) -> LieAlgebraSpec:
    """sp_2m in the block basis: J = [[0, I], [-I, 0]].

    Basis order: m_{jk} = e_{j,k+m} + e_{k,j+m} (j <= k), then
    d_{jk} = -e_{j+m,k} - e_{k+m,j} (j <= k), then
    h_{jk} = e_{j,k} - e_{m+k,m+j} (all j, k).
    """
    N = 2 * m
    labels, rep = [], []
    for j in range(m):
        for k in range(j, m):
            labels.append(f"m[{j + 1},{k + 1}]")
            rep.append(
                mat_add(unit_matrix(N, j, k + m), unit_matrix(N, k, j + m))
            )
    for j in range(m):
        for k in range(j, m):
            labels.append(f"d[{j + 1},{k + 1}]")
            rep.append(
                mat_scale(
                    mat_add(unit_matrix(N, j + m, k), unit_matrix(N, k + m, j)),
                    QQ(-1),
                )
            )
    for j in range(m):
        for k in range(m):
            labels.append(f"h[{j + 1},{k + 1}]")
            rep.append(
                mat_add(
                    unit_matrix(N, j, k),
                    mat_scale(unit_matrix(N, m + k, m + j), QQ(-1)),
                )
            )
    return LieAlgebraSpec("sp", (N,), labels, [0] * len(labels), rep)


def _so_split(m: int) -> LieAlgebraSpec:
    """so_2m in the split block basis (antisymmetric off-diagonal blocks):
    s_{jk} = e_{j,k+m} - e_{k,j+m} (j < k), d_{jk} = e_{j+m,k} - e_{k+m,j}
    (j < k), h_{jk} = e_{j,k} - e_{m+k,m+j}."""
    N = 2 * m
    labels, rep = [], []
    for j in range(m):
        for k in range(j + 1, m):
            labels.append(f"s[{j + 1},{k + 1}]")
            rep.append(
                mat_add(
                    unit_matrix(N, j, k + m),
                    mat_scale(unit_matrix(N, k, j + m), QQ(-1)),
                )
            )
    for j in range(m):
        for k in range(j + 1, m):
            labels.append(f"d[{j + 1},{k + 1}]")
            rep.append(
                mat_add(
                    unit_matrix(N, j + m, k),
                    mat_scale(unit_matrix(N, k + m, j), QQ(-1)),
                )
            )
    for j in range(m):
        for k in range(m):
            labels.append(f"h[{j + 1},{k + 1}]")
            rep.append(
                mat_add(
                    unit_matrix(N, j, k),
                    mat_scale(unit_matrix(N, m + k, m + j), QQ(-1)),
                )
            )
    return LieAlgebraSpec("so_split", (N,), labels, [0] * len(labels), rep)


def _glsuper(r: int, s: int) -> LieAlgebraSpec:
    N = r + s
    rep_parity = [0] * r + [1] * s
    labels, rep, parity = [], [], []
    for a in range(N):
        for b in range(N):
            labels.append(f"e[{a + 1},{b + 1}]")
            rep.append(unit_matrix(N, a, b))
            parity.append((rep_parity[a] + rep_parity[b]) % 2)
    return LieAlgebraSpec("glsuper", (r, s), labels, parity, rep, rep_parity)


def split_label(label: str) -> tuple:
    """(kind, integer indices) of a basis label "kind[i,j,...]" as built
    above, e.g. "e[1,2]" -> ("e", (1, 2))."""
    kind, rest = label.split("[")
    return kind, tuple(int(t) for t in rest.rstrip("]").split(","))


def make_algebra(kind: str, *params) -> LieAlgebraSpec:
    """Build gl(n), sl(n), so(n) [n >= 3, antisymmetric], sp(2m) [2m >= 4,
    block basis], so_split(2m) [2m >= 2, block basis], glsuper(r, s)."""
    if kind == "gl":
        (n,) = params
        if n < 1:
            raise ValueError("gl needs n >= 1")
        return _gl(n)
    if kind == "sl":
        (n,) = params
        if n < 2:
            raise ValueError("sl needs n >= 2")
        return _sl(n)
    if kind == "so":
        (n,) = params
        if n < 3:
            raise ValueError("so needs n >= 3")
        return _so(n)
    if kind == "sp":
        (N,) = params
        if N < 4 or N % 2:
            raise ValueError("sp needs even dimension >= 4")
        return _sp_block(N // 2)
    if kind == "so_split":
        (N,) = params
        if N < 2 or N % 2:
            raise ValueError("so_split needs even dimension >= 2")
        return _so_split(N // 2)
    if kind == "glsuper":
        r, s = params
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("glsuper needs r, s >= 0, r + s >= 1")
        return _glsuper(r, s)
    raise ValueError(f"unknown algebra kind {kind!r}")


def sp_any(m: int) -> LieAlgebraSpec:
    """sp_2m for any m >= 1 (sp_2 = sl_2 in the block basis); internal
    constructor for quadratic current families, where m = 1 is legitimate."""
    if m < 1:
        raise ValueError("sp_any needs m >= 1")
    return _sp_block(m)

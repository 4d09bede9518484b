"""Classical (super)Lie algebra data: bases, representations, forms.

Everything is exact and integral.  Structure constants are recovered
from matrix (super)commutators in the defining representation, never
hardcoded, so bracket tables stay consistent with the rep by construction.
"""

from __future__ import annotations

from itertools import product

from .linalg import Echelon, axpy, integral, pivot_columns
from .rationals import QQ, ONE


def mat_mul(X: dict, Y: dict) -> dict:
    """XY for sparse matrices {(row, col): entry}."""
    out: dict = {}
    for (r, t), x in X.items():
        axpy(out, {(r, c): y for (s, c), y in Y.items() if s == t}, x)
    return out


def _integral(vec: dict, what: str) -> dict:
    """vec as an int dict; ValueError naming what when it is not one."""
    ints, den = integral(vec)
    if den != 1:
        raise ValueError(f"{what} has an entry with denominator {den}")
    return ints


class LieAlgebraSpec:
    """Basis-labeled Lie (super)algebra with defining representation.

    rep[i] is the matrix of basis element i on the standard module of
    dimension rep_dim, a sparse {(row, col): int} dict of its nonzero
    entries (0-indexed), the vector format of linalg; for glsuper the
    module is Z/2-graded with rep_parity marking odd rows.  Immutable
    after construction.  A rep matrix, or a structure constant in the
    basis, that is not an integer raises ValueError; the structure
    constants are derived from rep (super)commutators when first read.
    """

    def __init__(self, kind, params, labels, parity, rep, rep_dim,
                 rep_parity=None):
        self.kind = kind
        self.params = tuple(params)
        self.labels = tuple(labels)
        self.parity = tuple(parity)
        self.rep = tuple(_integral(M, f"rep matrix of {self.labels[i]}")
                         for i, M in enumerate(rep))
        self.rep_dim = rep_dim
        self.rep_parity = tuple(rep_parity) if rep_parity else (0,) * self.rep_dim
        self.dim = len(self.labels)
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._structure = None
        self._killing = None

    # -- basis bookkeeping -------------------------------------------------

    def index(self, x) -> int:
        if isinstance(x, int):
            return x
        return self.label_index[x]

    def coords(self, x) -> dict:
        """Accept a basis label/index or a {basis: coefficient} dict."""
        if isinstance(x, dict):
            return {self.index(k): c for k, c in x.items() if c}
        return {self.index(x): 1}

    def matrix_for(self, x) -> dict:
        """rho(x), a sparse {(row, col): entry} dict, for x as in coords."""
        out: dict = {}
        for i, c in self.coords(x).items():
            axpy(out, self.rep[i], c)
        return out

    def dual_matrix(self, x) -> dict:
        """-rho(x)^T."""
        return {(c, r): -v for (r, c), v in self.matrix_for(x).items()}

    # -- structure constants ----------------------------------------------

    def structure(self, i: int, j: int) -> dict:
        """[x_i, x_j] in basis coordinates, {k: int}.

        The table is built on first read: each (super)commutator of rep
        matrices is expressed in the basis by one tracked `Echelon` of the
        rep, and [x_j, x_i] = -(-1)^(|i||j|) [x_i, x_j].
        """
        if self._structure is None:
            ech = Echelon(track=True)
            for k, M in enumerate(self.rep):
                if not ech.add(M, tag=k):
                    raise ValueError(f"dependent basis matrix {self.labels[k]}")
            table: dict = {}
            for a in range(self.dim):
                for b in range(a, self.dim):
                    sign = (-1) ** (self.parity[a] * self.parity[b])
                    M = mat_mul(self.rep[a], self.rep[b])
                    axpy(M, mat_mul(self.rep[b], self.rep[a]), -sign)
                    combo = ech.express(M)
                    if combo is None:
                        raise ValueError("matrix outside the algebra span")
                    table[a, b] = _integral(
                        combo, f"[{self.labels[a]}, {self.labels[b]}]")
                    table[b, a] = {k: -sign * c for k, c in table[a, b].items()}
            self._structure = table
        return self._structure[i, j]


def current_generators(A: LieAlgebraSpec, weight: int) -> list:
    """(basis index, r) pairs whose elements x_index t^r generate the
    truncated current algebra g[t]/t^(weight+1) as a Lie algebra.

    A pair is kept when x_index t^r lies outside the subalgebra L
    generated by the pairs kept before it, in (r, index) order.  L is
    graded by t-degree and is built degree by degree: L_0 is the
    subalgebra of g generated by the pairs kept at r = 0, and for r >= 1,
    L_r is the ad(L_0)-closure of the x_i t^r kept at r and the brackets
    [L_a, L_b] with a + b = r and a, b >= 1.  That is all of L in degree
    r: a right-normed bracket [y, u] of kept elements lies in ad(L_0) L_r
    when y or u has degree 0, and in [L_a, L_b] otherwise.  A degree whose
    brackets already span g keeps no pair.  L_r reads only the degrees
    below r, so the pairs kept with r <= w are `current_generators(A, w)`.
    Spans are taken on the integer structure constants.  A central
    element that is not a bracket, such as the identity of gl_n, is kept
    at every r.
    With an odd basis element every pair is returned, since callers act
    by each x t^r as an even operator and the closure under
    super-brackets would not bound their joint kernel.
    """
    if any(A.parity):
        return [(i, r) for r in range(weight + 1) for i in range(A.dim)]

    def bracket(u: dict, v: dict) -> dict:
        out: dict = {}
        for (i, cu), (j, cv) in product(u.items(), v.items()):
            axpy(out, A.structure(i, j), cu * cv)
        return out

    kept, layers = [], []  # layers[r]: a basis of L_r
    for r in range(weight + 1):
        span = Echelon()
        for a in range(1, r // 2 + 1):
            for x, y in product(layers[a], layers[r - a]):
                z = bracket(x, y)
                if z and span.rank < A.dim:
                    span.add(z)
        # close under ad of the x_i kept at r = 0; at r = 0 every element
        # added is bracketed with all before it, which spans the subalgebra
        spanning = [{i: 1} for i, s in kept if not s] if r else []
        for i in range(A.dim):
            if span.rank == A.dim:
                break
            x = {i: 1}
            if not span.add(x):
                continue
            kept.append((i, r))
            pending = [x]
            while pending:
                z = pending.pop()
                if not r:
                    spanning.append(z)
                for y in spanning:
                    w = bracket(y, z)
                    if w and span.add(w):
                        pending.append(w)
        layers.append(list(span.rows.values()))
    return kept


def diagonal_basis(A: LieAlgebraSpec) -> list:
    """The indices of the basis elements with diagonal matrices, which
    span the torus of `simple_root_vectors`."""
    return [i for i, M in enumerate(A.rep) if all(r == c for r, c in M)]


def simple_root_vectors(A: LieAlgebraSpec):
    """The basis indices of the simple root vectors of A, in index order,
    or None where A is not shown to be reductive with a Cartan subalgebra
    spanned by basis elements and the other basis elements root vectors.

    The torus t is spanned by the basis elements with diagonal matrices.
    A qualifies when it has no odd element, every other basis element x
    is an ad-eigenvector, [h, x] = alpha(h) x for each h of the torus,
    with a nonzero root alpha (its eigenvalues under the diagonal basis
    elements, in index order), and the trace form tr(rho(x) rho(y)) of
    the defining module, which is faithful, is nondegenerate, so that A
    is reductive (Bourbaki, Lie I, 6.4, Prop. 5).  Then t is abelian,
    acts semisimply and is its own centraliser, so it is a Cartan
    subalgebra, the root spaces are the lines of the other basis
    elements, and the roots positive in lexicographic order form a
    positive system.  Its simple roots, the positive roots that are not
    the sum of two positive roots, form a base, and their root vectors
    generate as a Lie algebra the span n+ of the positive root vectors.
    """
    if any(A.parity):
        return None
    torus = diagonal_basis(A)
    roots = {}
    for j in range(A.dim):
        if j not in torus:
            brackets = [A.structure(h, j) for h in torus]
            roots[j] = tuple(br.get(j, 0) for br in brackets)
            if not any(roots[j]) or any(br.keys() - {j} for br in brackets):
                return None
    gram = [{j: t for j, t in enumerate(row) if t} for row in trace_form(A)]
    if len(pivot_columns(gram)) < A.dim:
        return None
    positive = {a for a in roots.values() if a > (0,) * len(a)}
    return [j for j, a in roots.items() if a in positive and not any(
        tuple(x - y for x, y in zip(a, b)) in positive for b in positive)]


def torus_weights(indices, atoms, image) -> tuple:
    """The diagonal part of a basis action and the weights it gives.

    image(i, a) is the image {atom: coefficient} of the atom a under the
    basis element i.  An index counts as diagonal when it maps every atom
    to a multiple of itself; the atom's weight under it is that
    eigenvalue, its eigenvalues for each index scaled to integers by
    `linalg.integral`, which keeps the weight-0 condition.  Returns
    (diagonal indices, {atom: tuple of weights, one per diagonal index}).
    """
    diag, columns = [], []
    for i in indices:
        col = {}
        for a in atoms:
            img = image(i, a)
            if any(b != a for b in img):
                break
            col[a] = img.get(a, 0)
        else:
            diag.append(i)
            columns.append(integral(col)[0])
    return diag, {a: tuple(col[a] for col in columns) for a in atoms}


def trace_form(A: LieAlgebraSpec) -> tuple:
    """T[i][j] = str(rho(x_i) rho(x_j)), the (super)trace on the defining
    module, as ints (the rep is integral): the diagonal of the sparse
    product, odd rows negated."""
    def form(i, j):
        M = mat_mul(A.rep[i], A.rep[j])
        return sum((-1) ** A.rep_parity[r] * v for (r, c), v in M.items()
                   if r == c)
    return tuple(tuple(form(i, j) for j in range(A.dim)) for i in range(A.dim))


def trace_gram(A: LieAlgebraSpec) -> tuple:
    """`trace_form` over QQ."""
    return tuple(tuple(map(QQ, row)) for row in trace_form(A))


def killing_gram(A: LieAlgebraSpec) -> tuple:
    """K[i][j] = tr(ad x_i ad x_j), the ordinary trace, read off the
    sparse structure constants: (ad x_i)[a][b] is the x_a coefficient of
    [x_i, x_b]."""
    if A._killing is None:
        r = range(A.dim)
        A._killing = tuple(
            tuple(QQ(sum(c * A.structure(j, a).get(b, 0)
                         for b in r for a, c in A.structure(i, b).items()))
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


def normalized_gram(A: LieAlgebraSpec) -> tuple:
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
    s = QQ(1, 2 * h)
    return tuple(tuple(s * c for c in row) for row in killing_gram(A))


def gram_inverse(G) -> list:
    """The rows of G^{-1}, as sparse {col: QQ} dicts, for a Gram matrix G
    given by its rows: row i is the combination of the rows of G that
    gives the unit vector e_i.  Raises ValueError when G is singular."""
    ech = Echelon(track=True)
    for i, row in enumerate(G):
        if not ech.add({j: g for j, g in enumerate(row) if g}, tag=i):
            raise ValueError("singular Gram matrix")
    return [ech.express({i: ONE}) for i in range(len(G))]


# -- constructors ----------------------------------------------------------


def _matrix(*entries) -> dict:
    """The sparse matrix sum of c e_{row,col} over the (row, col, c) in
    entries, 0-indexed; entries on one cell add up."""
    out: dict = {}
    for r, c, v in entries:
        axpy(out, {(r, c): v})
    return out


def _gl(kind: str, r: int, s: int = 0) -> LieAlgebraSpec:
    """gl(r) (kind "gl", s = 0) or gl(r|s) on C^(r|s): the units e_{ab}."""
    N = r + s
    rep_parity = [0] * r + [1] * s
    labels, rep, parity = [], [], []
    for a in range(N):
        for b in range(N):
            labels.append(f"e[{a + 1},{b + 1}]")
            rep.append(_matrix((a, b, 1)))
            parity.append((rep_parity[a] + rep_parity[b]) % 2)
    params = (r, s) if kind == "glsuper" else (r,)
    return LieAlgebraSpec(kind, params, labels, parity, rep, N, rep_parity)


def _sl(n: int) -> LieAlgebraSpec:
    if n == 2:
        rep = [_matrix((0, 1, 1)), _matrix((1, 0, 1)),
               _matrix((0, 0, 1), (1, 1, -1))]
        return LieAlgebraSpec("sl", (2,), ["x", "y", "h"], [0, 0, 0], rep, 2)
    labels, rep = [], []
    for a in range(n):
        for b in range(n):
            if a != b:
                labels.append(f"e[{a + 1},{b + 1}]")
                rep.append(_matrix((a, b, 1)))
    for a in range(n - 1):
        labels.append(f"h[{a + 1}]")
        rep.append(_matrix((a, a, 1), (a + 1, a + 1, -1)))
    return LieAlgebraSpec("sl", (n,), labels, [0] * len(labels), rep, n)


def _so(n: int) -> LieAlgebraSpec:
    """Antisymmetric matrices: preserves the form sum x_i^2."""
    labels, rep = [], []
    for j in range(n):
        for k in range(j + 1, n):
            labels.append(f"a[{j + 1},{k + 1}]")
            rep.append(_matrix((j, k, 1), (k, j, -1)))
    return LieAlgebraSpec("so", (n,), labels, [0] * len(labels), rep, n)


def _block_basis(kind: str, m: int, odd: int = 0) -> LieAlgebraSpec:
    """sp_2m (kind "sp", s = 1) or so_(2m+odd) (kind "so_split", s = -1)
    in the block basis, preserving [[0, I, 0], [-s I, 0, 0], [0, 0, 1]],
    whose last row and column exist only for odd = 1.  Basis order:
    m_{jk} = e_{j,k+m} + s e_{k,j+m} (named s_{jk} for so), then
    d_{jk} = -s e_{j+m,k} - e_{k+m,j}, both for j <= k (sp) or j < k (so),
    then h_{jk} = e_{j,k} - e_{m+k,m+j} for all j, k; for odd = 1, with
    z = 2m the extra coordinate, then u_j = e_{j,z} - e_{z,m+j} and
    v_j = e_{m+j,z} - e_{z,j}.  The diagonal h_{jj} span the torus
    diag(h, -h), with a last entry 0 for odd = 1.  The two entries of
    m_{jj} fall on one cell, which holds 2; those of d_{jj} give -2."""
    s, up = (1, "m") if kind == "sp" else (-1, "s")
    pairs = [(j, k) for j in range(m) for k in range(j + (s < 0), m)]
    labels, rep = [], []
    for j, k in pairs:
        labels.append(f"{up}[{j + 1},{k + 1}]")
        rep.append(_matrix((j, k + m, 1), (k, j + m, s)))
    for j, k in pairs:
        labels.append(f"d[{j + 1},{k + 1}]")
        rep.append(_matrix((j + m, k, -s), (k + m, j, -1)))
    for j in range(m):
        for k in range(m):
            labels.append(f"h[{j + 1},{k + 1}]")
            rep.append(_matrix((j, k, 1), (m + k, m + j, -1)))
    z = 2 * m
    if odd:
        for name, a, b in (("u", 0, m), ("v", m, 0)):
            for j in range(m):
                labels.append(f"{name}[{j + 1}]")
                rep.append(_matrix((a + j, z, 1), (z, b + j, -1)))
    return LieAlgebraSpec(kind, (z + odd,), labels, [0] * len(labels), rep,
                          z + odd)


def split_label(label: str) -> tuple:
    """(kind, integer indices) of a basis label "kind[i,j,...]" as built
    above, e.g. "e[1,2]" -> ("e", (1, 2))."""
    kind, rest = label.split("[")
    return kind, tuple(int(t) for t in rest.rstrip("]").split(","))


def make_algebra(kind: str, *params) -> LieAlgebraSpec:
    """Build gl(n), sl(n), so(n) [n >= 3, antisymmetric], sp(2m) [2m >= 4,
    block basis], so_split(N) [N >= 2, block basis, with one extra
    coordinate for odd N; see `_block_basis`], glsuper(r, s).

    so_split(N) preserves a split form, which over Q(i) is equivalent to
    sum x_i^2, so it is so(N) over Q(i) with a rational torus of rank
    N // 2, where the antisymmetric basis of so(N) has none."""
    if kind == "gl":
        (n,) = params
        if n < 1:
            raise ValueError("gl needs n >= 1")
        return _gl("gl", n)
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
        return _block_basis("sp", N // 2)
    if kind == "so_split":
        (N,) = params
        if N < 2:
            raise ValueError("so_split needs dimension >= 2")
        return _block_basis("so_split", N // 2, N % 2)
    if kind == "glsuper":
        r, s = params
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("glsuper needs r, s >= 0, r + s >= 1")
        return _gl("glsuper", r, s)
    raise ValueError(f"unknown algebra kind {kind!r}")


def sp_any(m: int) -> LieAlgebraSpec:
    """sp_2m for any m >= 1 (sp_2 = sl_2 in the block basis); internal
    constructor for quadratic current families, where m = 1 is legitimate."""
    if m < 1:
        raise ValueError("sp_any needs m >= 1")
    return _block_basis("sp", m)

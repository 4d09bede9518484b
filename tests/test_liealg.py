import pytest
from reference_generators import greedy_current_generators

from freefield.liealg import (
    current_generators, dual_coxeter, gram_inverse, killing_gram,
    make_algebra, normalized_gram, sp_any, torus_weights, trace_gram,
)
from freefield.rationals import QQ


# dense references, independent of the sparse format of liealg


def _dense(M, n):
    """The n x n list of lists of a sparse {(row, col): QQ} matrix."""
    return [[M.get((r, c), 0) for c in range(n)] for r in range(n)]


def _mul(X, Y):
    return [[sum(X[r][t] * Y[t][c] for t in range(len(Y)))
             for c in range(len(Y[0]))] for r in range(len(X))]


def _trace(M):
    return sum((M[i][i] for i in range(len(M))), QQ(0))


def _scale(G, s):
    return tuple(tuple(s * c for c in row) for row in G)


def _reference_inverse(M):
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = len(M)
    aug = [
        [QQ(M[r][c]) for c in range(n)]
        + [QQ(1) if c == r else QQ(0) for c in range(n)]
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
    return [row[n:] for row in aug]


def test_dimensions():
    assert make_algebra("gl", 3).dim == 9
    assert make_algebra("sl", 2).dim == 3
    assert make_algebra("so", 3).dim == 3
    assert make_algebra("sp", 4).dim == 10
    assert make_algebra("so_split", 4).dim == 6
    assert make_algebra("glsuper", 1, 1).dim == 4


def test_bracket_antisymmetry_and_jacobi():
    A = make_algebra("sl", 3)
    for i in range(A.dim):
        for j in range(A.dim):
            xy = A.structure(i, j)
            yx = A.structure(j, i)
            assert xy == {k: -c for k, c in yx.items()}
    # spot-check Jacobi on a fixed triple via the rep
    x, y, z = (_dense(A.rep[i], A.rep_dim) for i in (0, 3, 5))

    def br(u, v):
        return [[u_row[c] - v_row[c] for c in range(len(u))]
                for u_row, v_row in zip(_mul(u, v), _mul(v, u))]

    lhs = br(x, br(y, z))
    rhs = [[br(br(x, y), z)[r][c] + br(y, br(x, z))[r][c]
            for c in range(len(lhs))] for r in range(len(lhs))]
    assert lhs == rhs


def test_super_bracket_closes():
    A = make_algebra("glsuper", 2, 1)
    for i in range(A.dim):
        for j in range(A.dim):
            for k, c in A.structure(i, j).items():
                assert 0 <= k < A.dim and c


def test_killing_is_multiple_of_trace_for_sl2():
    A = make_algebra("sl", 2)
    K = killing_gram(A)
    T = trace_gram(A)
    assert K == _scale(T, QQ(4))


def _dense_killing(A):
    # tr(ad_i ad_j) from dense ad matrices: ad_i[a][b] is the x_a
    # coefficient of [x_i, x_b]
    ads = [tuple(tuple(A.structure(i, b).get(a, QQ(0)) for b in range(A.dim))
                 for a in range(A.dim)) for i in range(A.dim)]
    return tuple(tuple(_trace(_mul(ads[i], ads[j]))
                       for j in range(A.dim)) for i in range(A.dim))


@pytest.mark.parametrize("kind, params", [
    ("sl", (2,)), ("so", (3,)), ("sl", (3,)), ("so", (4,)), ("sp", (4,)),
    ("gl", (2,)), ("glsuper", (1, 1)),
])
def test_killing_gram_matches_dense_trace(kind, params):
    A = make_algebra(kind, *params)
    K = killing_gram(A)
    assert K == _dense_killing(A)
    assert all(type(c) is QQ for row in K for c in row)


def test_dual_coxeter_numbers():
    assert dual_coxeter(make_algebra("sl", 2)) == 2
    assert dual_coxeter(make_algebra("sl", 3)) == 3
    assert dual_coxeter(make_algebra("so", 3)) == 1
    assert dual_coxeter(make_algebra("sp", 4)) == 3


def test_normalized_gram_undefined_for_abelian_so2():
    A = make_algebra("so_split", 2)
    assert A.dim == 1
    with pytest.raises(ValueError):
        normalized_gram(A)


def test_normalized_halves_killing():
    A = make_algebra("so", 3)
    K = killing_gram(A)
    N = normalized_gram(A)
    h = dual_coxeter(A)
    assert K == _scale(N, QQ(2 * h))


def test_sp_any_small_case():
    A = sp_any(1)
    assert A.dim == 3
    for i in range(A.dim):
        for j in range(A.dim):
            A.structure(i, j)


def test_so_matrices_antisymmetric():
    A = make_algebra("so", 4)
    n = A.rep_dim
    for M in A.rep:
        M = _dense(M, n)
        for r in range(n):
            for c in range(n):
                assert M[r][c] == -M[c][r]


def test_sp_rank_must_be_even():
    with pytest.raises(ValueError):
        make_algebra("sp", 3)


def test_supertrace_form_vanishes_on_identity_of_gl11():
    A = make_algebra("glsuper", 1, 1)
    T = trace_gram(A)
    i1 = A.label_index["e[1,1]"]
    i2 = A.label_index["e[2,2]"]
    # str(id id) = r - s = 0 for gl(1|1): the identity is isotropic
    assert T[i1][i1] + T[i1][i2] + T[i2][i1] + T[i2][i2] == 0


def _form_algebra(kind, m):
    """The algebra of a form-test case and the form F its basis matrices
    preserve, M^T F + F M = 0: the identity for so(n), n = m + 2; the
    block forms [[0, I], [-I, 0]] for sp(2m) and [[0, I], [I, 0]] for
    so_split(2m); [[0, I, 0], [I, 0, 0], [0, 0, 1]] for so_split(2m+1)."""
    if kind == "so":
        n = m + 2
        return make_algebra("so", n), [[int(r == c) for c in range(n)]
                                       for r in range(n)]
    if kind == "so_split_odd":
        n = 2 * m + 1
        return make_algebra("so_split", n), [
            [int(abs(r - c) == m and min(r, c) < m or r == c == n - 1)
             for c in range(n)] for r in range(n)]
    A = sp_any(m) if kind == "sp" else make_algebra("so_split", 2 * m)
    lower = -1 if kind == "sp" else 1
    return A, [[1 if c == r + m else lower if r == c + m else 0
                for c in range(2 * m)] for r in range(2 * m)]


@pytest.mark.parametrize("kind", ["so", "sp", "so_split", "so_split_odd"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_basis_matrices_preserve_their_form(kind, m):
    A, F = _form_algebra(kind, m)
    n = A.rep_dim
    assert len(F) == n
    for label, M in zip(A.labels, A.rep):
        assert all(0 <= r < n and 0 <= c < n and v for (r, c), v in M.items())
        D = _dense(M, n)
        Dt = [list(col) for col in zip(*D)]
        lhs = [[a + b for a, b in zip(u, v)]
               for u, v in zip(_mul(Dt, F), _mul(F, D))]
        assert lhs == [[0] * n for _ in range(n)], label


def test_sp_doubled_cells():
    # m[j,j] = e_{j,j+m} + e_{j,j+m} and d[j,j] = -e_{j+m,j} - e_{j+m,j}
    A = sp_any(1)
    assert A.rep[A.label_index["m[1,1]"]] == {(0, 1): 2}
    assert A.rep[A.label_index["d[1,1]"]] == {(1, 0): -2}
    B = make_algebra("sp", 4)
    assert B.rep[B.label_index["m[2,2]"]] == {(1, 3): 2}
    assert B.rep[B.label_index["d[1,2]"]] == {(2, 1): -1, (3, 0): -1}


@pytest.mark.parametrize("kind, params", [
    ("sl", (2,)), ("sl", (3,)), ("so", (3,)), ("so", (4,)), ("sp", (4,)),
])
def test_gram_inverse_matches_gauss_jordan(kind, params):
    G = normalized_gram(make_algebra(kind, *params))
    n = len(G)
    inv = [[row.get(c, 0) for c in range(n)] for row in gram_inverse(G)]
    assert inv == _reference_inverse(G)
    assert all(type(c) is QQ for row in gram_inverse(G) for c in row.values())


def test_gram_inverse_rejects_singular():
    singular = ((QQ(1), QQ(2)), (QQ(2), QQ(4)))
    with pytest.raises(ValueError):
        _reference_inverse(singular)
    with pytest.raises(ValueError):
        gram_inverse(singular)
    # the Killing form of gl(2) vanishes on the identity
    with pytest.raises(ValueError):
        gram_inverse(killing_gram(make_algebra("gl", 2)))


def _even_so_split_reference(m):
    """Labels and dense matrices of so_split(2m) as built before odd N was
    accepted: s[j,k] = e_{j,k+m} - e_{k,j+m} and d[j,k] = e_{j+m,k} -
    e_{k+m,j} for j < k, then h[j,k] = e_{j,k} - e_{m+k,m+j}."""
    n = 2 * m

    def unit(*entries):
        M = [[0] * n for _ in range(n)]
        for r, c, v in entries:
            M[r][c] += v
        return M

    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    out = [(f"s[{j + 1},{k + 1}]", unit((j, k + m, 1), (k, j + m, -1)))
           for j, k in pairs]
    out += [(f"d[{j + 1},{k + 1}]", unit((j + m, k, 1), (k + m, j, -1)))
            for j, k in pairs]
    out += [(f"h[{j + 1},{k + 1}]", unit((j, k, 1), (m + k, m + j, -1)))
            for j in range(m) for k in range(m)]
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_even_so_split_basis_is_unchanged(m):
    A = make_algebra("so_split", 2 * m)
    assert [(lab, _dense(M, A.rep_dim)) for lab, M in zip(A.labels, A.rep)] \
        == _even_so_split_reference(m)
    assert A.params == (2 * m,) and A.rep_dim == 2 * m


@pytest.mark.parametrize("N", [3, 5, 7])
def test_odd_so_split(N):
    # its form is checked by test_basis_matrices_preserve_their_form
    A = make_algebra("so_split", N)
    l = (N - 1) // 2
    assert A.dim == N * (N - 1) // 2
    assert A.rep_dim == N and A.params == (N,)
    # every bracket lies in the span of the basis
    for i in range(A.dim):
        for j in range(A.dim):
            br = A.structure(i, j)
            assert all(0 <= k < A.dim and c for k, c in br.items())
    # the torus diag(h, -h, 0): the l diagonal h[j,j]
    diag, weights = torus_weights(
        range(A.dim), range(N),
        lambda i, a: {r: v for (r, c), v in A.rep[i].items() if c == a})
    assert [A.labels[i] for i in diag] == [f"h[{j},{j}]" for j in range(1, l + 1)]
    assert weights[N - 1] == (0,) * l
    for j in range(l):
        assert weights[j] == tuple(int(k == j) for k in range(l))
        assert weights[j + l] == tuple(-int(k == j) for k in range(l))
    assert dual_coxeter(A) == N - 2


def test_so_split_needs_dimension_two():
    with pytest.raises(ValueError):
        make_algebra("so_split", 1)


@pytest.mark.parametrize("kind", [
    ("sl", 2), ("sl", 3), ("sl", 4), ("so", 3), ("so", 4), ("so", 5),
    ("so_split", 3), ("so_split", 4), ("so_split", 5), ("sp", 4), ("sp", 6),
    ("gl", 2), ("gl", 3), ("gl", 4), ("glsuper", 2, 1)],
    ids=lambda kind: "-".join(map(str, kind)))
def test_current_generators_match_the_greedy_reference(kind):
    # degree by degree on integer structure constants, the pairs the
    # greedy over one span of every coordinate (index, r) keeps
    for weight in range(7):
        assert current_generators(make_algebra(*kind), weight) == (
            greedy_current_generators(make_algebra(*kind), weight)), weight

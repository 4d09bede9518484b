import pytest

from freefield.liealg import (
    dual_coxeter, killing_gram, make_algebra, mat_mul, mat_scale, mat_trace,
    normalized_gram, sp_any, trace_gram,
)
from freefield.rationals import QQ


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
    x, y, z = A.rep[0], A.rep[3], A.rep[5]

    def br(u, v):
        return [[u_row[c] - v_row[c] for c in range(len(u))]
                for u_row, v_row in zip(mat_mul(u, v), mat_mul(v, u))]

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
    assert K == mat_scale(T, QQ(4))


def _dense_killing(A):
    # tr(ad_i ad_j) from dense ad matrices: ad_i[a][b] is the x_a
    # coefficient of [x_i, x_b]
    ads = [tuple(tuple(A.structure(i, b).get(a, QQ(0)) for b in range(A.dim))
                 for a in range(A.dim)) for i in range(A.dim)]
    return tuple(tuple(mat_trace(mat_mul(ads[i], ads[j]))
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
    assert K == mat_scale(N, QQ(2 * h))


def test_sp_any_small_case():
    A = sp_any(1)
    assert A.dim == 3
    for i in range(A.dim):
        for j in range(A.dim):
            A.structure(i, j)


def test_so_matrices_antisymmetric():
    A = make_algebra("so", 4)
    for M in A.rep:
        n = len(M)
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
    # str(id) = r - s = 0 for gl(1|1): the even diagonal pairing is singular
    assert T[i1][i1] + T[i1][i2] + T[i2][i1] + T[i2][i2] == 0

import itertools
import random

import pytest
from reference_elimination import GaussJordan, lin, reference_nullspace

from freefield.diffalg import jet_var
from freefield.linalg import (Echelon, axpy, block_nullspaces, koszul_insert,
                              koszul_sort, nullspace, perm_sign, pivot_columns,
                              solve_affine)
from freefield.rationals import QQ, ZERO


def test_echelon_detects_dependence():
    ech = Echelon(track=True)
    assert ech.add({"a": QQ(1), "b": QQ(2)}, tag=0)
    assert ech.add({"b": QQ(1)}, tag=1)
    assert not ech.add({"a": QQ(2), "b": QQ(1)}, tag=2)
    assert ech.rank == 2


def test_echelon_express_recovers_combination():
    ech = Echelon(track=True)
    ech.add({"a": QQ(1), "b": QQ(1)}, tag="u")
    ech.add({"b": QQ(1), "c": QQ(1)}, tag="v")
    combo = ech.express({"a": QQ(2), "b": QQ(5), "c": QQ(3)})
    assert combo == {"u": QQ(2), "v": QQ(3)}
    assert ech.express({"c": QQ(1), "d": QQ(1)}) is None


def _check_pivots(rows, pivoted):
    """pivoted, a set of columns from `pivot_columns`, against the
    reference: as many columns as the rank of the rows, and the rows
    restricted to them of full column rank, so that they can be the
    pivots of an elimination of the rows."""
    full, restricted = GaussJordan(), GaussJordan()
    for row in rows:
        full.add(row)
        restricted.add({k: c for k, c in row.items() if k in pivoted})
    assert len(pivoted) == len(full.rows) == len(restricted.rows)


def _check_free_columns(rows, cols, free):
    """free, from `nullspace`, against the reference: a sublist of cols in
    column order with as many columns as the reference's canonical free
    columns, and the other columns valid pivots (`_check_pivots`), so that
    the kernel projects isomorphically onto the free columns.  Which
    columns are free depends on the pivot order."""
    assert free == [c for c in cols if c in free]
    assert len(free) == len(reference_nullspace(rows, cols))
    _check_pivots(rows, {c for c in cols if c not in free})


def test_nullspace_small_system():
    # x + y = 0, y + z = 0  ->  one-dimensional kernel (1, -1, 1): one
    # free column, and the canonical one is z
    eqs = [{"x": QQ(1), "y": QQ(1)}, {"y": QQ(1), "z": QQ(1)}]
    free = nullspace(eqs, ["x", "y", "z"])
    assert len(free) == 1
    _check_free_columns(eqs, ["x", "y", "z"], free)
    assert reference_nullspace(eqs, ["x", "y", "z"]) == {
        "z": {"z": 1, "x": 1, "y": -1}}
    # 2x + 2y = 0 repeats x + y = 0, and z is in no equation: z is free,
    # and so is one of x and y
    eqs = [{"x": QQ(1), "y": QQ(1)}, {"x": QQ(2), "y": QQ(2)}]
    free = nullspace(eqs, ["x", "y", "z"])
    assert len(free) == 2 and "z" in free
    _check_free_columns(eqs, ["x", "y", "z"], free)


def test_solve_affine_feasible_and_not():
    eqs = [{"x": QQ(1), "y": QQ(1)}, {"x": QQ(1), "y": QQ(-1)}]
    sol, rank = solve_affine(eqs, [QQ(2), QQ(0)], ["x", "y"])
    assert rank == 2
    assert sol["x"] == 1 and sol["y"] == 1
    # x + y = 0 and x + y = 1 cannot both hold
    eqs = [{"x": QQ(1), "y": QQ(1)}, {"x": QQ(1), "y": QQ(1)}]
    sol, rank = solve_affine(eqs, [QQ(0), QQ(1)], ["x", "y"])
    assert sol is None and rank == 1


def _normalised_rows(ech):
    """The rows of an Echelon divided by their pivot entries and sorted by
    pivot: the canonical reduced basis of its span."""
    return [{k: QQ(c, ech.rows[p][p]) for k, c in ech.rows[p].items()}
            for p in sorted(ech.rows)]


def _residual(reduced_rows, vec):
    """vec reduced modulo the span of the canonical rows of an Echelon:
    each row is 1 on its pivot, the least column of its support, and 0 on
    the other pivots, so one pass clears every pivot column."""
    for row in reduced_rows:
        p = min(row)
        if vec.get(p):
            vec = lin(vec, row, -vec[p])
    return vec


def _reference_solve_affine(rows, rhs, cols):
    """Reference: the right-hand side as an appended column under a
    reserved key that ranks after every real column, eliminated row by
    row; the solution is read off the reduced rows with free variables 0."""
    RHS = ("_rhs",)
    ref = GaussJordan(lambda c: len(cols) if c == RHS else cols.index(c))
    for row, b in zip(rows, rhs):
        ref.add({**row, RHS: -b} if b else row)
    rank = len([p for p in ref.rows if p != RHS])
    if RHS in ref.rows:
        return None, rank
    return {p: -r[RHS] for p, r in ref.rows.items() if RHS in r}, rank


def _random_system(rng, n_rows, n_cols):
    """Sparse rational rows, some with denominators 2 and 3; about a third
    are combinations of earlier rows."""
    coeffs = [QQ(c) for c in (-3, -2, -1, 1, 2, 5)] + [
        QQ(1, 2), QQ(-3, 2), QQ(2, 3), QQ(-1, 3)]
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.35:
            row: dict = {}
            for other in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                row = lin(row, other, rng.choice([-2, -1, 1, 3, QQ(1, 2)]))
        else:
            cols = rng.sample(range(n_cols), rng.randint(1, 4))
            row = {k: rng.choice(coeffs) for k in cols}
        rows.append(row)
    return rows


def _rhs_choices(rows):
    return ([QQ(i % 3) for i in range(len(rows))],
            [QQ(i % 3, 2) - QQ(1, 3) for i in range(len(rows))],
            [v.get(0, ZERO) for v in rows])


def _numbers(obj):
    """Every number in nested lists, tuples and dict values."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _numbers(item)]
    return [] if obj is None or isinstance(obj, bool) else [obj]


@pytest.mark.parametrize("track", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_echelon_matches_reference_reduction(seed, track):
    rng = random.Random(seed)
    n_cols = rng.randint(4, 12)
    cols = list(range(n_cols))
    rows = _random_system(rng, rng.randint(3, 18), n_cols)
    # probes inside the span and, mostly, outside it
    probes = _random_system(rng, 6, n_cols) + [
        {k: QQ(2, 3) * c for k, c in row.items()} for row in rows[:2]]
    ech = Echelon(track=track)
    ref = GaussJordan()
    got = {
        "gained": [ech.add(row, tag=i) for i, row in enumerate(rows)],
        "reduced_rows": _normalised_rows(ech),
        "solve_affine": [solve_affine(rows, rhs, cols)
                         for rhs in _rhs_choices(rows)],
    }
    _check_free_columns(rows, cols, nullspace(rows, cols))
    got["residual"] = [_residual(got["reduced_rows"], v) for v in probes]
    expected = {
        "gained": [ref.add(row, tag=i) for i, row in enumerate(rows)],
        "residual": [ref.reduce(v, {})[0] for v in probes],
        "reduced_rows": [ref.rows[p] for p in sorted(ref.rows)],
        "solve_affine": [_reference_solve_affine(rows, rhs, cols)
                         for rhs in _rhs_choices(rows)],
    }
    if track:
        got["express"] = [ech.express(v) for v in probes]
        expected["express"] = [ref.express(v) for v in probes]
        assert any(combo is not None for combo in got["express"])
        for v, combo in zip(probes, got["express"]):
            if combo is not None:
                total: dict = {}
                for tag, c in combo.items():
                    total = lin(total, rows[tag], c)
                assert total == v
    assert got == expected
    # exact values leave the module as QQ, never as int or float
    outputs = [got["residual"], got["reduced_rows"],
               [sol for sol, _ in got["solve_affine"]], got.get("express")]
    assert {type(x) for x in _numbers(outputs)} <= {QQ}


def _relabelled(rng, kind, n_cols):
    """n_cols distinct column keys of the kind, in random order, so that
    their key order is not the order of the int columns they replace:
    ints, pairs of ints, or monomials (sorted tuples of jet variables) of
    lengths 0 to 3, whose order compares variables and lengths."""
    if kind == "int":
        keys = range(20)
    elif kind == "tuple":
        keys = [(a, b) for a in range(-2, 3) for b in range(4)]
    else:
        variables = [jet_var("x", c, i, k)
                     for c in (1, 2) for i in (1, 2) for k in (0, 1)]
        keys = [mono for d in range(4) for mono in
                itertools.combinations_with_replacement(variables, d)]
    return rng.sample(list(keys), n_cols)


@pytest.mark.parametrize("kind", ["int", "tuple", "monomial"])
@pytest.mark.parametrize("seed", range(8))
def test_pivots_match_echelon_and_reference(seed, kind):
    # rational rows, a third of them combinations of earlier ones, with
    # repeated rows and zero vectors, on relabelled columns: pivot_columns
    # finds as many pivots as Echelon's reduced form and the rational
    # reference, valid ones, with the rows given in either order
    rng = random.Random(f"{seed}{kind}")
    for _ in range(10):
        n_cols = rng.randint(4, 14)
        keys = _relabelled(rng, kind, n_cols)
        rows = _random_system(rng, rng.randint(1, 18), n_cols)
        rows += [dict(rng.choice(rows)) for _ in range(2)] + [{}, {}]
        rng.shuffle(rows)
        rows = [{keys[k]: c for k, c in row.items()} for row in rows]
        ech, ref = Echelon(), GaussJordan()
        for row in rows:
            ech.add(row)
            ref.add(row)
        assert ech.rank == len(ref.rows)
        for order in (rows, rows[::-1]):
            _check_pivots(rows, pivot_columns(order))


def _low_rank_system(rng, n_rows, n_cols, rank, kind, density):
    """n_rows rows of rank at most rank: combinations of rank random base
    rows with entries in -3..3 on about density of the columns, integer
    or, for kind "QQ", rational with denominators up to 3; then a
    repeated row, a scaled one and a zero row, shuffled in."""
    def number():
        x = rng.randint(-3, 3)
        return x if kind == "int" else QQ(x, rng.randint(1, 3))

    base = [{k: number() for k in range(n_cols) if rng.random() < density}
            for _ in range(rank)]
    rows = []
    for _ in range(n_rows):
        row: dict = {}
        for b in base:
            axpy(row, b, number())
        rows.append(row)
    if rows:
        rows += [dict(rng.choice(rows)),
                 {k: 5 * c for k, c in rng.choice(rows).items()}, {}]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("kind", ["int", "QQ"])
@pytest.mark.parametrize("seed", range(6))
def test_pivot_columns_rank_oracle(seed, kind):
    # rank-deficient sparse systems, empty ones and dense fill-heavy ones
    # (every row a combination of the same dense base rows): as many
    # pivots as the reference's rank, and valid ones; nullspace frees the
    # other columns
    rng = random.Random(f"{seed}{kind}")
    assert pivot_columns([]) == pivot_columns([{}, {}]) == set()
    for density in (0.2, 0.4, 1.0):
        for _ in range(6):
            n_cols = rng.randint(1, 14)
            rows = _low_rank_system(rng, rng.randint(0, 16), n_cols,
                                    rng.randint(0, min(n_cols, 8)), kind,
                                    density)
            assert {type(c) for row in rows for c in row.values()} <= (
                {int} if kind == "int" else {int, QQ})
            _check_pivots(rows, pivot_columns(rows))
            _check_free_columns(rows, list(range(n_cols)),
                                nullspace(rows, range(n_cols)))


@pytest.mark.parametrize("seed", range(8))
def test_solve_affine_matches_rhs_column_reference(seed):
    # consistent (rhs = A x), mostly inconsistent (random) and zero
    # right-hand sides; some columns appear in no equation
    rng = random.Random(seed)
    for _ in range(40):
        n_cols = rng.randint(4, 10)
        cols = [("x", k) for k in range(n_cols + rng.randint(0, 2))]
        rows = [{("x", k): c for k, c in row.items()}
                for row in _random_system(rng, rng.randint(1, 12), n_cols)]
        x = {c: QQ(rng.randint(-3, 3), rng.choice([1, 2, 3])) for c in cols}
        consistent = [sum((c * x[k] for k, c in row.items()), ZERO)
                      for row in rows]
        noisy = [QQ(rng.randint(-2, 2)) for _ in rows]
        for rhs in (consistent, noisy, [ZERO] * len(rows)):
            got = solve_affine(rows, rhs, cols)
            assert got == _reference_solve_affine(rows, rhs, cols)
            sol, _ = got
            if rhs is not noisy:
                assert sol is not None
            if sol is not None:
                assert all(type(c) is QQ and c for c in sol.values())
                assert [sum((c * sol.get(k, ZERO) for k, c in row.items()),
                            ZERO) for row in rows] == rhs


@pytest.mark.parametrize("seed", range(8))
def test_row_order_does_not_change_the_output(seed):
    # the reduced row echelon form of a row space is unique, so an affine
    # solution is the same for the original, a shuffled and a
    # shortest-rows-first order of the same rows; the free columns may
    # differ with the pivots chosen, but their number may not
    rng = random.Random(seed)
    for _ in range(5):
        n_cols = rng.randint(4, 12)
        cols = list(range(n_cols))
        rows = _random_system(rng, rng.randint(3, 18), n_cols)
        shuffled = list(range(len(rows)))
        rng.shuffle(shuffled)
        orders = [range(len(rows)), shuffled,
                  sorted(range(len(rows)), key=lambda i: len(rows[i]))]
        for order in orders:
            _check_free_columns(rows, cols,
                                nullspace([rows[i] for i in order], cols))
        for rhs in _rhs_choices(rows):
            got = [solve_affine([rows[i] for i in order],
                                [rhs[i] for i in order], cols)
                   for order in orders]
            assert got[1:] == got[:1] * 2


def _block_system(rng, n_blocks):
    """A random block-diagonal integer system: columns (block, j) listed
    in a shuffled column order, and per block some sparse integer rows
    over its columns, a few of them sums of earlier rows."""
    columns = [(b, j) for b in range(n_blocks)
               for j in range(rng.randint(1, 6))]
    rng.shuffle(columns)
    rows = {}
    for b in range(n_blocks):
        cols = [c for c in columns if c[0] == b]
        rows[b] = []
        for _ in range(rng.randint(0, len(cols) + 1)):
            if rows[b] and rng.random() < 0.3:
                row = dict(rng.choice(rows[b]))
                axpy(row, rng.choice(rows[b]), rng.choice([-2, 1, 3]))
            else:
                row = {c: rng.choice([-3, -2, -1, 1, 2, 5])
                       for c in rng.sample(cols, rng.randint(1, len(cols)))}
            rows[b].append(row)
    return columns, rows


@pytest.mark.parametrize("seed", range(8))
def test_orbit_nullspaces_matches_reference_per_representative(seed):
    # block_nullspaces, the solver behind both invariant sides, which
    # hand over the columns of one representative block per orbit: each
    # block is solved once, on its columns in column order, and its
    # kernel dimension returned
    rng = random.Random(seed)
    n_blocks = rng.randint(1, 7)
    columns, rows = _block_system(rng, n_blocks)
    asked = []

    def equations(cols):
        # rows on the indices of the block's columns
        asked.append(cols)
        index = {c: i for i, c in enumerate(cols)}
        return [{index[c]: v for c, v in row.items()}
                for row in rows[cols[0][0]]]

    got = block_nullspaces(columns, lambda c: c[0], equations)
    # the blocks come in key order, each solved once on its columns in
    # column order, and its dimension is the reference's number of free
    # columns
    assert [b for b, _ in got] == list(range(n_blocks))
    assert asked == [[c for c in columns if c[0] == b]
                     for b in range(n_blocks)]
    for (b, dim), cols in zip(got, asked):
        assert dim == len(reference_nullspace(rows[b], cols)), b
    assert block_nullspaces([], lambda c: c[0], equations) == []


def _cycle_parity_sign(perm):
    """Reference sign: (-1)^(length - number of cycles)."""
    seen = set()
    cycles = 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def test_perm_sign_matches_cycle_parity():
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            assert perm_sign(perm) == _cycle_parity_sign(perm), perm
            # any distinct comparable items: the sign of their sorting order
            assert perm_sign([p + 1 for p in perm]) == perm_sign(perm)


def _int_parity(x):
    return x & 1


def _brute_koszul(items):
    """(sorted tuple, sign) with the sign (-1)^(inverted pairs of odd
    items) counted pair by pair, or (None, 0) when an odd item repeats."""
    odd = [x for x in items if _int_parity(x)]
    if len(set(odd)) < len(odd):
        return None, 0
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return tuple(sorted(items)), (-1) ** inversions


def test_koszul_sort_matches_inversion_count():
    # ints with their low bit as parity: repeats of both parities, odd
    # items crossing in every order
    rng = random.Random(2012)
    outcomes = {-1: 0, 0: 0, 1: 0}
    for _ in range(400):
        items = [rng.randrange(8) for _ in range(rng.randint(0, 7))]
        got = koszul_sort(items, _int_parity)
        assert got == _brute_koszul(items), items
        outcomes[got[1]] += 1
        # a sorted tail without repeated odd items, sorted into from the
        # left, and one item moved into it from any place
        tail = tuple(sorted(rng.sample(range(8), rng.randint(0, 4))
                            + [2 * rng.randrange(4)]))
        assert koszul_sort(items, _int_parity, tail) == _brute_koszul(
            items + list(tail)), (items, tail)
        item, start = rng.randrange(8), rng.randint(0, len(tail))
        assert koszul_insert(tail, item, _int_parity, start) == _brute_koszul(
            list(tail[:start]) + [item] + list(tail[start:])), (tail, item, start)
    assert min(outcomes.values()) > 40, outcomes


def test_axpy_drops_cancelled_keys_and_leaves_v():
    u = {"a": QQ(1), "b": QQ(2), "c": QQ(3)}
    v = {"a": QQ(1, 2), "b": QQ(1), "d": QQ(-1)}
    v_before = dict(v)
    axpy(u, v, -2)
    assert u == {"c": QQ(3), "d": QQ(2)}
    assert v == v_before
    axpy(u, {"c": QQ(-3), "e": QQ(1)})
    assert u == {"d": QQ(2), "e": QQ(1)}
    axpy(u, {"f": QQ(5)}, 0)
    assert u == {"d": QQ(2), "e": QQ(1)}

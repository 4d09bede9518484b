import itertools
import os
import random
import subprocess
import sys

import pytest

from freefield import linalg
from freefield.linalg import (Echelon, axpy, nullspace, perm_sign, rank_of,
                              solve_affine)
from freefield.rationals import QQ, ZERO


def test_echelon_detects_dependence():
    ech = Echelon(track=True)
    assert ech.add({"a": QQ(1), "b": QQ(2)}, tag=0)
    assert ech.add({"b": QQ(1)}, tag=1)
    assert not ech.add({"a": QQ(2), "b": QQ(1)}, tag=2)


def test_echelon_express_recovers_combination():
    ech = Echelon(track=True)
    ech.add({"a": QQ(1), "b": QQ(1)}, tag="u")
    ech.add({"b": QQ(1), "c": QQ(1)}, tag="v")
    combo = ech.express({"a": QQ(2), "b": QQ(5), "c": QQ(3)})
    assert combo == {"u": QQ(2), "v": QQ(3)}
    assert ech.express({"c": QQ(1), "d": QQ(1)}) is None


def test_rank_of():
    rows = [{0: QQ(1), 1: QQ(1)}, {1: QQ(1)}, {0: QQ(1), 1: QQ(2)}]
    assert rank_of(rows) == 2


def test_nullspace_small_system():
    # x + y = 0, y + z = 0  ->  one-dimensional kernel (1, -1, 1)
    eqs = [{"x": QQ(1), "y": QQ(1)}, {"y": QQ(1), "z": QQ(1)}]
    basis = nullspace(eqs, ["x", "y", "z"])
    assert len(basis) == 1
    v = basis[0]
    assert v["x"] + v["y"] == 0 and v["y"] + v["z"] == 0


def test_solve_affine_feasible_and_not():
    eqs = [{"x": QQ(1), "y": QQ(1)}, {"x": QQ(1), "y": QQ(-1)}]
    sol, rank = solve_affine(eqs, [QQ(2), QQ(0)], ["x", "y"])
    assert rank == 2
    assert sol["x"] == 1 and sol["y"] == 1
    # x + y = 0 and x + y = 1 cannot both hold
    eqs = [{"x": QQ(1), "y": QQ(1)}, {"x": QQ(1), "y": QQ(1)}]
    sol, rank = solve_affine(eqs, [QQ(0), QQ(1)], ["x", "y"])
    assert sol is None and rank == 1


def _reduce_every_pivot(self, vec, combo):
    """Reference reduction: walk every stored pivot, copying on each step."""
    def add(u, v, scale):
        out = dict(u)
        for k, c in v.items():
            s = out.get(k, ZERO) + scale * c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    vec, combo = dict(vec), dict(combo)
    for p in self.pivots:
        c = vec.get(p)
        if c:
            vec = add(vec, self.rows[p], -c)
            if self._track:
                combo = add(combo, self.combos[p], -c)
    return vec, combo


def _random_system(rng, n_rows, n_cols):
    """Sparse integer rows; about a third are combinations of earlier rows."""
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.35:
            row: dict = {}
            for other in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                scale = rng.choice([-2, -1, 1, 3])
                for k, c in other.items():
                    row[k] = row.get(k, ZERO) + scale * c
            row = {k: c for k, c in row.items() if c}
        else:
            cols = rng.sample(range(n_cols), rng.randint(1, 4))
            row = {k: QQ(rng.choice([-3, -2, -1, 1, 2, 5])) for k in cols}
        rows.append(row)
    return rows


def _echelon_outputs(rows, probes, n_cols, track):
    ech = Echelon(track=track)
    gained = [ech.add(row, tag=i) for i, row in enumerate(rows)]
    out = {
        "gained": gained,
        "residual": [ech.residual(v) for v in probes],
        "reduced_rows": ech.reduced_rows(),
        "nullspace": nullspace(rows, list(range(n_cols))),
        "solve_affine": [
            solve_affine(rows, rhs, list(range(n_cols)))
            for rhs in ([QQ(i % 3) for i in range(len(rows))],
                        [v.get(0, ZERO) for v in rows])
        ],
    }
    if track:
        out["express"] = [ech.express(v) for v in probes]
        for v, combo in zip(probes, out["express"]):
            if combo is not None:
                total: dict = {}
                for tag, c in combo.items():
                    for k, x in rows[tag].items():
                        total[k] = total.get(k, ZERO) + c * x
                assert {k: x for k, x in total.items() if x} == v
    return out


@pytest.mark.parametrize("track", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_echelon_matches_reference_reduction(monkeypatch, seed, track):
    rng = random.Random(seed)
    n_cols = rng.randint(4, 12)
    rows = _random_system(rng, rng.randint(3, 18), n_cols)
    # probes inside the span and, mostly, outside it
    probes = _random_system(rng, 6, n_cols) + [
        {k: 2 * c for k, c in row.items()} for row in rows[:2]]
    got = _echelon_outputs(rows, probes, n_cols, track)
    monkeypatch.setattr(linalg.Echelon, "_reduce", _reduce_every_pivot)
    assert got == _echelon_outputs(rows, probes, n_cols, track)


def test_solve_affine_rejects_rhs_key_under_optimize():
    # the guard must be an exception, not an assert that -O strips
    code = (
        "from freefield.linalg import solve_affine\n"
        "from freefield.rationals import QQ\n"
        "try:\n"
        "    solve_affine([{('_rhs',): QQ(1)}], [QQ(1)], [('_rhs',)])\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


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

"""Bundled scenarios at raised bounds or many samples, by case group.

From the repo root:

    PYTHONPATH=src python .github/long_runs.py dims
    PYTHONPATH=src python .github/long_runs.py state_dims
    FREEFIELD_CACHE_CAP=0 PYTHONPATH=src python -O .github/long_runs.py state_dims
    FREEFIELD_CACHE_CAP=0 PYTHONPATH=src python -O .github/long_runs.py engine
    FREEFIELD_CACHE_CAP=0 PYTHONPATH=src python -O .github/long_runs.py equivariance

Each case of the group runs one bundled scenario in-process, keeping the
tasks of the group's mode (every task when the group has none), each
with the case's options.  Every task must pass, and the group's check
must hold on each: equal dimensions on both sides for `dims`, the
dimensions [1] + [0] * W over weights 0..W for `state_dims`, no failed
sample for `equivariance`.  The `engine` and `equivariance` groups first check that
asserts are off, so that their runs show the checks that still hold
under `python -O`.  Prints one line per case with its time, and exits
with a message at the first case that fails.
"""

import argparse
import json
import pathlib
import sys
import time

from freefield.harness import run_scenario

SCENARIOS = (pathlib.Path(__file__).resolve().parents[1]
             / "src" / "freefield" / "scenarios")
RAISED = {"cap": 10**6}


def _dims(detail):
    return (detail["equal"]
            and detail["invariant_dims"] == detail["generated_dims"],
            f"{len(detail['invariant_dims'])} bidegrees equal")


def _state_dims(detail):
    dims = detail["invariant_dims"]
    return dims == [1] + [0] * detail["weights"][-1], f"dims {dims}"


def _no_failures(detail):
    return detail["failures"] == 0, f"{detail['samples']} samples, no failure"


def _passes(detail):
    return True, "pass"


# group -> (task mode, or None for every task; check of a task's detail;
# whether asserts must be off; cases (scenario, task options))
GROUPS = {
    # both sides ranked by linalg.pivot_columns, the invariant side's g t^0
    # rows cut to simple root vectors; W4 D8 has fill-heavy blocks of up
    # to 3,272 rows x 2,410 columns; thm_4_1_n3_m2 has a rank-2 torus, and
    # thm_7_3_m2 mixed jets, whose odd factors go through linalg.derive
    "dims": ("dims", _dims, False, [
        ("thm_3_3_so3", dict(RAISED, max_weight=5, max_degree=6)),
        ("thm_3_3_sl2_m4", dict(RAISED, max_weight=5, max_degree=6)),
        ("thm_3_3_so3", dict(RAISED, max_weight=4, max_degree=8)),
        ("thm_4_1_n3_m2", dict(RAISED, max_weight=5, max_degree=6)),
        ("thm_7_3_m2", dict(RAISED, max_weight=6, max_degree=6))]),
    # state-side rows handed to nullspace as int dicts, written for the
    # generating set of g[t] cut to simple root vectors, each image read
    # off the derivation and pair-contraction tables of fock.current_mode
    "state_dims": ("state_dims", _state_dims, False, [
        ("thm_4_3_n3_m1", dict(RAISED, max_weight=5, max_degree=6)),
        ("thm_4_3_n3_m1", dict(RAISED, max_weight=7, max_degree=8)),
        ("thm_4_3_n3_m1", dict(RAISED, max_weight=8, max_degree=10)),
        ("thm_4_3_n2_m1", dict(RAISED, max_weight=8, max_degree=8))]),
    # State arithmetic on integer forms, one-mode products in closed form
    "engine": (None, _passes, True, [
        ("engine_properties", {"samples": 2000}),
        ("zhu_n2_m2", {"samples": 500})]),
    # each distinct sampled monomial checked once, on integers, against
    # int-coded jet tables
    "equivariance": ("equivariance", _no_failures, True, [
        ("thm_3_3_so3", {"samples": 2000}),
        ("thm_3_3_sl2_m4", {"samples": 2000})]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("group", choices=sorted(GROUPS))
    group = parser.parse_args(argv).group
    mode, check, optimized, cases = GROUPS[group]
    if optimized:
        try:
            assert False
        except AssertionError:
            sys.exit(f"asserts are on: group {group} must run under python -O")
    for name, opts in cases:
        raw = json.loads((SCENARIOS / f"{name}.json").read_text("utf-8"))
        raw["tasks"] = [dict(t, **opts) for t in raw["tasks"]
                        if mode is None or t.get("mode") == mode]
        if not raw["tasks"]:
            sys.exit(f"{name} has no {mode} task")
        start = time.perf_counter()
        tasks = run_scenario(raw)["tasks"]
        seconds = time.perf_counter() - start
        for task in tasks:
            ok, summary = (check(task["detail"]) if task["status"] == "pass"
                           else (False, None))
            if not ok:
                sys.exit(f"{name} {opts}: {task}")
            print(f"{name} {task['task']} {opts}: {summary} "
                  f"in {seconds:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

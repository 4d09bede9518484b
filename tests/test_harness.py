import json
import os
import re
import subprocess
import sys

import pytest

from freefield import cli
from freefield.harness import (
    DEFAULT_BOUNDS, TASK_FUNCTIONS, ScenarioError, build_family,
    expand_candidates, report_to_json, resolve_scenario, run_scenario,
)


def tiny_affine(**overrides):
    raw = {
        "system": {"bosonic": [1, 1]},
        "group": {"kind": "gl", "rank": 1, "side": "right"},
        "tasks": [{"task": "verify_affine", "form": "trace",
                   "expect_level": "-1"}],
    }
    raw.update(overrides)
    return raw


def test_resolve_fills_defaults():
    res = resolve_scenario(tiny_affine())
    assert res["bounds"] == DEFAULT_BOUNDS
    assert res["system"]["fermionic"] is None
    assert res["group"]["family"] == "theta"


# copy-index options that are no list of n distinct ints in 1..m, for
# (n, m) = system.bosonic, and one on a system without a bosonic sector
BAD_INDEX_OPTIONS = [
    (tiny_affine(system={"bosonic": [2, 2]}, tasks=[
        {"task": task, key: value}]),
     f"{task} option {key!r} must be a list of 2 distinct integers in 1..2")
    for task, key in (("zhu_check", "indices"),
                      ("counterexample_sec4", "indices"),
                      ("counterexample_sec4", "indices_primed"))
    for value in ([1, 5], [0, 1], [], "x", [1, True], [1, 1], [1, 2, 1],
                  [1], [1.0, 2], {"1": 2})] + [
    (tiny_affine(system={"fermionic": [1, 1]}, tasks=[
        {"task": "zhu_check", "indices": [1]}]),
     "zhu_check option 'indices' needs a bosonic sector")]


def test_resolve_rejects_bad_configs():
    with pytest.raises(ScenarioError):
        resolve_scenario([])
    with pytest.raises(ScenarioError):
        resolve_scenario({"system": {}, "tasks": ["property_suite"]})
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(system={"bosonic": [0, 1]}))
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(tasks=[]))
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(tasks=["frobnicate"]))
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(bounds={"max_depth": 3}))
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(bounds={"samples": 0}))
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(group={"kind": "sl"}))
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(group={"kind": "sl", "rank": 2,
                                            "side": "up"}))
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(
            tasks=[{"task": "verify_affine",
                    "family": {"kind": "sl", "rank": 2, "family": "wrong"}}]))
    # a current family that is a list or an object is unknown, in the
    # group and in a task
    for fam in ([1, 2], {"a": 1}):
        for raw in (tiny_affine(group={"kind": "sl", "rank": 2,
                                       "family": fam}),
                    tiny_affine(tasks=[{"task": "verify_affine", "family": {
                        "kind": "sl", "rank": 2, "family": fam}}])):
            with pytest.raises(ScenarioError,
                               match="unknown current family"):
                resolve_scenario(raw)
    # counterexample_so4's modes: a non-empty list of non-negative ints
    for modes in ([-3], [], "x", [0, True]):
        with pytest.raises(ScenarioError, match="option 'modes' must be"):
            resolve_scenario(tiny_affine(tasks=[
                {"task": "counterexample_so4", "modes": modes}]))
    # copy indices: a list of n distinct ints in 1..m for the bosonic
    # shape (n, m); [1, 5] and [0, 1] ended as KeyError task errors after
    # compute, "x" as a ValueError one, and counterexample_sec4 took []
    # for the default
    for raw, message in BAD_INDEX_OPTIONS:
        with pytest.raises(ScenarioError, match=re.escape(message)):
            resolve_scenario(raw)
    for task in ({"task": "zhu_check", "indices": [2, 1]},
                 {"task": "counterexample_sec4", "indices": [2, 1],
                  "indices_primed": [1, 2]}):
        resolve_scenario(tiny_affine(system={"bosonic": [2, 3]},
                                     tasks=[task]))
    # JSON true and false are not integers
    for raw in (tiny_affine(system={"bosonic": [True, 2]}),
                tiny_affine(group={"kind": "gl", "rank": True}),
                tiny_affine(group={"kind": "glsuper", "rank": [1, False]}),
                tiny_affine(bounds={"max_weight": True}),
                tiny_affine(bounds={"seed": False})):
        with pytest.raises(ScenarioError):
            resolve_scenario(raw)
    # a system that is no object, a task name that is no string, and an
    # output path that is no string
    for raw, message in (
            (tiny_affine(system=[2, 1]), "system must be an object"),
            (tiny_affine(tasks=[{"task": ["a"]}]), r"unknown task \['a'\]"),
            (tiny_affine(output={"a": 1}), "output must be a string"),
            (tiny_affine(output=3), "output must be a string")):
        with pytest.raises(ScenarioError, match=message):
            resolve_scenario(raw)


def test_unknown_task_fails_before_compute():
    # resolution must reject the config even when an earlier task would run
    raw = tiny_affine(tasks=["property_suite", "frobnicate"])
    with pytest.raises(ScenarioError):
        run_scenario(raw)


def test_run_scenario_pass_and_report_shape():
    report = run_scenario(tiny_affine())
    assert report["all_pass"] is True
    (entry,) = report["tasks"]
    assert entry["task"] == "verify_affine" and entry["status"] == "pass"
    assert entry["detail"]["level"] == "-1"
    assert report["tool"]["name"] == "freefield"
    assert "seconds" not in entry


def test_run_scenario_timings_flag():
    report = run_scenario(tiny_affine(), timings=True)
    assert "seconds" in report["tasks"][0]


def test_reports_byte_identical():
    a = report_to_json(run_scenario(tiny_affine()))
    b = report_to_json(run_scenario(tiny_affine()))
    assert a == b
    assert a.endswith("\n")
    json.loads(a)


def test_failing_candidate_gives_witness():
    raw = {
        "system": {"bosonic": [2, 2]},
        "group": {"kind": "sl", "rank": 2, "side": "left"},
        "tasks": [{"task": "commutant_check", "candidates": [
            {"kind": "state", "text": "1 * g[b1,beta,1](-1)", "label": "bad"},
            {"kind": "det", "side": "beta", "indices": [1, 2],
             "label": "good"},
        ]}],
    }
    report = run_scenario(raw)
    assert report["all_pass"] is False
    cands = report["tasks"][0]["detail"]["candidates"]
    by_label = {c["label"]: c for c in cands}
    assert by_label["good"]["ok"] is True
    bad = by_label["bad"]
    assert bad["ok"] is False
    assert set(bad["witness"]) == {"current", "n", "product"}


def test_task_error_does_not_stop_run():
    # normalized form of the abelian so_2 target is undefined: the first
    # task errors, the second still runs and passes
    raw = {
        "system": {"bosonic": [4, 1]},
        "group": {"kind": "sp", "rank": 4, "side": "left", "family": "quad"},
        "tasks": [
            {"task": "verify_affine", "form": "normalized"},
            {"task": "verify_affine", "form": "trace", "expect_level": "-2"},
        ],
    }
    report = run_scenario(raw)
    assert [t["status"] for t in report["tasks"]] == ["error", "pass"]
    assert report["all_pass"] is False
    assert "error" in report["tasks"][0]["detail"]


def test_expand_candidates_errors():
    from freefield.constructions import build_system
    sys = build_system(bosonic=(2, 2))
    with pytest.raises(ScenarioError):
        list(expand_candidates(sys, None))
    with pytest.raises(ScenarioError):
        list(expand_candidates(sys, [{"kind": "nonsense"}]))


def test_build_family_requires_group():
    from freefield.constructions import build_system
    sys = build_system(bosonic=(2, 2))
    with pytest.raises(ScenarioError):
        build_family(sys, None)


def test_family_alias_spellings():
    res = resolve_scenario(tiny_affine(
        group={"kind": "so", "rank": 3, "family": "quad_so"}))
    assert res["group"]["family"] == "quad"
    res = resolve_scenario(tiny_affine(
        group={"kind": "glsuper", "rank": [1, 1], "family": "mixed_glrs"}))
    assert res["group"]["family"] == "mixed_psi"
    with pytest.raises(ScenarioError):
        resolve_scenario(tiny_affine(
            group={"kind": "sl", "rank": 3, "family": "quad_so"}))


def test_charge_e_and_bc_det_candidates():
    raw = {
        "system": {"bosonic": [2, 2]},
        "group": {"kind": "sl", "rank": 2, "side": "left"},
        "tasks": [{"task": "commutant_check",
                   "candidates": [{"kind": "charge_e"}]}],
    }
    report = run_scenario(raw)
    assert report["all_pass"], report["tasks"]
    raw = {
        "system": {"fermionic": [2, 2]},
        "group": {"kind": "sl", "rank": 2, "side": "left"},
        "tasks": [{"task": "commutant_check",
                   "candidates": [{"kind": "bc_det", "which": "D"}]}],
    }
    report = run_scenario(raw)
    assert report["all_pass"], report["tasks"]
    assert len(report["tasks"][0]["detail"]["candidates"]) == 3


def test_dims_fail_on_a_generator_the_currents_do_not_kill():
    # x1^2 + x2^2 has the same dims as the so_split(2) invariants at every
    # bidegree, but h[1,1] = e11 - e22 does not kill it
    raw = {"system": {"bosonic": [2, 1]},
           "group": {"kind": "so_split", "rank": 2},
           "tasks": [{"task": "jet_compare", "generators": "quadrics",
                      "space": {"plain": {"copies": 1, "coords": 2}},
                      "max_weight": 3, "max_degree": 4}]}
    (task,) = run_scenario(raw)["tasks"]
    assert task["status"] == "fail"
    assert task["detail"] == {"generator_not_invariant": {
        "generator": "1 * x1[1]^(0) x1[1]^(0) + 1 * x2[1]^(0) x2[1]^(0)",
        "current": "h[1,1]", "r": 0}}


def test_cap_env_var(monkeypatch):
    raw = {
        "system": {"bosonic": [2, 1]},
        "group": {"kind": "gl", "rank": 2, "side": "left"},
        "tasks": [{"task": "jet_compare", "mode": "state_dims",
                   "max_weight": 2}],
    }
    monkeypatch.setenv("FREEFIELD_CAP", "2")
    report = run_scenario(raw)
    assert report["tasks"][0]["status"] == "error"
    monkeypatch.setenv("FREEFIELD_CAP", "not-a-number")
    with pytest.raises(ScenarioError):
        run_scenario(raw)
    monkeypatch.delenv("FREEFIELD_CAP")
    assert run_scenario(raw)["all_pass"]
    # an explicit task cap wins over the environment
    monkeypatch.setenv("FREEFIELD_CAP", "2")
    raw["tasks"][0]["cap"] = 100000
    assert run_scenario(raw)["all_pass"]


@pytest.mark.parametrize("cap, size", [(125, 126), (126, 336), (200, 336)])
def test_so_dims_cap_counts_the_full_component(cap, size):
    # so(3) dims are solved on the split torus, whose weight-0 monomials
    # are 26 of the 126 at weight 0, degree 4, and 72 of the 336 at
    # weight 1, degree 4; the cap still bounds the whole component
    from importlib.resources import files
    raw = json.loads((files("freefield") / "scenarios" /
                      "thm_3_3_so3.json").read_text(encoding="utf-8"))
    raw["tasks"] = [dict(raw["tasks"][0], cap=cap)]
    (task,) = run_scenario(raw)["tasks"]
    assert task["status"] == "error"
    assert task["detail"] == {
        "error": f"component size {size} exceeds the configured cap {cap}"}


def test_bad_cap_env_var_stops_before_any_task(tmp_path, capsys, monkeypatch):
    # the override is checked once, before the first task; a task that
    # does not use a cap must not run ahead of the configuration error
    calls = []
    for name, fn in list(TASK_FUNCTIONS.items()):
        monkeypatch.setitem(TASK_FUNCTIONS, name,
                            lambda *args, _name=name, _fn=fn:
                            calls.append(_name) or _fn(*args))
    raw = {
        "system": {"bosonic": [2, 1]},
        "group": {"kind": "gl", "rank": 2, "side": "left"},
        "tasks": [{"task": "property_suite", "samples": 2},
                  {"task": "jet_compare", "mode": "state_dims",
                   "max_weight": 1}],
    }
    spath = write_scenario(tmp_path, raw)
    # only ASCII decimal digits are read: no sign, space, underscore or
    # other script's digit, though int() takes them
    for value in ("x", " 7", "+7", "1_000", "\u0663"):
        monkeypatch.setenv("FREEFIELD_CAP", value)
        with pytest.raises(ScenarioError,
                           match="FREEFIELD_CAP must be an integer"):
            run_scenario(raw)
        assert cli.main(["verify", str(spath)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: FREEFIELD_CAP must be an integer, "
            f"got {value!r}"]
        assert calls == []


def test_scenario_bounds_do_not_leak_between_runs():
    raw = tiny_affine(bounds={"samples": 5})
    res = resolve_scenario(raw)
    assert res["bounds"]["samples"] == 5
    assert DEFAULT_BOUNDS["samples"] == 200


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_cli_pass_writes_report(tmp_path, capsys):
    spath = write_scenario(tmp_path, tiny_affine())
    rpath = tmp_path / "report.json"
    code = cli.main(["verify", str(spath), "--report", str(rpath)])
    assert code == 0
    report = json.loads(rpath.read_text(encoding="utf-8"))
    assert report["all_pass"] is True
    err = capsys.readouterr().err
    assert "[0] verify_affine: PASS" in err


def test_cli_report_to_stdout_by_default(tmp_path, capsys):
    spath = write_scenario(tmp_path, tiny_affine())
    code = cli.main(["verify", str(spath)])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["all_pass"] is True


def test_cli_output_field_in_scenario(tmp_path):
    target = tmp_path / "out.json"
    spath = write_scenario(tmp_path, tiny_affine(output=str(target)))
    assert cli.main(["verify", str(spath)]) == 0
    assert json.loads(target.read_text(encoding="utf-8"))["all_pass"]


def test_cli_exit_one_on_failure(tmp_path):
    raw = tiny_affine()
    raw["tasks"][0]["expect_level"] = "7"
    spath = write_scenario(tmp_path, raw)
    rpath = tmp_path / "report.json"
    assert cli.main(["verify", str(spath), "--report", str(rpath)]) == 1
    report = json.loads(rpath.read_text(encoding="utf-8"))
    assert report["tasks"][0]["status"] == "fail"


def test_cli_exit_two_on_config_error(tmp_path, capsys, monkeypatch):
    spath = write_scenario(tmp_path, tiny_affine(tasks=["frobnicate"]))
    assert cli.main(["verify", str(spath)]) == 2
    assert "configuration error" in capsys.readouterr().err
    # JSON true is not an integer: one line on stderr, no report
    spath = write_scenario(tmp_path, tiny_affine(bounds={"max_weight": True}))
    assert cli.main(["verify", str(spath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "configuration error: bound 'max_weight' must be a positive integer"]
    assert cli.main(["verify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    capsys.readouterr()
    # a scenario that is no object reaches resolve_scenario, with or
    # without the overrides
    for extra in ([], ["--max-weight", "2", "--seed", "1"]):
        assert cli.main(["verify", str(bad), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "configuration error: scenario must be a JSON object"]
    # bounds that are no object reach resolve_scenario unchanged, with or
    # without the overrides, and so do the other malformed fields: one
    # stderr line, no report, no file written
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    cases = [(tiny_affine(bounds=b), "bounds must be an object")
             for b in (5, "x", [1, 2], True)] + [
        (tiny_affine(system=[2, 1]), "system must be an object"),
        (tiny_affine(tasks=[{"task": ["a"]}]), "unknown task ['a']"),
        (tiny_affine(output={"a": 1}), "output must be a string"),
        (tiny_affine(group={"kind": "sl", "rank": 2, "family": [1, 2]}),
         "unknown current family [1, 2]"),
        (tiny_affine(tasks=[{"task": "verify_affine", "family": {
            "kind": "sl", "rank": 2, "family": {"a": 1}}}]),
         "unknown current family {'a': 1}")] + [
        (tiny_affine(tasks=[{"task": "counterexample_so4", "modes": modes}]),
         "counterexample_so4 option 'modes' must be a non-empty list of "
         "non-negative integers") for modes in ([-3], [], "x", [0, True])] + [
        case for case in BAD_INDEX_OPTIONS
        if case[0]["tasks"][0].get("indices") in ([1, 5], "x", [1])]
    for raw, message in cases:
        spath = write_scenario(tmp_path, raw)
        for extra in ([], ["--max-weight", "2", "--max-degree", "2",
                           "--seed", "1"]):
            assert cli.main(["verify", str(spath), *extra]) == 2, raw
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.splitlines() == [
                f"configuration error: {message}"], raw
    assert sorted(os.listdir(tmp_path)) == before


def test_seed_bound_is_any_integer(tmp_path, capsys):
    # seed may be zero or negative, but must be an integer
    assert resolve_scenario(tiny_affine(bounds={"seed": -3}))["bounds"][
        "seed"] == -3
    with pytest.raises(ScenarioError, match="bound 'seed' must be an integer"):
        resolve_scenario(tiny_affine(bounds={"seed": 1.5}))
    spath = write_scenario(tmp_path, tiny_affine(bounds={"seed": 1.5}))
    assert cli.main(["verify", str(spath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "configuration error: bound 'seed' must be an integer"]


@pytest.mark.parametrize("value", ["x", "-5", "1.5", "", " 7", "+7", "1_000",
                                   "\u0663"])
def test_bad_cache_cap_env_var_is_a_config_error(tmp_path, capsys,
                                                 monkeypatch, value):
    monkeypatch.setenv("FREEFIELD_CACHE_CAP", value)
    with pytest.raises(ScenarioError, match="FREEFIELD_CACHE_CAP must be a "
                                            "non-negative integer"):
        run_scenario(tiny_affine())
    spath = write_scenario(tmp_path, tiny_affine())
    assert cli.main(["verify", str(spath)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["configuration error: FREEFIELD_CACHE_CAP must be a "
                   f"non-negative integer, got {value!r}"]


@pytest.mark.parametrize("value", ["0", "3"])
def test_cache_cap_env_var_keeps_the_report(monkeypatch, value):
    # 0 turns the product cache off; a cap changes no report byte
    want = report_to_json(run_scenario(tiny_affine()))
    monkeypatch.setenv("FREEFIELD_CACHE_CAP", value)
    assert report_to_json(run_scenario(tiny_affine())) == want


def test_right_gl_currents_without_bosons_is_a_config_error(tmp_path, capsys):
    raw = {"system": {"fermionic": [2, 2]},
           "group": {"kind": "sl", "rank": 2},
           "tasks": [{"task": "jet_compare", "generators": "right_gl_currents",
                      "max_weight": 1, "max_degree": 2}]}
    with pytest.raises(ScenarioError,
                       match="right_gl_currents need a bosonic sector"):
        run_scenario(raw)
    spath = write_scenario(tmp_path, raw)
    assert cli.main(["verify", str(spath)]) == 2
    err = capsys.readouterr().err
    assert "right_gl_currents need a bosonic sector" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


# verify_affine takes only the trace and normalized forms; any other
# value, a Gram matrix included, ends the run as a configuration error
@pytest.mark.parametrize("form", ["killing", "Trace", "", [[1]], 2, None])
def test_unknown_verify_affine_form_is_a_config_error(tmp_path, capsys, form):
    raw = tiny_affine(tasks=[{"task": "verify_affine", "form": form}])
    with pytest.raises(ScenarioError, match="unknown verify_affine form"):
        run_scenario(raw)
    spath = write_scenario(tmp_path, raw)
    assert cli.main(["verify", str(spath)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: unknown verify_affine form {form!r}; "
        "expected trace or normalized"]


def test_cli_rejects_threads_flag(tmp_path, capsys):
    # tasks run in order in one process; there is no thread count to set
    spath = write_scenario(tmp_path, tiny_affine())
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", str(spath), "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# malformed task options that fail inside the task: (system, group, task,
# exception type named by the task error)
MALFORMED_TASKS = [
    ({"bosonic": [1, 1]}, {"kind": "gl", "rank": 1, "side": "right"},
     {"task": "commutant_check", "candidates": [{"kind": "state"}]},
     "KeyError"),
    # candidate copy indices are not checked at resolve time: one out of
    # range ends as a task error when the candidate is built
    ({"bosonic": [2, 2]}, None,
     {"task": "commutant_check",
      "family": {"kind": "gl", "rank": 2, "side": "right"},
      "candidates": [{"kind": "det", "indices": [1, 5]}]}, "KeyError"),
]

# task options that count samples or bound a search: each case passed
# while checking nothing, or failed only when its task ran
SL2 = {"kind": "sl", "rank": 2}
BAD_COUNT_OPTIONS = {
    "property_suite-samples-0": (
        {"bosonic": [1, 1]}, None, {"task": "property_suite", "samples": 0}),
    "property_suite-samples--5": (
        {"bosonic": [1, 1]}, None, {"task": "property_suite", "samples": -5}),
    "zhu_check-samples--1": (
        {"bosonic": [2, 2]}, None, {"task": "zhu_check", "samples": -1}),
    "jet_compare-samples-0": (
        {"bosonic": [2, 1]}, SL2,
        {"task": "jet_compare", "mode": "equivariance", "samples": 0}),
    "jet_compare-max_weight--2": (
        {"bosonic": [2, 1]}, SL2, {"task": "jet_compare", "max_weight": -2}),
    "jet_compare-max_weight-x": (
        {"bosonic": [2, 1]}, SL2, {"task": "jet_compare", "max_weight": "x"}),
    "jet_compare-cap-0": (
        {"bosonic": [2, 1]}, SL2, {"task": "jet_compare", "cap": 0}),
    "counterexample_so4-max_degree--1": (
        {"bosonic": [4, 2]}, {"kind": "so", "rank": 4},
        {"task": "counterexample_so4", "max_degree": -1}),
    "counterexample_so4-max_degree-true": (
        {"bosonic": [4, 2]}, {"kind": "so", "rank": 4},
        {"task": "counterexample_so4", "max_degree": True}),
}


@pytest.mark.parametrize("system,group,task", BAD_COUNT_OPTIONS.values(),
                         ids=BAD_COUNT_OPTIONS)
def test_count_task_options_are_config_errors(system, group, task, tmp_path,
                                              capsys):
    key = next(k for k in ("samples", "max_weight", "max_degree", "cap")
               if k in task)
    message = f"{task['task']} option {key!r} must be a positive integer"
    raw = {"system": system, "group": group,
           "tasks": [{"task": "property_suite", "samples": 2}, task]}
    with pytest.raises(ScenarioError, match=message):
        resolve_scenario(raw)
    # through the CLI: exit 2, one stderr line, no report
    spath = write_scenario(tmp_path, raw)
    assert cli.main(["verify", str(spath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"configuration error: {message}"]


# jet_compare dims spaces that do not fit the group: each passed
# vacuously, read true as one copy, solved a space that is not the
# group's module, ended as a KeyError task error, or ignored side
# "right"; without a group the task ended as a TypeError task error
PLAIN_MESSAGE = "space.plain copies and coords must be positive integers"
BAD_DIMS_SPACES = {
    "plain-copies-0": ({"bosonic": [2, 1]}, SL2,
                       {"plain": {"copies": 0, "coords": 2}}, PLAIN_MESSAGE),
    "plain-copies--1": ({"bosonic": [2, 1]}, SL2,
                        {"plain": {"copies": -1, "coords": 2}}, PLAIN_MESSAGE),
    "plain-copies-true": ({"bosonic": [2, 1]}, SL2,
                          {"plain": {"copies": True, "coords": 2}},
                          PLAIN_MESSAGE),
    "plain-coords-missing": ({"bosonic": [2, 1]}, SL2,
                             {"plain": {"copies": 1}}, PLAIN_MESSAGE),
    "plain-not-object": ({"bosonic": [2, 1]}, SL2, {"plain": 2},
                         PLAIN_MESSAGE),
    "plain-coords-3-sl2": (
        {"bosonic": [2, 1]}, SL2, {"plain": {"copies": 1, "coords": 3}},
        "space family 'x' has 3 coordinates, the algebra acts on 2"),
    "system-3-2-sl2": (
        {"bosonic": [3, 2]}, SL2, "system",
        "space family 'beta' has 3 coordinates, the algebra acts on 2"),
    "system-2-2-sl3": (
        {"bosonic": [2, 2]}, {"kind": "sl", "rank": 3}, "system",
        "space family 'beta' has 2 coordinates, the algebra acts on 3"),
    "fermionic-3-1-sl2": (
        {"bosonic": [2, 1], "fermionic": [3, 1]}, SL2, "system",
        "space family 'b' has 3 coordinates, the algebra acts on 2"),
    "no-group": ({"bosonic": [2, 1]}, None, "system",
                 "this task needs a group"),
    "side-right": (
        {"bosonic": [2, 2]}, {"kind": "gl", "rank": 2, "side": "right"},
        "system", "jet_compare dims acts on coordinates only, "
        "not with side 'right'"),
}


@pytest.mark.parametrize("system,group,space,message",
                         BAD_DIMS_SPACES.values(), ids=BAD_DIMS_SPACES)
def test_dims_space_not_fitting_the_group_is_a_config_error(
        system, group, space, message, tmp_path, capsys):
    raw = {"system": system, "group": group,
           "tasks": [{"task": "jet_compare", "space": space,
                      "generators": "none", "max_weight": 1,
                      "max_degree": 2}]}
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(raw)
    spath = write_scenario(tmp_path, raw)
    assert cli.main(["verify", str(spath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        f"configuration error: {message}"]


def test_dims_side_right_in_the_task_family_is_a_config_error():
    # the task's own family is the one the dims solve would act by
    raw = {"system": {"bosonic": [2, 2]}, "group": {"kind": "sl", "rank": 2},
           "tasks": [{"task": "jet_compare", "max_weight": 1,
                      "family": {"kind": "gl", "rank": 2, "side": "right"}}]}
    with pytest.raises(ScenarioError, match="not with side 'right'"):
        run_scenario(raw)


@pytest.mark.parametrize("system,group,task,exc_name", MALFORMED_TASKS)
def test_malformed_task_options_give_task_error(system, group, task, exc_name):
    raw = {"system": system, "group": group,
           "tasks": [task, {"task": "property_suite", "samples": 2}]}
    report = run_scenario(raw)
    bad, after = report["tasks"]
    assert bad["status"] == "error"
    assert bad["detail"]["error"].startswith(exc_name + ": ")
    assert after["status"] == "pass"
    assert not report["all_pass"]


def test_cli_malformed_task_exits_one_without_traceback(tmp_path):
    system, group, task, _ = MALFORMED_TASKS[0]
    spath = write_scenario(tmp_path, {"system": system, "group": group,
                                      "tasks": [task]})
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "freefield.cli", "verify", str(spath)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "[0] commutant_check: ERROR" in proc.stderr
    report = json.loads(proc.stdout)
    assert report["tasks"][0]["detail"]["error"] == "KeyError: 'text'"


def test_cli_bound_overrides(tmp_path):
    raw = {
        "system": {"bosonic": [1, 1]},
        "tasks": [{"task": "property_suite", "samples": 3}],
    }
    spath = write_scenario(tmp_path, raw)
    rpath = tmp_path / "report.json"
    assert cli.main(["verify", str(spath), "--report", str(rpath),
                     "--seed", "5", "--max-weight", "2"]) == 0
    report = json.loads(rpath.read_text(encoding="utf-8"))
    assert report["scenario"]["bounds"]["seed"] == 5
    assert report["scenario"]["bounds"]["max_weight"] == 2


def test_bundled_scenarios_resolve():
    from importlib.resources import files
    names = sorted(p.name for p in (files("freefield") / "scenarios").iterdir()
                   if p.name.endswith(".json"))
    assert len(names) == 25
    for name in names:
        raw = json.loads((files("freefield") / "scenarios" / name)
                         .read_text(encoding="utf-8"))
        resolve_scenario(raw)


def test_bundled_property_scenario_small_sample_run():
    from importlib.resources import files
    raw = json.loads((files("freefield") / "scenarios" /
                      "engine_properties.json").read_text(encoding="utf-8"))
    raw["bounds"] = {"samples": 10}
    report = run_scenario(raw)
    assert report["all_pass"], report["tasks"]


@pytest.fixture(scope="module")
def bundled_reports():
    """Every bundled scenario's report at seed 0, run once per module."""
    from importlib.resources import files
    out = {}
    for path in sorted((files("freefield") / "scenarios").iterdir(),
                       key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["bounds"] = dict(raw.get("bounds") or {}, seed=0)
        out[path.name[:-len(".json")]] = run_scenario(raw)
    return out


def test_bundled_reports_match_recorded_digests(bundled_reports):
    # every bundled scenario at seed 0 must reproduce the report bytes
    # recorded by the benchmark (perfbench/digests.json)
    import hashlib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "digests.json"),
              encoding="utf-8") as fh:
        recorded = json.load(fh)["0"]
    got = {name: hashlib.sha256(report_to_json(report).encode("utf-8"))
           .hexdigest() for name, report in bundled_reports.items()}
    assert got == recorded


def _detail_keys(value):
    """Every identifier-like key in a detail, at any depth (the bidegree
    keys "w,d" of the dims maps are data, not names)."""
    if isinstance(value, dict):
        for key, sub in value.items():
            if key.isidentifier():
                yield key
            yield from _detail_keys(sub)
    elif isinstance(value, list):
        for sub in value:
            yield from _detail_keys(sub)


def test_report_schema_names_every_jet_compare_detail_key(bundled_reports):
    # every detail key the bundled tasks emit is named in their task's
    # section of the report schema
    import re
    from importlib.resources import files
    schema = (files("freefield") / "docs" / "report_schema.md").read_text(
        encoding="utf-8")
    body = schema[schema.index("## detail fields by task"):]
    heads = list(re.finditer(r"^- `(\w+)`", body, re.M))
    sections = {m.group(1): body[m.start():n.start() if n else len(body)]
                for m, n in zip(heads, heads[1:] + [None])}
    assert sorted(sections) == sorted(TASK_FUNCTIONS)
    seen = {}
    for name, report in bundled_reports.items():
        for t in report["tasks"]:
            assert t["status"] == "pass", (name, t)
            seen.setdefault(t["task"], set()).update(_detail_keys(t["detail"]))
    assert sorted(seen) == sorted(TASK_FUNCTIONS)
    assert {"invariant_dims", "samples", "weights"} <= seen["jet_compare"]
    for task, keys in seen.items():
        named = {word for span in re.findall(r"`([^`]*)`", sections[task])
                 for word in re.findall(r"\w+", span)}
        assert keys <= named, (task, sorted(keys - named))

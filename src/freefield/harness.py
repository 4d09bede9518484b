"""Scenario-driven verification harness.

A scenario is a JSON object naming one free-field system, a default
symmetry group, a task list and numeric bounds.  The harness validates
it, hands each task to the module that owns its maths and turns the
results into report details.  run_scenario executes the tasks in order
and returns a deterministic report: two runs of the same scenario
produce byte-identical JSON (timings are only added on request).  Task
names and the FREEFIELD_CAP and FREEFIELD_CACHE_CAP overrides are
validated before any computation starts; resource-cap breaches fail the
single task and the run continues.
"""

import json
import time

from . import __version__
from .rationals import qstr, parse_qstr
from .fock import env_int, state_from_text, state_to_text
from .liealg import make_algebra
from .constructions import (GENERATOR_SETS, PAIR_FAMILIES, bc_family,
                            build_system, commutant_check, conformal_and_charge,
                            correct_det_relation, det_family,
                            invariant_lift_search, mixed_det, mixed_psi_family,
                            quad_family, sec4_identity, state_dims,
                            sugawara_checks, symbol_generators, theta,
                            verify_affine)
from .diffalg import (FamilyDecl, ResourceCapError, VarSpace, bidegree_dims,
                      diff_to_text, noninvariant_generator, plain_minors,
                      plain_quadrics, varspace_for_system)
from .properties import jet_equivariance, run_property_suite, zhu_star_check
from .weyl import (decode_polynomial, poly_monomials, weyl_to_text,
                   zhu_det_mismatch)

TOOL_NAME = "freefield"

DEFAULT_BOUNDS = {"max_weight": 3, "max_degree": 4, "samples": 200, "seed": 0}

CAP_ENV = "FREEFIELD_CAP"

# accepted spellings for the quadratic and super current families
FAMILY_ALIASES = {
    "quad_so": ("quad", "so"),
    "quad_sp": ("quad", "sp"),
    "mixed_glrs": ("mixed_psi", None),
}


class ScenarioError(ValueError):
    """Configuration problem: the run stops and gives no report."""


# -- scenario resolution -----------------------------------------------------


def _check_dims(pair, name):
    if pair is None:
        return None
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(type(v) is int and v >= 1 for v in pair)):
        raise ScenarioError(f"{name} must be a pair of positive integers")
    return [pair[0], pair[1]]


def _check_group(group, where):
    if group is None:
        return None
    if not isinstance(group, dict) or "kind" not in group:
        raise ScenarioError(f"{where} must be an object with a 'kind'")
    out = {"kind": group["kind"]}
    rank = group.get("rank")
    if type(rank) is int:
        out["rank"] = rank
    elif isinstance(rank, (list, tuple)) and all(type(v) is int for v in rank):
        out["rank"] = list(rank)
    else:
        raise ScenarioError(f"{where}.rank must be an integer or integer list")
    out["side"] = group.get("side", "left")
    if out["side"] not in ("left", "right"):
        raise ScenarioError(f"{where}.side must be 'left' or 'right'")
    fam = group.get("family", "theta")
    if isinstance(fam, str) and fam in FAMILY_ALIASES:
        canonical, needed_kind = FAMILY_ALIASES[fam]
        if needed_kind is not None and out["kind"] != needed_kind:
            raise ScenarioError(
                f"family {fam!r} needs kind {needed_kind!r}, got {out['kind']!r}")
        fam = canonical
    if fam not in ("theta", "quad", "bc_psi", "mixed_psi"):
        raise ScenarioError(f"unknown current family {fam!r}")
    out["family"] = fam
    return out


# task options that list n distinct copies of the bosonic sector
INDEX_OPTIONS = {"zhu_check": ("indices",),
                 "counterexample_sec4": ("indices", "indices_primed")}


def _check_indices(task, key, bosonic):
    """task[key] must be a list of n distinct ints in 1..m, for (n, m)
    the bosonic shape; a system without a bosonic sector takes none."""
    name = f"{task['task']} option {key!r}"
    if bosonic is None:
        raise ScenarioError(f"{name} needs a bosonic sector")
    n, m = bosonic
    val = task[key]
    if (not isinstance(val, list)
            or any(type(i) is not int or not 1 <= i <= m for i in val)
            or len(set(val)) != len(val) or len(val) != n):
        raise ScenarioError(
            f"{name} must be a list of {n} distinct integers in 1..{m}")


def resolve_scenario(raw) -> dict:
    """Validate and fill defaults; raises ScenarioError on any problem."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    system = raw.get("system") or {}
    if not isinstance(system, dict):
        raise ScenarioError("system must be an object")
    resolved = {
        "system": {
            "bosonic": _check_dims(system.get("bosonic"), "system.bosonic"),
            "fermionic": _check_dims(system.get("fermionic"), "system.fermionic"),
        },
        "group": _check_group(raw.get("group"), "group"),
    }
    if not (resolved["system"]["bosonic"] or resolved["system"]["fermionic"]):
        raise ScenarioError("system needs a bosonic or fermionic sector")
    tasks = raw.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ScenarioError("scenario needs a non-empty task list")
    norm = []
    for t in tasks:
        if isinstance(t, str):
            t = {"task": t}
        if not isinstance(t, dict) or "task" not in t:
            raise ScenarioError("each task must be a name or an object with 'task'")
        if not isinstance(t["task"], str) or t["task"] not in TASK_FUNCTIONS:
            raise ScenarioError(f"unknown task {t['task']!r}")
        for key in ("samples", "max_weight", "max_degree", "cap"):
            if key in t and (type(t[key]) is not int or t[key] < 1):
                raise ScenarioError(
                    f"{t['task']} option {key!r} must be a positive integer")
        if t["task"] == "counterexample_so4" and "modes" in t:
            modes = t["modes"]
            if (not isinstance(modes, list) or not modes
                    or any(type(n) is not int or n < 0 for n in modes)):
                raise ScenarioError(f"{t['task']} option 'modes' must be a "
                                    "non-empty list of non-negative integers")
        for key in INDEX_OPTIONS.get(t["task"], ()):
            if key in t:
                _check_indices(t, key, resolved["system"]["bosonic"])
        if "family" in t:
            t = dict(t)
            t["family"] = _check_group(t["family"], "task.family")
        norm.append(t)
    resolved["tasks"] = norm
    bounds = dict(DEFAULT_BOUNDS)
    extra = raw.get("bounds") or {}
    if not isinstance(extra, dict):
        raise ScenarioError("bounds must be an object")
    for key, val in extra.items():
        if key not in DEFAULT_BOUNDS:
            raise ScenarioError(f"unknown bound {key!r}")
        if key == "seed":
            if type(val) is not int:
                raise ScenarioError("bound 'seed' must be an integer")
        elif type(val) is not int or val < 1:
            raise ScenarioError(f"bound {key!r} must be a positive integer")
        bounds[key] = val
    resolved["bounds"] = bounds
    if raw.get("output") is not None:
        if not isinstance(raw["output"], str):
            raise ScenarioError("output must be a string")
        resolved["output"] = raw["output"]
    return resolved


def _build_system(resolved):
    spec = resolved["system"]
    bos = tuple(spec["bosonic"]) if spec["bosonic"] else None
    fer = tuple(spec["fermionic"]) if spec["fermionic"] else None
    try:
        return build_system(bosonic=bos, fermionic=fer)
    except ValueError as e:
        raise ScenarioError(str(e))


def _make_algebra(group):
    rank = group["rank"]
    params = tuple(rank) if isinstance(rank, list) else (rank,)
    try:
        return make_algebra(group["kind"], *params)
    except (ValueError, TypeError) as e:
        raise ScenarioError(str(e))


def build_family(sys, group):
    """CurrentFamily described by a group spec."""
    if group is None:
        raise ScenarioError("this task needs a group")
    fam = group["family"]
    if fam == "theta":
        return theta(_make_algebra(group), sys, group["side"])
    if fam == "quad":
        return quad_family(_make_algebra(group), sys)
    if fam == "bc_psi":
        return bc_family(sys, "psi")
    if fam == "mixed_psi":
        return mixed_psi_family(sys)
    raise ScenarioError(f"unknown current family {fam!r}")


# -- candidate expansion for commutant checks --------------------------------


def expand_candidates(sys, specs):
    """Yield (label, state) pairs from candidate descriptions."""
    if not isinstance(specs, list) or not specs:
        raise ScenarioError("commutant_check needs a candidate list")
    for cand in specs:
        if not isinstance(cand, dict) or "kind" not in cand:
            raise ScenarioError("each candidate needs a 'kind'")
        kind = cand["kind"]
        if kind == "det":
            side = cand.get("side", "beta")
            indices = tuple(cand.get("indices", []))
            axis = cand.get("axis", "copies")
            label = cand.get("label", f"det_{side}{list(indices)}")
            yield label, det_family(sys, indices, side=side, axis=axis)
        elif kind == "mixed_det":
            yield cand.get("label", "mixed_det"), mixed_det(sys)
        elif kind == "family":
            group = _check_group(cand.get("group"), "candidate.group")
            fam = build_family(sys, group)
            for label, st in fam.items():
                yield f"{fam.name}.{label}", st
        elif kind in ("pairs", "bc_det"):
            which = cand.get("which")
            if which not in PAIR_FAMILIES:
                raise ValueError(f"no labels for family {which!r}")
            for label, st in bc_family(sys, which):
                if not st.is_zero():
                    yield label, st
        elif kind == "charge_e":
            yield cand.get("label", "charge_e"), conformal_and_charge(sys)[2]
        elif kind == "state":
            yield cand.get("label", "state"), state_from_text(sys, cand["text"])
        else:
            raise ScenarioError(f"unknown candidate kind {kind!r}")


def _env_cap():
    """The FREEFIELD_CAP override as a positive int, or None when unset."""
    try:
        val = env_int(CAP_ENV, None, "an integer")
    except ValueError as e:
        raise ScenarioError(str(e))
    if val is not None and val < 1:
        raise ScenarioError(f"{CAP_ENV} must be positive")
    return val


# -- named generator sets for jet comparisons --------------------------------


def _space_from_spec(sys, spec, rep_dim):
    """The jet space of a dims spec; every family must have rep_dim
    coordinates, those the algebra acts on."""
    if spec in (None, "system"):
        space = varspace_for_system(sys)
    elif isinstance(spec, dict) and "plain" in spec:
        plain = spec["plain"]
        if not isinstance(plain, dict) or any(
                type(plain.get(k)) is not int or plain[k] < 1
                for k in ("copies", "coords")):
            raise ScenarioError(
                "space.plain copies and coords must be positive integers")
        space = VarSpace([
            FamilyDecl("x", plain["copies"], plain["coords"], 0, 0, "rep")
        ])
    else:
        raise ScenarioError(f"unknown space spec {spec!r}")
    for f in space.families:
        if f.coords != rep_dim:
            raise ScenarioError(
                f"space family {f.family!r} has {f.coords} coordinates, "
                f"the algebra acts on {rep_dim}")
    return space


def _generators(sys, space, name):
    """Named generator sets for generated_span, as polynomials."""
    if name in (None, "none"):
        return []
    if name == "quadrics":
        return plain_quadrics(space)
    if name == "minors":
        if space.families[0].coords != 2:
            raise ScenarioError("minors need exactly two coordinates")
        return plain_minors(space)
    if name not in GENERATOR_SETS:
        raise ScenarioError(f"unknown generator set {name!r}")
    if name == "right_gl_currents" and not sys.bosonic:
        raise ScenarioError("right_gl_currents need a bosonic sector")
    return symbol_generators(sys, name)


# -- tasks -------------------------------------------------------------------


def task_verify_affine(sys, group, opts, bounds):
    form = opts.get("form", "trace")
    if form not in ("trace", "normalized"):
        raise ScenarioError(f"unknown verify_affine form {form!r}; "
                            "expected trace or normalized")
    fam = build_family(sys, opts.get("family") or group)
    rep = verify_affine(fam, form=form)
    detail = rep.summary()
    detail["family"] = fam.name
    for name in ("closure_witness", "level_witness", "higher_witness"):
        w = getattr(rep, name)
        if w is not None:
            detail[name] = [state_to_text(v) if hasattr(v, "terms") else str(v)
                            for v in w]
    ok = rep.ok
    expect = opts.get("expect_level")
    if expect is not None:
        detail["expected_level"] = expect
        ok = ok and rep.level is not None and parse_qstr(expect) == rep.level
    return ("pass" if ok else "fail"), detail


def task_commutant_check(sys, group, opts, bounds):
    fam = build_family(sys, opts.get("family") or group)
    results = []
    for label, st in expand_candidates(sys, opts.get("candidates")):
        ok, witness = commutant_check(st, fam)
        results.append({"label": label, "ok": ok})
        if not ok:
            xi, n, prod = witness
            results[-1]["witness"] = {
                "current": xi, "n": n, "product": state_to_text(prod)}
    all_ok = all(entry["ok"] for entry in results)
    return ("pass" if all_ok else "fail"), {
        "family": fam.name, "candidates": results}


def task_counterexample_sec4(sys, group, opts, bounds):
    J = tuple(opts["indices"]) if "indices" in opts else None
    Jp = tuple(opts["indices_primed"]) if "indices_primed" in opts else None
    rep = sec4_identity(sys, J, Jp)
    n = rep["n"]
    ok = (rep["holds"] and rep["escapes_lower_filtration"]
          and rep["normal_degree"] == 2 * n
          and rep["zeroth_degree"] <= 2 * n - 2)
    return ("pass" if ok else "fail"), rep


def task_counterexample_so4(sys, group, opts, bounds):
    fam = build_family(sys, opts.get("family") or group)
    target = mixed_det(sys)
    modes = tuple(opts.get("modes", (0, 1, 2)))
    maxdeg = opts.get("max_degree", 3)
    rep = invariant_lift_search(fam, target, maxdeg=maxdeg, modes=modes,
                                cap=opts.get("cap", 20000))
    detail = dict(rep, modes=list(modes), max_degree=maxdeg)
    return ("pass" if not rep["feasible"] else "fail"), detail


def task_jet_compare(sys, group, opts, bounds):
    mode = opts.get("mode", "dims")
    W = opts.get("max_weight", bounds["max_weight"])
    D = opts.get("max_degree", bounds["max_degree"])
    cap = opts.get("cap", 200000)
    if mode == "equivariance":
        fam = build_family(sys, opts.get("family") or group)
        if fam.side != "left":
            raise ScenarioError("equivariance checks need a left family")
        samples = opts.get("samples", bounds["samples"])
        failures, witness = jet_equivariance(fam, bounds["seed"], samples)
        detail = {"samples": samples, "failures": failures}
        if witness:
            label, r, v, lhs, rhs = witness
            detail["witness"] = {
                "current": label, "r": r, "state": state_to_text(v),
                "engine": diff_to_text(lhs), "jet": diff_to_text(rhs),
            }
        return ("pass" if failures == 0 else "fail"), detail
    if mode == "state_dims":
        fam = build_family(sys, opts.get("family") or group)
        dims = state_dims(fam, W, D, cap)
        expected = [1] + [0] * W
        ok = dims == expected
        return ("pass" if ok else "fail"), {
            "weights": list(range(0, W + 1)),
            "invariant_dims": dims,
            "generated_dims": expected,
            "equal": ok,
        }
    if mode != "dims":
        raise ScenarioError(f"unknown jet_compare mode {mode!r}")
    group = opts.get("family") or group
    if group is None:
        raise ScenarioError("this task needs a group")
    if group["side"] == "right":
        raise ScenarioError("jet_compare dims acts on coordinates only, "
                            "not with side 'right'")
    A = _make_algebra(group)
    space = _space_from_spec(sys, opts.get("space"), A.rep_dim)
    gens = _generators(sys, space, opts.get("generators"))
    bad = noninvariant_generator(space, A, gens)
    if bad is not None:
        g, i, r = bad
        return "fail", {"generator_not_invariant": {
            "generator": diff_to_text(g), "current": A.labels[i], "r": r}}
    inv, gen = bidegree_dims(space, A, gens, W, D, cap)
    ok = inv == gen
    return ("pass" if ok else "fail"), {
        "invariant_dims": dict(sorted(inv.items())),
        "generated_dims": dict(sorted(gen.items())),
        "equal": ok,
    }


def task_zhu_check(sys, group, opts, bounds):
    if not sys.bosonic or sys.fermionic:
        raise ScenarioError("zhu_check needs a purely bosonic system")
    indices = tuple(opts.get("indices", range(1, sys.bosonic[0] + 1)))
    polys = poly_monomials(sys, 3)
    mismatch = zhu_det_mismatch(sys, indices, polys)
    samples = opts.get("samples", bounds["samples"])
    star_failures, star_witness = zhu_star_check(sys, polys, bounds["seed"],
                                                 samples)
    detail = {
        "det_matches_classical": mismatch is None,
        "star_samples": samples,
        "star_failures": star_failures,
    }
    if mismatch:
        q, got, want = mismatch
        detail["det_witness"] = {"q": weyl_to_text(q), "got": weyl_to_text(got),
                                 "want": weyl_to_text(want)}
    if star_witness:
        a, b, q = star_witness
        detail["star_witness"] = {"a": state_to_text(a), "b": state_to_text(b),
                                  "q": weyl_to_text(decode_polynomial(q))}
    ok = mismatch is None and star_failures == 0
    return ("pass" if ok else "fail"), detail


def task_quantum_correct(sys, group, opts, bounds):
    if not sys.bosonic or sys.fermionic:
        raise ScenarioError("quantum_correct needs a purely bosonic system")
    n, m = sys.bosonic
    if n != m:
        raise ScenarioError("the determinant relation needs n = m")
    res, reexpanded_zero, top_ok = correct_det_relation(
        sys, opts.get("cap", 20000))
    detail = {
        "status": res.status,
        "correction_degrees": [d for d, _ in res.corrections],
        "reexpanded_zero": reexpanded_zero,
        "top_symbol_is_relation": top_ok,
    }
    if res.failed_degree is not None:
        detail["failed_degree"] = res.failed_degree
        if res.residual_symbol is not None:
            detail["residual_symbol"] = diff_to_text(res.residual_symbol)
    ok = res.status == "ok" and reexpanded_zero and top_ok
    return ("pass" if ok else "fail"), detail


def task_sugawara_check(sys, group, opts, bounds):
    fam = build_family(sys, opts.get("family") or group)
    k = parse_qstr(str(opts.get("k", "-1")))
    checks, c = sugawara_checks(fam, k)
    detail = dict(checks, central_charge=qstr(c), k=qstr(k))
    return ("pass" if all(checks.values()) else "fail"), detail


def task_property_suite(sys, group, opts, bounds):
    samples = opts.get("samples", bounds["samples"])
    rep = run_property_suite(seed=bounds["seed"], instances=samples)
    ok = all(entry["failures"] == 0 for entry in rep.values())
    return ("pass" if ok else "fail"), rep


TASK_FUNCTIONS = {
    "verify_affine": task_verify_affine,
    "commutant_check": task_commutant_check,
    "counterexample_sec4": task_counterexample_sec4,
    "counterexample_so4": task_counterexample_so4,
    "jet_compare": task_jet_compare,
    "zhu_check": task_zhu_check,
    "quantum_correct": task_quantum_correct,
    "sugawara_check": task_sugawara_check,
    "property_suite": task_property_suite,
}


# -- driver ------------------------------------------------------------------


def run_scenario(raw, timings=False) -> dict:
    """Execute a scenario (raw JSON object or resolved dict); returns the
    report as a plain JSON-serializable dict."""
    resolved = resolve_scenario(raw)
    sys_obj = _build_system(resolved)
    env_cap = _env_cap()
    results = []
    for idx, t in enumerate(resolved["tasks"]):
        fn = TASK_FUNCTIONS[t["task"]]
        # a task's cap option wins over the environment override
        opts = t if env_cap is None or "cap" in t else dict(t, cap=env_cap)
        started = time.perf_counter()
        try:
            status, detail = fn(sys_obj, resolved["group"], opts,
                                resolved["bounds"])
        except ResourceCapError as e:
            status, detail = "error", {"error": str(e)}
        except ScenarioError:
            raise
        except ValueError as e:
            status, detail = "error", {"error": str(e)}
        except Exception as e:
            # any other failure is reported, not raised, and named by type
            status, detail = "error", {"error": f"{type(e).__name__}: {e}"}
        entry = {"index": idx, "task": t["task"], "status": status,
                 "detail": detail}
        if timings:
            entry["seconds"] = round(time.perf_counter() - started, 3)
        results.append(entry)
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "scenario": resolved,
        "tasks": results,
        "all_pass": all(r["status"] == "pass" for r in results),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"

"""Scenario-driven verification harness.

A scenario is a JSON object naming one free-field system, a default
symmetry group, a task list and numeric bounds.  run_scenario executes
the tasks in order and returns a deterministic report: two runs of the
same scenario produce byte-identical JSON (timings are only added on
request).  Task names are validated before any computation starts;
resource-cap breaches fail the single task and the run continues.
"""

import itertools
import json
import os
import random
import time

from . import __version__, diffalg
from .rationals import qstr, parse_qstr
from .fock import (derivative, gradings, nth_product, state_from_text,
                   state_to_text, symbol, vacuum)
from .liealg import dual_coxeter, make_algebra
from .constructions import (bc_family, bc_labels, build_system,
                            commutant_check, conformal_and_charge, det_family,
                            invariant_lift_search, mixed_det,
                            mixed_psi_family, quad_family, sec4_identity,
                            state_invariant_basis, sugawara, theta,
                            verify_affine)
from .diffalg import (FamilyDecl, ResourceCapError, VarSpace, diff_bidegree,
                      diff_sub, diff_to_text, generated_span, invariant_basis,
                      jet_var, lie_jet_action, monomial_from_factors,
                      noninvariant_generator, quantum_correct,
                      varspace_for_system, wick_expand)
from .linalg import axpy, perm_sign
from .properties import random_monomial, run_property_suite
from .weyl import (apply_weyl, classical_dets, poly_monomials,
                   weyl_to_text, zhu_star, zhu_zero_mode)

TOOL_NAME = "freefield"

TASK_NAMES = (
    "verify_affine",
    "commutant_check",
    "counterexample_sec4",
    "counterexample_so4",
    "jet_compare",
    "zhu_check",
    "quantum_correct",
    "sugawara_check",
    "property_suite",
)

DEFAULT_BOUNDS = {"max_weight": 3, "max_degree": 4, "samples": 200, "seed": 0}

CAP_ENV = "FREEFIELD_CAP"

# accepted spellings for the quadratic and super current families
FAMILY_ALIASES = {
    "quad_so": ("quad", "so"),
    "quad_sp": ("quad", "sp"),
    "mixed_glrs": ("mixed_psi", None),
}


class ScenarioError(ValueError):
    """Configuration problem: raised before any task computation."""


# -- scenario resolution -----------------------------------------------------


def _check_dims(pair, name):
    if pair is None:
        return None
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(v, int) and v >= 1 for v in pair)):
        raise ScenarioError(f"{name} must be a pair of positive integers")
    return [pair[0], pair[1]]


def _check_group(group, where):
    if group is None:
        return None
    if not isinstance(group, dict) or "kind" not in group:
        raise ScenarioError(f"{where} must be an object with a 'kind'")
    out = {"kind": group["kind"]}
    rank = group.get("rank")
    if isinstance(rank, int):
        out["rank"] = rank
    elif isinstance(rank, (list, tuple)) and all(isinstance(v, int) for v in rank):
        out["rank"] = list(rank)
    else:
        raise ScenarioError(f"{where}.rank must be an integer or integer list")
    out["side"] = group.get("side", "left")
    if out["side"] not in ("left", "right"):
        raise ScenarioError(f"{where}.side must be 'left' or 'right'")
    fam = group.get("family", "theta")
    if fam in FAMILY_ALIASES:
        canonical, needed_kind = FAMILY_ALIASES[fam]
        if needed_kind is not None and out["kind"] != needed_kind:
            raise ScenarioError(
                f"family {fam!r} needs kind {needed_kind!r}, got {out['kind']!r}")
        fam = canonical
    if fam not in ("theta", "quad", "bc_psi", "mixed_psi"):
        raise ScenarioError(f"unknown current family {fam!r}")
    out["family"] = fam
    return out


def resolve_scenario(raw) -> dict:
    """Validate and fill defaults; raises ScenarioError on any problem."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    system = raw.get("system") or {}
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
        if t["task"] not in TASK_NAMES:
            raise ScenarioError(f"unknown task {t['task']!r}")
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
        if not isinstance(val, int) or (key != "seed" and val < 1):
            raise ScenarioError(f"bound {key!r} must be a positive integer")
        bounds[key] = val
    resolved["bounds"] = bounds
    if raw.get("output") is not None:
        resolved["output"] = str(raw["output"])
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
            for label, st in zip(bc_labels(sys, which), bc_family(sys, which)):
                if not st.is_zero():
                    yield label, st
        elif kind == "charge_e":
            yield cand.get("label", "charge_e"), conformal_and_charge(sys)[2]
        elif kind == "state":
            yield cand.get("label", "state"), state_from_text(sys, cand["text"])
        else:
            raise ScenarioError(f"unknown candidate kind {kind!r}")


def task_cap(opts, fallback: int) -> int:
    """Per-task resource cap: explicit option, else the environment
    override, else the task's default."""
    if "cap" in opts:
        return opts["cap"]
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return fallback
    try:
        val = int(raw)
    except ValueError:
        raise ScenarioError(f"{CAP_ENV} must be an integer, got {raw!r}")
    if val < 1:
        raise ScenarioError(f"{CAP_ENV} must be positive")
    return val


# -- named generator sets for jet comparisons --------------------------------


def _space_from_spec(sys, spec):
    if spec in (None, "system"):
        return varspace_for_system(sys)
    if isinstance(spec, dict) and "plain" in spec:
        plain = spec["plain"]
        return VarSpace([
            FamilyDecl("x", plain["copies"], plain["coords"], 0, 0, "rep")
        ])
    raise ScenarioError(f"unknown space spec {spec!r}")


def _plain_quadrics(space):
    fam = space.families[0]
    out = []
    for j in range(1, fam.copies + 1):
        for k in range(j, fam.copies + 1):
            acc: dict = {}
            for i in range(1, fam.coords + 1):
                axpy(acc, monomial_from_factors(
                    [jet_var("x", j, i, 0), jet_var("x", k, i, 0)], 1))
            out.append(acc)
    return out


def _plain_minors(space):
    fam = space.families[0]
    if fam.coords != 2:
        raise ScenarioError("minors need exactly two coordinates")
    out = []
    for j in range(1, fam.copies + 1):
        for k in range(j + 1, fam.copies + 1):
            out.append(diff_sub(
                monomial_from_factors(
                    [jet_var("x", j, 1, 0), jet_var("x", k, 2, 0)], 1),
                monomial_from_factors(
                    [jet_var("x", j, 2, 0), jet_var("x", k, 1, 0)], 1)))
    return out


def jet_generators(sys, name):
    """Named generator sets for generated_span, as symbol polynomials."""
    if name in (None, "none"):
        return []
    if name == "right_gl_currents":
        m = sys.bosonic[1]
        fam = theta(make_algebra("gl", m), sys, "right")
        return [symbol(st, 2) for st in fam.states]
    if name == "bc_psi_dets":
        gens = [st for _, st in bc_family(sys, "psi").items()]
        gens += bc_family(sys, "D") + bc_family(sys, "Dprime")
        return [symbol(st, 2) for st in gens if not st.is_zero()]
    if name == "mixed_all":
        gens = [st for _, st in mixed_psi_family(sys).items()]
        for which in ("D", "Dprime", "E", "Eprime", "F", "Fprime"):
            gens += bc_family(sys, which)
        return [symbol(st, 2) for st in gens if not st.is_zero()]
    raise ScenarioError(f"unknown generator set {name!r}")


def _dims_by_bidegree(polys):
    out = {}
    for p in polys:
        w, d = diff_bidegree(p)
        out[f"{w},{d}"] = out.get(f"{w},{d}", 0) + 1
    return out


# -- tasks -------------------------------------------------------------------


def _affine_witnesses(rep):
    out = {}
    for name in ("closure_witness", "level_witness", "higher_witness"):
        w = getattr(rep, name)
        if w is not None:
            out[name] = [state_to_text(v) if hasattr(v, "terms") else str(v)
                         for v in w]
    return out


def task_verify_affine(sys, group, opts, bounds):
    fam = build_family(sys, opts.get("family") or group)
    form = opts.get("form", "trace")
    rep = verify_affine(fam, form=form)
    detail = rep.summary()
    detail["family"] = fam.name
    detail.update(_affine_witnesses(rep))
    ok = rep.ok
    expect = opts.get("expect_level")
    if expect is not None:
        detail["expected_level"] = expect
        ok = ok and rep.level is not None and parse_qstr(expect) == rep.level
    return ("pass" if ok else "fail"), detail


def task_commutant_check(sys, group, opts, bounds):
    fam = build_family(sys, opts.get("family") or group)
    results = []
    all_ok = True
    for label, st in expand_candidates(sys, opts.get("candidates")):
        ok, witness = commutant_check(st, fam)
        entry = {"label": label, "ok": ok}
        if not ok:
            xi, n, prod = witness
            entry["witness"] = {
                "current": xi, "n": n, "product": state_to_text(prod)
            }
            all_ok = False
        results.append(entry)
    return ("pass" if all_ok else "fail"), {
        "family": fam.name, "candidates": results
    }


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
                                cap=task_cap(opts, 20000))
    detail = {
        "feasible": rep["feasible"],
        "rank": rep["rank"],
        "unknowns": rep["unknowns"],
        "equations": rep["equations"],
        "modes": list(modes),
        "max_degree": maxdeg,
    }
    if rep.get("correction") is not None:
        detail["correction"] = rep["correction"]
    return ("pass" if not rep["feasible"] else "fail"), detail


def task_jet_compare(sys, group, opts, bounds):
    mode = opts.get("mode", "dims")
    W = opts.get("max_weight", bounds["max_weight"])
    D = opts.get("max_degree", bounds["max_degree"])
    cap = task_cap(opts, 200000)
    if mode == "equivariance":
        return _jet_equivariance(sys, group, opts, bounds)
    if mode == "state_dims":
        fam = build_family(sys, opts.get("family") or group)
        dims = [len(state_invariant_basis(fam, w, D, cap=cap))
                for w in range(0, W + 1)]
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
    space = _space_from_spec(sys, opts.get("space"))
    A = _make_algebra(opts.get("family") or group)
    genname = opts.get("generators")
    if genname == "quadrics":
        gens = _plain_quadrics(space)
    elif genname == "minors":
        gens = _plain_minors(space)
    else:
        gens = jet_generators(sys, genname)
    bad = noninvariant_generator(space, A, gens)
    if bad is not None:
        g, i, r = bad
        return "fail", {"generator_not_invariant": {
            "generator": diff_to_text(g), "current": A.labels[i], "r": r}}
    inv, gen = {}, {}
    for w in range(0, W + 1):
        inv.update(_dims_by_bidegree(invariant_basis(space, A, w, D, cap)))
        gen.update(_dims_by_bidegree(generated_span(gens, w, D, cap)))
    ok = inv == gen
    return ("pass" if ok else "fail"), {
        "invariant_dims": dict(sorted(inv.items())),
        "generated_dims": dict(sorted(gen.items())),
        "equal": ok,
    }


def _jet_equivariance(sys, group, opts, bounds):
    """symbol(theta o_r v, deg v) must equal the jet action of xi t^r on
    symbol(v, deg v) for every basis xi and r."""
    fam = build_family(sys, opts.get("family") or group)
    if fam.side != "left":
        raise ScenarioError("equivariance checks need a left family")
    A = fam.algebra
    space = varspace_for_system(sys)
    rng = random.Random(bounds["seed"])
    samples = opts.get("samples", bounds["samples"])
    actions = [space.action_for(A, idx) for idx in range(A.dim)]
    failures = 0
    witness = None
    for _ in range(samples):
        v = random_monomial(sys, rng, max_len=3, max_depth=2)
        _, _, dv = gradings(v)
        sym_v = symbol(v, dv)
        for idx in range(A.dim):
            for r in range(0, 3):
                lhs = symbol(nth_product(fam.states[idx], v, r), dv)
                rhs = lie_jet_action(actions[idx], r, sym_v)
                if lhs != rhs:
                    failures += 1
                    if witness is None:
                        witness = {
                            "current": A.labels[idx], "r": r,
                            "state": state_to_text(v),
                            "engine": diff_to_text(lhs),
                            "jet": diff_to_text(rhs),
                        }
    detail = {"samples": samples, "failures": failures}
    if witness:
        detail["witness"] = witness
    return ("pass" if failures == 0 else "fail"), detail


def task_zhu_check(sys, group, opts, bounds):
    if not sys.bosonic or sys.fermionic:
        raise ScenarioError("zhu_check needs a purely bosonic system")
    n, m = sys.bosonic
    shape = (n, m)
    indices = tuple(opts.get("indices", range(1, n + 1)))
    DJ = det_family(sys, indices, side="beta")
    dd = classical_dets(shape, indices, primed=True)
    polys = poly_monomials(shape, 3)
    det_ok = True
    det_witness = None
    for q in polys:
        got = zhu_zero_mode(DJ, q)
        want = apply_weyl(dd, q)
        if got != want:
            det_ok = False
            det_witness = {"q": weyl_to_text(q), "got": weyl_to_text(got),
                           "want": weyl_to_text(want)}
            break
    rng = random.Random(bounds["seed"])
    samples = opts.get("samples", bounds["samples"])
    star_failures = 0
    star_witness = None
    for _ in range(samples):
        a = random_monomial(sys, rng, max_len=2, max_depth=1)
        b = random_monomial(sys, rng, max_len=2, max_depth=1)
        star = zhu_star(a, b)
        for q in polys:
            lhs = zhu_zero_mode(star, q)
            rhs = zhu_zero_mode(a, zhu_zero_mode(b, q))
            if lhs != rhs:
                star_failures += 1
                if star_witness is None:
                    star_witness = {"a": state_to_text(a), "b": state_to_text(b),
                                    "q": weyl_to_text(q)}
                break
    detail = {
        "det_matches_classical": det_ok,
        "star_samples": samples,
        "star_failures": star_failures,
    }
    if det_witness:
        detail["det_witness"] = det_witness
    if star_witness:
        detail["star_witness"] = star_witness
    ok = det_ok and star_failures == 0
    return ("pass" if ok else "fail"), detail


def task_quantum_correct(sys, group, opts, bounds):
    if not sys.bosonic or sys.fermionic:
        raise ScenarioError("quantum_correct needs a purely bosonic system")
    n, m = sys.bosonic
    if n != m:
        raise ScenarioError("the determinant relation needs n = m")
    indices = tuple(range(1, n + 1))
    DJ = det_family(sys, indices, side="beta")
    DJp = det_family(sys, indices, side="gamma")
    G = make_algebra("gl", m)
    fam = theta(G, sys, "right")
    gens = [("d", symbol(DJ, n), DJ), ("dp", symbol(DJp, n), DJp)]
    weights = {"d": n, "dp": 0}
    for idx, lab in enumerate(G.labels):
        a, b = lab[2:-1].split(",")
        name = f"q{a}{b}"
        gens.append((name, symbol(fam.states[idx], 2), fam.states[idx]))
        weights[name] = 1

    def var(name):
        return diffalg._abstract_var(name, 0, 0, weights[name])

    p = monomial_from_factors([var("d"), var("dp")], 1)
    for perm in itertools.permutations(range(1, m + 1)):
        factors = [var(f"q{a}{b}") for a, b in zip(range(1, m + 1), perm)]
        axpy(p, monomial_from_factors(factors, -perm_sign(perm)))
    res = quantum_correct(p, gens, sys, cap=task_cap(opts, 20000))
    by_name = {name: st for name, _sym, st in gens}
    reexpanded = wick_expand(res.total, lambda v: by_name[v.family], sys)
    # the relation is quadratic in the generators; its top part is the
    # length-2 slice of the accumulated abstract polynomial
    top = {mono: c for mono, c in res.total.items() if len(mono) == 2}
    ok = (res.status == "ok" and reexpanded.is_zero() and top == p)
    detail = {
        "status": res.status,
        "correction_degrees": [d for d, _ in res.corrections],
        "reexpanded_zero": reexpanded.is_zero(),
        "top_symbol_is_relation": top == p,
    }
    if res.failed_degree is not None:
        detail["failed_degree"] = res.failed_degree
        if res.residual_symbol is not None:
            detail["residual_symbol"] = diff_to_text(res.residual_symbol)
    return ("pass" if ok else "fail"), detail


def task_sugawara_check(sys, group, opts, bounds):
    fam = build_family(sys, opts.get("family") or group)
    k = parse_qstr(str(opts.get("k", "-1")))
    L = sugawara(fam, k)
    h = dual_coxeter(fam.algebra)
    c = k * fam.algebra.dim / (k + h)
    vac = vacuum(sys)
    checks = {
        "L0_is_derivative": nth_product(L, L, 0).sub(derivative(L)).is_zero(),
        "L1_is_2L": nth_product(L, L, 1).sub(L.scale(2)).is_zero(),
        "L2_vanishes": nth_product(L, L, 2).is_zero(),
        "L3_is_half_c": nth_product(L, L, 3).sub(vac.scale(c / 2)).is_zero(),
    }
    primary = True
    for lab, th in fam.items():
        if not (nth_product(L, th, 1).sub(th).is_zero()
                and nth_product(L, th, 2).is_zero()
                and nth_product(L, th, 0).sub(derivative(th)).is_zero()):
            primary = False
            break
    checks["currents_primary_weight_one"] = primary
    ok = all(checks.values())
    detail = dict(checks)
    detail["central_charge"] = qstr(c)
    detail["k"] = qstr(k)
    return ("pass" if ok else "fail"), detail


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
    results = []
    for idx, t in enumerate(resolved["tasks"]):
        fn = TASK_FUNCTIONS[t["task"]]
        started = time.perf_counter()
        try:
            status, detail = fn(sys_obj, resolved["group"], t,
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

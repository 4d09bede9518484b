"""Benchmark of the freefield verifier over its bundled scenario corpus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each pass is one fresh
interpreter (`worker.py`) that imports freefield, reads and validates the
workload's scenarios, and runs them one after another through
`harness.run_scenario` and `harness.report_to_json`, as `freefield verify`
does.  A fresh process per pass starts the per-system `_nth_mono` caches
cold, as a CLI call does, and gives each pass its own peak RSS.  Passes
run back to back while one more, as long as the last, still ends within
S seconds of the start.

`wall_s`, `cpu_s`, `setup_s` and the per-layer timings are scaled to a
fixed host speed by the worker's `SteadyClock`: a shared host runs the
same pass up to 1.8x slower for minutes at a time, which no statistic
over one run removes.  The unscaled end-to-end medians are printed below
the scaled ones.

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
runs untraced and traced passes (at least two traced) and reports the
per-layer metrics of `layers.Tracer` and the tracing overhead.

Every report is checked against the sha256 recorded in `digests.json`
for its scenario seed, which is `N % SEED_SPACE`.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it give every metric with its
quartiles and sample count, and the run metadata.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCENARIO_DIR = os.path.join(ROOT, "src", "freefield", "scenarios")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

# scenario seeds 0 .. SEED_SPACE-1 have recorded digests
SEED_SPACE = 16
# set-up-only interpreters started before the first untraced pass and
# after the last, after one warm-up
SETUP_BATCH = 3
# a run must end within 180 s: a pass still running this long after the
# start is killed and the run fails
RUN_LIMIT_S = 170

# Each scenario of the corpus belongs to exactly one workload.
WORKLOADS = {
    # The jet side does nearly all the work: invariant_basis with its
    # lie_jet_action calls, and nullspace over thousands of mostly
    # redundant rows.  The Fock engine does little here.
    "arc_space": ("thm_3_3_sl2_m4", "thm_3_3_so3", "thm_4_1_n3_m2",
                  "thm_7_3_m2", "thm_7_4_r1_s1", "thm_7_4_r2_s1"),
    # Circle products (nth_product, _nth_mono) and Weyl zero modes; almost
    # no elimination.  Control for jet and linalg changes, and the largest
    # share of per-scenario fixed cost.
    "engine": ("affine_sl2_e_m1", "affine_sl2_e_m2", "affine_sl2_e_m3",
               "affine_sl2_s_m1", "affine_sl2_s_m2", "affine_sl2_s_m3",
               "engine_properties", "sec4_identity_n2", "sec4_identity_n3",
               "sugawara_sl2", "thm_4_2_n2_m2", "thm_5_1_so3_m1",
               "thm_5_1_so3_m2", "thm_6_1_sp4_m1", "thm_6_1_sp4_m2",
               "zhu_n2_m2"),
    # State-side invariants and lift searches: a full sweep of circle
    # products per column, so the _nth_mono cache reaches its largest
    # working set, and elimination of rows built from them (solve_affine).
    "state_side": ("thm_4_3_n3_m1", "thm_4_3_n2_m1",
                   "sec5_so4_counterexample"),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "task_pass_ratio": "ratio",
}

PER_LAYER = dict(layers.METRICS, **{
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(names, seed, deadline, *flags):
    """Run one worker and return its JSON output, with the seconds the
    process took as `elapsed_s`."""
    started = _now()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--seed", str(seed), *flags, *names],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {RUN_LIMIT_S} s")
    finally:
        # also on SIGTERM and ^C: no worker outlives the run
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()}")
    return dict(json.loads(out), elapsed_s=_now() - started)


def quartiles(values):
    """(first quartile, median, third quartile) of the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def failed_tasks(result, expected):
    """(attempted, failed task labels) of one pass.  A scenario whose
    report bytes differ from the recorded digest fails all its tasks."""
    attempted, failed = 0, []
    for sc in result["scenarios"]:
        attempted += len(sc["statuses"])
        digest_ok = expected.get(sc["name"]) == sc["sha256"]
        for idx, status in enumerate(sc["statuses"]):
            if status != "pass" or not digest_ok:
                reason = status if status != "pass" else "digest mismatch"
                failed.append(f"{sc['name']}[{idx}] {reason}")
    return attempted, failed


def git_commit():
    # never look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_digests(scenario_seed):
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    return recorded[str(scenario_seed)]


def fits(start, seconds, need):
    """Whether work expected to take `need` seconds ends within the run."""
    return _now() - start + need <= seconds


def run_untraced(names, seed, seconds, start, deadline):
    """Passes back to back while one as long as the last still fits, with
    set-up-only workers before the first and after the last.  Returns the
    passes and every worker that timed a set-up."""
    spawn(names, seed, deadline, "--setup-only")  # warm-up: bytecode, file cache
    setups = [spawn(names, seed, deadline, "--setup-only")
              for _ in range(SETUP_BATCH)]
    passes = [spawn(names, seed, deadline)]
    while fits(start, seconds, passes[-1]["elapsed_s"]):
        passes.append(spawn(names, seed, deadline))
    setups += [spawn(names, seed, deadline, "--setup-only")
               for _ in range(SETUP_BATCH)]
    return passes, setups + passes


def run_traced(names, seed, seconds, start, deadline):
    """One untraced and two traced passes, then an untraced and a traced
    pass in turn while such a pair still fits."""
    untraced = [spawn(names, seed, deadline)]
    traced = [spawn(names, seed, deadline, "--trace") for _ in range(2)]
    while fits(start, seconds,
               untraced[-1]["elapsed_s"] + traced[-1]["elapsed_s"]):
        untraced.append(spawn(names, seed, deadline))
        traced.append(spawn(names, seed, deadline, "--trace"))
    return untraced, traced


def trace_problems(untraced, traced):
    """Counts that differ between traced passes, and reports that differ
    between traced and untraced passes."""
    problems = []
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, unit in layers.METRICS.items():
            if unit != "s" and other["layers"][name] != first[name]:
                problems.append(f"count {name} differs between traced passes:"
                                f" {first[name]} != {other['layers'][name]}")
    plain = {sc["name"]: sc["sha256"] for sc in untraced[0]["scenarios"]}
    for result in untraced[1:] + traced:
        for sc in result["scenarios"]:
            if plain[sc["name"]] != sc["sha256"]:
                problems.append(f"tracing changed the report of {sc['name']}")
    return problems


def print_table(title, rows):
    print(title)
    print(f"  {'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s}"
          f" {'n':>3s}  unit")
    for name, values, unit in rows:
        q1, med, q3 = quartiles(values)
        print(f"  {name:44s} {med:14.6g} {q1:14.6g} {q3:14.6g}"
              f" {len(values):3d}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    start = _now()
    deadline = start + RUN_LIMIT_S
    if not os.path.isdir(SCENARIO_DIR):
        print(f"no scenario corpus at {SCENARIO_DIR}", file=sys.stderr)
        return 2
    names = WORKLOADS[args.workload]
    scenario_seed = args.seed % SEED_SPACE
    expected = load_digests(scenario_seed)

    try:
        if args.trace:
            untraced, traced = run_traced(names, scenario_seed, args.seconds,
                                          start, deadline)
            passes = untraced + traced
        else:
            passes, setup_runs = run_untraced(names, scenario_seed,
                                              args.seconds, start, deadline)
            setups = [r["setup_s"] for r in setup_runs]
            raw_setups = [r["raw_setup_s"] for r in setup_runs]
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1

    attempted, failed = 0, []
    for result in passes:
        n, bad = failed_tasks(result, expected)
        attempted += n
        failed += bad
    problems = trace_problems(untraced, traced) if args.trace else []

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": scenario_seed,
        "trace": args.trace,
        "python": sorted({r["python"] for r in passes}),
        "qq_backend": sorted({r["qq"] for r in passes}),
        "nproc": os.cpu_count(),
        "FREEFIELD_CAP": os.environ.get("FREEFIELD_CAP"),
        "FREEFIELD_CACHE_CAP": os.environ.get("FREEFIELD_CACHE_CAP"),
        "commit": git_commit(),
        "passes": len(passes),
    }
    print("run metadata: " + json.dumps(meta, sort_keys=True))

    if args.trace:
        walls = [r["wall_s"] for r in traced]
        series = {}
        for name, unit in layers.METRICS.items():
            series[name] = ([r["layers"][name] for r in traced] if unit == "s"
                            else [traced[0]["layers"][name]])
        plain = statistics.median(r["wall_s"] for r in untraced)
        series["trace.wall_s"] = walls
        series["trace.overhead_s"] = [statistics.median(walls) - plain]
        units = PER_LAYER
        print(f"wall_s median: untraced {plain:.6g} s ({len(untraced)} passes),"
              f" traced {statistics.median(walls):.6g} s ({len(walls)} passes);"
              f" tracing overhead {series['trace.overhead_s'][0]:.6g} s")
        print_table("per-layer metrics (traced passes)",
                    [(k, v, units[k]) for k, v in series.items()])
    else:
        series = {
            "wall_s": [r["wall_s"] for r in passes],
            "cpu_s": [r["cpu_s"] for r in passes],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
            "task_pass_ratio": [(attempted - len(failed)) / attempted],
        }
        units = END_TO_END
        print_table("end-to-end metrics (untraced passes)",
                    [(k, v, units[k]) for k, v in series.items()])
        print_table("unscaled, for reference (not metrics)", [
            ("raw_wall_s", [r["raw_wall_s"] for r in passes], "s"),
            ("raw_cpu_s", [r["raw_cpu_s"] for r in passes], "s"),
            ("raw_setup_s", raw_setups, "s"),
        ])
        print(f"  task_fail_ratio {len(failed) / attempted:.6g}"
              f" ({len(failed)} of {attempted} tasks)")

    for line in failed + problems:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": statistics.median(values),
                           "unit": units[name]}
                    for name, values in series.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Checks on the benchmark's own definition and its traced run."""

import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def test_every_scenario_in_exactly_one_workload():
    corpus = sorted(os.path.basename(p)[:-len(".json")] for p in
                    glob.glob(os.path.join(run.SCENARIO_DIR, "*.json")))
    assigned = sorted(n for names in run.WORKLOADS.values() for n in names)
    assert assigned == corpus


def test_digests_recorded_for_every_scenario_and_seed():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    names = sorted(n for names in run.WORKLOADS.values() for n in names)
    assert sorted(recorded, key=int) == [str(s) for s in range(run.SEED_SPACE)]
    for digests in recorded.values():
        assert sorted(digests) == names


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_run_repeats_counts_and_keeps_reports():
    # --trace 1 runs two traced passes and one untraced pass; it fails the
    # run when a count differs between the traced passes or tracing changes
    # a report byte
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "engine",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["fock.nth_product.calls"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "engine",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_steady_clock_leaves_samples_out_and_restores_the_handler():
    import signal
    import time
    import worker

    before = signal.getsignal(signal.SIGALRM)
    clock = worker.SteadyClock()
    clock.start()
    w0 = time.perf_counter()
    spans = []
    while time.perf_counter() - w0 < 0.45:
        spans.append(clock.now())
    clock.stop()
    elapsed = time.perf_counter() - w0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a sample after every 0.1 s of timed code; the loop's 0.45 s include
    # the samples' time, the clock's total does not
    assert clock.samples >= 3
    assert 0.3 < clock.raw_wall < elapsed
    assert clock.wall > 0 and clock.cpu > 0
    assert spans[-1] <= clock.wall

"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --seed N [--trace] [--setup-only] NAME...

Imports freefield from the `src/` next to this directory, reads the named
scenario files and validates each with `harness.resolve_scenario`: the
set-up, timed from just before the import, so the interpreter's own start
(site-packages, the benchmark's imports) is left out.  Then it runs them
one after another through `harness.run_scenario` and
`harness.report_to_json`, the path `freefield verify` takes.  Prints one
JSON object: the set-up seconds, the pass's wall and CPU seconds, the
process's peak RSS, and each scenario's task statuses and report sha256.

Set-up and pass are timed by a `SteadyClock`, which scales them to a
fixed host speed; the unscaled times are reported as well.  With --trace
the layers are wrapped by `layers.Tracer` after set-up, timed by the same
clock, and their metrics are added.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCENARIO_DIR = os.path.join(SRC, "freefield", "scenarios")

# The reference computation the host's speed is sampled with: rational
# arithmetic and dict updates, the mix freefield spends its time in.
_REFERENCE_TERMS = [(Fraction(i, i + 1), (i % 7, i % 5)) for i in range(1, 200)]
# Seconds the reference computation takes at the speed scaled times are
# given in: its time on an idle 2.1 GHz Xeon vCPU under CPython 3.11.
REFERENCE_S = 0.0007
# Seconds of the timed code between two speed samples
SAMPLE_INTERVAL_S = 0.1


def _reference():
    total, seen = Fraction(0), {}
    for q, key in _REFERENCE_TERMS:
        total += q * q
        seen[key] = seen.get(key, 0) + 1
    return total


def _sample():
    """Wall and CPU seconds of one reference computation, each the median
    of three, with the collector off so it does not sweep freefield's
    objects inside the sample."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        walls, cpus = [], []
        for _ in range(3):
            w0, c0 = time.perf_counter(), time.process_time()
            _reference()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(walls), statistics.median(cpus)


class SteadyClock:
    """Wall and CPU seconds of the code between `start` and `stop`, scaled
    to the host speed at which the reference computation takes REFERENCE_S.

    On a shared host the same pass runs up to 1.8x slower for stretches of
    a fraction of a second to minutes, in CPU time as much as in wall
    time.  So every SAMPLE_INTERVAL_S a SIGALRM handler times the reference
    computation, and the stretch up to the next sample is scaled by
    REFERENCE_S over that time.  A change to freefield moves the scaled
    times as much as the unscaled ones; a change in the host's speed moves
    only the unscaled ones.  The samples' own time is left out of both.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0          # scaled
        self.raw_wall = self.raw_cpu = 0.0  # unscaled
        self.samples = 0
        # at the start of the current stretch: (scaled wall, perf_counter,
        # wall scale), one tuple so `now` never mixes two stretches, and
        # (process_time, cpu scale)
        self._origin = self._cpu_origin = self._previous = None
        self._running = False

    def now(self):
        """Scaled wall seconds since `start`, for timing spans inside the
        timed code; the samples' time is left out."""
        wall, mark, scale = self._origin
        return wall + (time.perf_counter() - mark) * scale

    def _rescale(self):
        """Take a sample and open the next stretch."""
        wall_scale, cpu_scale = (REFERENCE_S / t for t in _sample())
        self._cpu_origin = time.process_time(), cpu_scale
        self._origin = self.wall, time.perf_counter(), wall_scale

    def _stretch_end(self):
        w1, c1 = time.perf_counter(), time.process_time()
        _, w0, wall_scale = self._origin
        c0, cpu_scale = self._cpu_origin
        self.raw_wall += w1 - w0
        self.raw_cpu += c1 - c0
        self.wall += (w1 - w0) * wall_scale
        self.cpu += (c1 - c0) * cpu_scale

    def _on_alarm(self, signum, frame):
        # an alarm still pending when `stop` runs must not re-arm the timer
        if not self._running:
            return
        self._stretch_end()
        self.samples += 1
        self._rescale()
        # one-shot, re-armed after the sample, so handlers never overlap
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def start(self):
        _reference()  # warm-up
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._rescale()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._stretch_end()
        signal.signal(signal.SIGALRM, self._previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("names", nargs="+")
    args = parser.parse_args(argv)

    setup = SteadyClock()
    setup.start()
    sys.path.insert(0, SRC)
    import freefield
    from freefield import harness, rationals
    if not os.path.abspath(freefield.__file__).startswith(SRC + os.sep):
        print(f"freefield imported from {freefield.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    raws = []
    for name in args.names:
        with open(os.path.join(SCENARIO_DIR, name + ".json"),
                  encoding="utf-8") as fh:
            raw = json.load(fh)
        # the same override as `freefield verify --seed`
        raw["bounds"] = dict(raw.get("bounds") or {}, seed=args.seed)
        harness.resolve_scenario(raw)
        raws.append((name, raw))
    setup.stop()
    out = {
        "setup_s": setup.wall,
        "raw_setup_s": setup.raw_wall,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "qq": f"{rationals.QQ.__module__}.{rationals.QQ.__name__}",
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    clock = SteadyClock()
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer(clock.now)
        tracer.install()

    reports = []
    clock.start()
    for name, raw in raws:
        report = harness.run_scenario(raw)
        reports.append((name, harness.report_to_json(report),
                        [t["status"] for t in report["tasks"]]))
    clock.stop()
    out.update(wall_s=clock.wall, cpu_s=clock.cpu,
               raw_wall_s=clock.raw_wall, raw_cpu_s=clock.raw_cpu,
               speed_samples=clock.samples)
    # ru_maxrss is in KiB on Linux; reported in MiB
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["scenarios"] = [
        {"name": name,
         "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
         "statuses": statuses}
        for name, text, statuses in reports
    ]
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

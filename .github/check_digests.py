"""Check bundled scenario reports against perfbench/digests.json.

From the repo root:

    PYTHONPATH=src python .github/check_digests.py
    PYTHONPATH=src python -O .github/check_digests.py --optimized 0
    PYTHONPATH=src python .github/check_digests.py --cli 0

Every recorded scenario runs at each given seed (all recorded seeds when
none is given) with that seed as `bounds.seed`, and the sha256 of its
report JSON is compared with the recorded digest.  --optimized first
checks that asserts are off, so the run proves the reports hold under
`python -O`.  --cli runs each scenario through `python -m freefield.cli
verify <file> --seed <seed>` in a subprocess instead, and checks its exit
code as well as the digest of its stdout.  Prints one line per report
that differs and exits 1 when any does.
"""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

from freefield.harness import report_to_json, run_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", help="seeds to check")
    parser.add_argument("--optimized", action="store_true",
                        help="fail unless asserts are off (python -O)")
    parser.add_argument("--cli", action="store_true",
                        help="run each scenario through the verify command")
    args = parser.parse_args()
    if args.optimized:
        try:
            assert False
        except AssertionError:
            sys.exit("asserts are on: --optimized must run under python -O")
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    seeds = args.seeds or sorted(recorded, key=int)
    scenarios = ROOT / "src" / "freefield" / "scenarios"
    bad = []
    for seed in seeds:
        for name, want in sorted(recorded[seed].items()):
            path = scenarios / f"{name}.json"
            if args.cli:
                run = subprocess.run(
                    [sys.executable, "-m", "freefield.cli", "verify",
                     str(path), "--seed", str(seed)], capture_output=True)
                if run.returncode:
                    bad.append((seed, name, f"exits {run.returncode}"))
                    continue
                text = run.stdout
            else:
                raw = json.loads(path.read_text())
                raw["bounds"] = dict(raw.get("bounds") or {}, seed=int(seed))
                text = report_to_json(run_scenario(raw)).encode("utf-8")
            if hashlib.sha256(text).hexdigest() != want:
                bad.append((seed, name, "differs from its recorded digest"))
    mode = (" under -O" if args.optimized
            else " through the CLI" if args.cli else "")
    total = sum(len(recorded[seed]) for seed in seeds)
    print(f"{total} reports{mode}, {len(bad)} differ")
    for seed, name, why in bad:
        print(f"seed {seed}: {name} {why}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

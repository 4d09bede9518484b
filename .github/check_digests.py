"""Check bundled scenario reports against perfbench/digests.json.

From the repo root:

    PYTHONPATH=src python .github/check_digests.py
    PYTHONPATH=src python -O .github/check_digests.py --optimized 0

Every recorded scenario runs at each given seed (all recorded seeds when
none is given) with that seed as `bounds.seed`, and the sha256 of its
report JSON is compared with the recorded digest.  --optimized first
checks that asserts are off, so the run proves the reports hold under
`python -O`.  Prints one line per report that differs and exits 1 when
any does.
"""

import argparse
import hashlib
import json
import pathlib
import sys

from freefield.harness import report_to_json, run_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", help="seeds to check")
    parser.add_argument("--optimized", action="store_true",
                        help="fail unless asserts are off (python -O)")
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
            raw = json.loads((scenarios / f"{name}.json").read_text())
            raw["bounds"] = dict(raw.get("bounds") or {}, seed=int(seed))
            text = report_to_json(run_scenario(raw))
            if hashlib.sha256(text.encode("utf-8")).hexdigest() != want:
                bad.append((seed, name))
    mode = " under -O" if args.optimized else ""
    total = sum(len(recorded[seed]) for seed in seeds)
    print(f"{total} reports{mode}, {len(bad)} differ")
    for seed, name in bad:
        print(f"seed {seed}: {name} differs from its recorded digest")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the sha256 of every scenario's report for each scenario seed.

    python3 perfbench/record_digests.py

Runs the whole corpus once per seed in 0 .. SEED_SPACE-1, refuses to
record while any task does not pass, and writes `digests.json`.  Run it
only when a change is meant to alter report bytes, and say so in the
change.
"""

import json
import sys
import time

from run import DIGESTS, SEED_SPACE, WORKLOADS, spawn


def main() -> int:
    names = sorted(n for names in WORKLOADS.values() for n in names)
    recorded = {}
    for seed in range(SEED_SPACE):
        result = spawn(names, seed, time.clock_gettime(
            time.CLOCK_MONOTONIC) + 600)
        bad = [sc["name"] for sc in result["scenarios"]
               if any(s != "pass" for s in sc["statuses"])]
        if bad:
            print(f"seed {seed}: tasks do not pass in {bad}", file=sys.stderr)
            return 1
        recorded[str(seed)] = {sc["name"]: sc["sha256"]
                               for sc in result["scenarios"]}
        print(f"seed {seed}: {len(names)} scenarios, {result['wall_s']:.1f} s")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line entry point: `freefield verify <scenario.json>`."""

import argparse
import json
import sys

from .harness import ScenarioError, report_to_json, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="freefield",
        description="Exact free-field vertex superalgebra verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ver = sub.add_parser("verify", help="run the tasks of a scenario file")
    ver.add_argument("scenario", help="path to a scenario JSON file")
    ver.add_argument("--report", help="write the report JSON to this path")
    ver.add_argument("--max-weight", type=int, help="override bounds.max_weight")
    ver.add_argument("--max-degree", type=int, help="override bounds.max_degree")
    ver.add_argument("--seed", type=int, help="override bounds.seed")
    ver.add_argument("--timings", action="store_true",
                     help="include per-task wall times (breaks byte-for-byte "
                          "report reproducibility)")
    args = parser.parse_args(argv)

    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"configuration error: cannot read scenario: {e}",
              file=sys.stderr)
        return 2
    overrides = {key: val for key, val in (("max_weight", args.max_weight),
                                           ("max_degree", args.max_degree),
                                           ("seed", args.seed))
                 if val is not None}
    # a scenario or bounds that is not an object goes on unchanged, for
    # resolve_scenario to reject
    bounds = (raw.get("bounds") or {}) if isinstance(raw, dict) else None
    if overrides and isinstance(bounds, dict):
        raw = dict(raw, bounds={**bounds, **overrides})

    try:
        report = run_scenario(raw, timings=args.timings)
    except ScenarioError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2

    text = report_to_json(report)
    out_path = args.report or report["scenario"].get("output")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for t in report["tasks"]:
        print(f"[{t['index']}] {t['task']}: {t['status'].upper()}",
              file=sys.stderr)
    return 0 if report["all_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

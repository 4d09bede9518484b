import re

from freefield.fock import State
from freefield.rationals import QQ

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict = {}
    for key in ("failed", "error", "skipped", "passed"):
        for rep in terminalreporter.stats.get(key, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = int(m.group(1))
            if key == "passed":
                results.setdefault(num, True)
            else:
                results[num] = False
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        verdict = "PASS" if results[num] else "FAIL"
        terminalreporter.write_line(f"[criterion {num}] {verdict}")


def generator_state(sys, family, copy, coord):
    return State(sys, {((sys.gen(family, copy, coord).index, -1),): QQ(1)})

#!/usr/bin/env python3
"""Time a pytest run and write its wall time, outcome counts and per-test durations as JSON.

    PYTHONPATH=src python3 scripts/tier1_timing.py OUT.json [pytest args]

Runs pytest in this process (the arguments after OUT.json are passed to it
unchanged; with none, pytest runs the configured ``testpaths``) with a small
plugin, then writes OUT.json:

    {"wall_s": ..., "exit_code": ..., "outcomes": {"passed": ..., ...},
     "tests": {"<node id>": {"outcome": "passed", "duration_s": ...}, ...}}

``outcomes`` counts what pytest's summary line counts (passed, failed,
error, skipped, deselected, ...).  A test's ``duration_s`` is the sum of
its setup, call and teardown phases, and its ``outcome`` is the category
pytest reports it under.  Run it on two checkouts to report tier-1 before
and after a change.  Exits with pytest's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest


class Timing:
    """Sums each test's phase durations and reads the outcome counts off the terminal reporter."""

    def __init__(self) -> None:
        self.tests: dict[str, dict] = {}
        self.outcomes: dict[str, int] = {}

    def pytest_runtest_logreport(self, report) -> None:
        entry = self.tests.setdefault(report.nodeid, {"outcome": None, "duration_s": 0.0})
        entry["duration_s"] += report.duration

    def pytest_terminal_summary(self, terminalreporter) -> None:
        for category, reports in terminalreporter.stats.items():
            if not category or category == "warnings":
                continue
            self.outcomes[category] = sum(getattr(r, "count_towards_summary", True) for r in reports)
            for r in reports:
                if getattr(r, "nodeid", None) in self.tests and getattr(r, "when", None):
                    self.tests[r.nodeid]["outcome"] = category


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out, args = Path(argv[0]), argv[1:]
    timing = Timing()
    start = time.perf_counter()
    code = int(pytest.main(args, plugins=[timing]))
    wall = time.perf_counter() - start
    doc = {"wall_s": round(wall, 3), "exit_code": code, "outcomes": timing.outcomes, "tests": timing.tests}
    for entry in timing.tests.values():
        entry["duration_s"] = round(entry["duration_s"], 4)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

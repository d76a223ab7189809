#!/usr/bin/env python3
"""Run every verification suite at the default bounds and write the JSON
reports into reports/.

Exit status 0 when all suites pass, 2 when any suite found a
counterexample.
"""

import pathlib
import sys

from quivalg.verify import SUITES, run_suites


def main():
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "reports"
    out_dir.mkdir(exist_ok=True)
    all_passed = True
    for report in run_suites(SUITES):
        path = out_dir / f"{report.suite}.json"
        report.write(str(path))
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.suite:14s} {len(report.counterexamples)} counterexamples "
              f"{report.wall_time_seconds:7.1f}s  -> {path}")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 2


if __name__ == "__main__":
    sys.exit(main())

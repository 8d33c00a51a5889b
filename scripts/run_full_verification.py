#!/usr/bin/env python3
"""Sweep the complete duality check suite over S_1 .. S_n.

Prints one summary row per symmetric group: permutations checked, pass
count, wall time, and the aggregated observation counters (non-minimal
transversals encountered during dualization, how many of those were
reduced pipe dreams, and antidiagonal family members reaching below the
staircase).  Runs every group, even after a failing check, and exits 1
if any check failed.

Usage:
    python scripts/run_full_verification.py --max-n 6 --budget 600 --jobs 2
"""

import argparse
import sys
import time

from pipedual.cli import _budget_seconds, _job_count, _positive_int
from pipedual.verification import ends_sweep, iter_verify

STATS = (
    "nonminimal_transversals_seen",
    "reduced_nonminimal_transversals",
    "antidiagonals_off_staircase",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=_positive_int, default=6)
    parser.add_argument("--budget", type=_budget_seconds, default=600.0,
                        help="per-group time budget in seconds")
    parser.add_argument("--jobs", type=_job_count, default=1)
    args = parser.parse_args()

    header = (
        f"{'n':>2}  {'checked':>7}  {'passed':>6}  {'time':>8}  "
        f"{'nonmin':>6}  {'reduced-nonmin':>14}  {'off-staircase':>13}"
    )
    print(header)
    print("-" * len(header))
    failures = 0
    for n in range(1, args.max_n + 1):
        # counts are summed as reports arrive; no report is kept
        start = time.monotonic()
        checked = passed = 0
        totals = dict.fromkeys(STATS, 0)
        for report in iter_verify(n, budget_seconds=args.budget, jobs=args.jobs):
            checked += 1
            passed += report.passed
            for name in STATS:
                totals[name] += report.stats.get(name, 0)
            if not report.passed:
                print(
                    f"   FAIL {report.permutation}: "
                    f"{', '.join(report.failed_checks())}",
                    file=sys.stderr,
                )
        elapsed = time.monotonic() - start
        nonmin, reduced_nonmin, off_staircase = totals.values()
        complete = checked and ends_sweep(report)
        note = "" if complete else " (budget exhausted)"
        print(
            f"{n:>2}  {checked:>7}  {passed:>6}  "
            f"{elapsed:>7.1f}s  {nonmin:>6}  {reduced_nonmin:>14}  "
            f"{off_staircase:>13}{note}"
        )
        failures += checked - passed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every request of the full workload grids once and report the failures.

    python3 perfbench/known_failures.py      # about two minutes on one core

Each workload's timed grid is its full grid minus ``KNOWN_FAILURES``.  This
script re-runs the full grids (and the whole verify seed pool) with the same
checker as run.py, prints each failing request with its reason and each
workload's failed share of the full grid, and flags any difference from
``KNOWN_FAILURES``: a listed request that now passes, or a new failure.
Exit code 1 when there is a difference.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import common

common.pin_threads()

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    common.use_source_tree()
    references = check.load_references()
    found = {}
    totals = defaultdict(int)
    for workload in workloads.WORKLOADS:
        for req in workloads.full_grid_requests(workload):
            totals[workload] += 1
            failure = check.check_reply(req, *common.call_cli(req.argv), references)
            if failure:
                key = (workload, req.f, req.p, req.n, req.alpha)
                found[key] = f"{failure[0]}: {failure[1]}"
                print(f"FAIL {key}: {found[key]}", flush=True)
    print()
    for workload in workloads.WORKLOADS:
        bad = sum(1 for k in found if k[0] == workload)
        print(f"{workload}: {bad} of {totals[workload]} full-grid requests fail "
              f"(failed_frac {bad / totals[workload]:.3f})")
    listed = set(workloads.KNOWN_FAILURES)
    changed = False
    for key in sorted(listed - set(found), key=str):
        print(f"NOW PASSES {key}")
        changed = True
    for key in sorted(set(found) - listed, key=str):
        print(f"NEW FAILURE {key}: {found[key]}")
        changed = True
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

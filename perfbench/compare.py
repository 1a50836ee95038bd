"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<k>-trace<t>.json`` files that
run.py writes to ``.perfbench_out/``.  Runs of the two sets are paired by
seed.  Each row gives both medians and quartiles, the metric's bound from
BENCHMARK.json, and a verdict:

* ``better``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than the
  bound (per-layer metrics have no bound and use the rule for ``better``
  in the other direction);
* ``unresolved``: the parent's own spread is wider than the bound, and not
  every run of the change reads better than every run of the parent;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import sys
from collections import defaultdict

import common

_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")


def load(directory: str) -> dict:
    """{(workload, metric): {seed: value}} plus failed counts per workload."""
    values = defaultdict(dict)
    failed = defaultdict(int)
    for path in glob.glob(os.path.join(directory, "*.json")):
        m = _NAME.search(os.path.basename(path))
        if not m:
            continue
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)["result"]
        failed[m["workload"]] += result["failed"]
        for metric, entry in result["metrics"].items():
            values[(m["workload"], metric)][int(m["seed"])] = entry["value"]
    return {"values": values, "failed": failed}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(old: dict, new: dict, bound: float | None, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    q1a, ma, q3a = quartiles(list(old.values()))
    _, mb, _ = quartiles(list(new.values()))
    seeds = sorted(set(old) & set(new))
    if seeds:
        pairs = [(old[s], new[s]) for s in seeds]
    else:
        pairs = list(zip(sorted(old.values()), sorted(new.values())))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gap = abs(mb - ma) > (q3a - q1a)
    if wins >= 0.9 * len(pairs) and gap and sign * (ma - mb) > 0:
        return "better"
    if bound is None:
        return "worse" if losses >= 0.9 * len(pairs) and gap else "unchanged"
    if sign * (mb - ma) > bound * abs(ma):
        return "worse"
    all_better = all(sign * (a - b) > 0 for a in old.values() for b in new.values())
    if (q3a - q1a) > bound * abs(ma) and not all_better:
        return "unresolved"
    return "unchanged"


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load(argv[0]), load(argv[1])
    print(f"{'workload':15s} {'metric':42s} {'unit':9s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'bound':>6s}  verdict")
    for key in sorted(set(old["values"]) & set(new["values"])):
        workload, metric = key
        info = meta.get(metric, {"unit": "?", "better": "lower"})
        a, b = old["values"][key], new["values"][key]
        cells = [_cell(quartiles(list(v.values()))) for v in (a, b)]
        bound = info.get("bound")
        print(f"{workload:15s} {metric:42s} {info['unit']:9s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{'-' if bound is None else bound:>6}  "
              f"{verdict(a, b, bound, info['better'] == 'lower')}")
    for workload in sorted(set(old["failed"]) | set(new["failed"])):
        print(f"{workload}: failed requests {old['failed'][workload]} (parent) "
              f"vs {new['failed'][workload]} (change)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

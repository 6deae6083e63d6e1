"""Compare two sets of pipeline-ledger runs, metric by metric.

Usage::

    python3 benchmarks/pipeline/compare.py A B

``A`` (the parent) and ``B`` (the change) are files written by
``run.py --out`` or directories of them; a side's runs are pooled per
workload.  Each workload gets its own rows.  For every metric the
script prints both medians with their quartiles, B's change in percent
and a verdict against the bound in ``BENCHMARK.json``:

* ``worse`` / ``improved``: the median moved by more than the bound;
* ``unchanged``: it moved by no more than the bound;
* ``unresolved``: a side's spread (quartile distance over median) is
  wider than the bound, unless every run of B reads better than every
  run of A, which is ``improved``.

``fail_rate`` (failed / attempted) is compared with a bound of 0.
Per-layer metrics, from ``--trace 1`` runs, have no bound and get no
verdict.  Exit status 1 when any end-to-end verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
from collections import defaultdict
from typing import Dict, List

import benchstats


def load_runs(path: str) -> List[Dict]:
    if os.path.isdir(path):
        names = sorted(name for name in glob.glob(os.path.join(path, "*.json"))
                       if not name.endswith(".trace.json"))
    else:
        names = [path]
    runs: List[Dict] = []
    for name in names:
        with open(name) as handle:
            runs += json.load(handle)["runs"]
    return runs


def samples(runs: List[Dict], trace: int) -> Dict[str, Dict[str, list]]:
    """workload -> metric -> one value per run."""
    table: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        if run["trace"] != trace:
            continue
        values = table[run["workload"]]
        for name, metric in run["metrics"].items():
            values[name].append(metric["value"])
        if not trace:
            values["fail_rate"].append(run["failed"] / run["attempted"])
    return table


def verdict(a: list, b: list, better: str, bound: float) -> str:
    median_a, median_b = benchstats.quartiles(a)[1], benchstats.quartiles(b)[1]
    sign = 1 if better == "lower" else -1
    if max(benchstats.spread(a), benchstats.spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved"
        return "unresolved"
    worse_by = sign * change(median_a, median_b)
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "improved"
    return "unchanged"


def change(before: float, after: float) -> float:
    if before:
        return (after - before) / abs(before)
    return 0.0 if after == before else math.copysign(math.inf, after)


def describe(values: list) -> str:
    q1, median, q3 = benchstats.quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(a_runs: List[Dict], b_runs: List[Dict], spec: Dict) -> List[List]:
    """Rows of ``[workload, metric, A, B, change, bound, verdict]``."""
    end_to_end = [(m["name"], m["better"], m["bound"])
                  for m in spec["end_to_end"]] + [("fail_rate", "lower", 0.0)]
    per_layer = [(m["name"], m["better"], None) for m in spec["per_layer"]]
    rows = []
    for trace, metrics in ((0, end_to_end), (1, per_layer)):
        a_table, b_table = samples(a_runs, trace), samples(b_runs, trace)
        for workload in [w["name"] for w in spec["workloads"]]:
            a, b = a_table.get(workload, {}), b_table.get(workload, {})
            for name, better, bound in metrics:
                if not a.get(name) or not b.get(name):
                    continue
                delta = change(benchstats.quartiles(a[name])[1],
                               benchstats.quartiles(b[name])[1])
                rows.append([
                    workload, name, describe(a[name]), describe(b[name]),
                    f"{100 * delta:+.2f}%",
                    "-" if bound is None else f"{100 * bound:g}%",
                    "-" if bound is None else
                    verdict(a[name], b[name], better, bound)])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of pipeline-ledger runs.")
    parser.add_argument("a", help="parent runs: a run.py --out file or a "
                                  "directory of them")
    parser.add_argument("b", help="changed runs, same form")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.a), load_runs(args.b),
                   benchstats.load_spec())
    header = ["workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "change", "bound", "verdict"]
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

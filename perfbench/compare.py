#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

    python3 perfbench/compare.py base.txt change.txt

Each file holds the concatenated stdout of run.py runs.  For every
(workload, metric) present in both, prints each side's median, quartiles
and number of runs, the change of the median as a share of the base
median, and how many (base, change) pairs, matched in run order, the
change won.  Ties count for neither side.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path):
    """{(workload, trace): {metric: [values in run order]}}"""
    runs = {}
    workload = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "record" in doc:
                env = doc["record"]["env"]
                workload = (env["workload"], env["trace"])
            elif "metrics" in doc and workload is not None:
                for name, m in doc["metrics"].items():
                    runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
                workload = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(base_path, change_path, spec_path="BENCHMARK.json"):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(base_path), load(change_path)
    print("workload trace metric: base median [q1, q3] (n) -> change median [q1, q3] (n), "
          "delta, change wins")
    for key in sorted(set(base) & set(change)):
        for name in sorted(set(base[key]) & set(change[key])):
            a, b = base[key][name], change[key][name]
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1 if better.get(name, "lower") == "higher" else -1
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            delta = (mb - ma) / ma if ma else float("nan")
            (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
            print(f"{key[0]} {key[1]} {name}: {ma:.6g} [{a1:.6g}, {a3:.6g}] ({len(a)}) -> "
                  f"{mb:.6g} [{b1:.6g}, {b3:.6g}] ({len(b)}), {delta:+.1%}, "
                  f"{wins}/{len(pairs)}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])

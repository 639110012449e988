#!/usr/bin/env python3
"""Smoke test of the benchmark harness on a tiny load.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * an untraced run on the reference seed is correct and emits every
    end-to-end metric with the unit BENCHMARK.json gives it;
  * two traced runs are correct (run.py fails a run whose traced outputs
    differ from its untraced ones), emit every per-layer metric with its
    unit, and agree exactly on every call count;
and that run.py exits non-zero without a result line in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, seed, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def units_match(res, specs):
    return res is not None and all(
        spec["name"] in res["metrics"]
        and res["metrics"][spec["name"]]["unit"] == spec["unit"]
        and isinstance(res["metrics"][spec["name"]]["value"], (int, float))
        for spec in specs
    )


def counts(res):
    return {
        name: m["value"] for name, m in res["metrics"].items()
        if name.endswith((".calls", ".calls_per_op")) or name == "trace.ops"
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures = []

    def check(ok, message):
        print(("PASS " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        proc = run(workload, 0, 0)
        res = result(proc)
        check(proc.returncode == 0 and res is not None and res["correct"],
              f"{workload}: untraced run is correct")
        check(units_match(res, spec["end_to_end"]),
              f"{workload}: every end-to-end metric with its unit")
        traced = [run(workload, 1, 1) for _ in range(2)]
        first, second = (result(p) for p in traced)
        check(all(p.returncode == 0 for p in traced)
              and first is not None and second is not None
              and first["correct"] and second["correct"],
              f"{workload}: traced runs are correct and match untraced outputs")
        check(units_match(first, spec["per_layer"]),
              f"{workload}: every per-layer metric with its unit")
        check(first is not None and second is not None and counts(first) == counts(second),
              f"{workload}: call counts repeat exactly across two traced runs")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, 0, cwd=bare)
        check(proc.returncode != 0 and result(proc) is None,
              "without sources: non-zero exit and no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

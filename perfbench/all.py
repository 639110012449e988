#!/usr/bin/env python3
"""Run every workload once, untraced, and print its end-to-end metrics.

    python3 perfbench/all.py --seed 1 --seconds 25

Prints one line per metric, "<workload> <metric> <value> <unit>", for
every end-to-end metric in BENCHMARK.json plus float_latency_s.p50 and
failed_ratio from each run's record.  Exits 1 if any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            ok = False
            print(f"{workload} FAILED (exit {proc.returncode})")
            print("\n".join(lines[-12:] + proc.stderr.strip().splitlines()[-5:]))
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        float_p50 = record["float_latency_s.p50"]
        print(f"{workload} float_latency_s.p50 "
              + (f"{float_p50:.6g} s" if float_p50 is not None else "n/a"))
        print(f"{workload} failed_ratio {record['failed_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write perfbench/refs.json: the exact output of every reference-seed op.

    python3 perfbench/make_refs.py

A run with --seed 0 checks each exact output against this file, and a
run on any other seed checks the first few reference-seed operations, so
a change that alters a single value fails the benchmark.  The file covers
the operations a run of REF_SECONDS lists; rerun this script only when a
value is meant to change, or when the workloads themselves change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

REF_SEED = 0
REF_SECONDS = 25


def main():
    out = {"seed": REF_SEED, "seconds": REF_SECONDS, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        refs = {}
        for op in wl.pool(REF_SEED, workloads.pool_size(wl, REF_SECONDS)):
            if isinstance(op, workloads.PipeOp):
                refs[op.key] = op.reference()
            else:
                op.prepare()
                refs[op.key] = op.exact()
        out["workloads"][name] = refs
        print(f"{name}: {len(refs)} references", flush=True)
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

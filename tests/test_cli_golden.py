"""Golden CLI corpus: exit code, stdout and stderr of each run, byte for byte.

Each case is one shell-like line, run through `gds.cli.main` in-process:

    [VAR=value ...] [producer argv |] argv

A producer (a `gen` line) is run first and its stdout becomes the stdin of
the command.  "@/" in an argument stands for a folder that holds the
FILES below; in the recorded output the folder is written back as "@".
When a case passes -o, the file it writes is recorded too.

The expected values live in cli_golden.json next to this file.  After a
deliberate change of the CLI's output, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.  No case asks argparse for a usage message or
--help: their layout differs between Python versions.
"""

import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gds import emit_gds, random_gds
from gds.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

MALFORMED = '{"points": ["a"]}'


def _reweighted(X) -> str:
    """X's document with other weights: one metric, another measure."""
    doc = json.loads(emit_gds(X))
    doc["weights"] = ["1/2"] + [f"1/{2 * (X.n - 1)}"] * (X.n - 1)
    return json.dumps(doc)


FILES = {
    "a.json": lambda: emit_gds(random_gds(3, 2, seed=1)),
    "b.json": lambda: emit_gds(random_gds(3, 2, seed=2)),
    "c.json": lambda: _reweighted(random_gds(3, 2, seed=1)),
    "bad.json": lambda: MALFORMED,
}

R3 = "gen random --n 3 --k 2 --seed 3"
R3F = R3 + " --mode float"
CASES = [
    # gen, every kind in both modes
    "gen singleton --values 1,1/2",
    "gen singleton --values 1,1/2 --mode float",
    "gen discrete --n 3",
    "gen discrete --n 3 --mode float",
    R3,
    R3F,
    "gen random --n 2 --k 1 --seed 5 --scale 4 -o @/out.json",
    "gen levy --n 3",
    "gen levy --n 3 --mode float",
    "gen levy --family product_power --base @/a.json --n 2",
    "gen levy --n 3 --table --step 1/4",
    "gen levy --n 3 --table --step 1/4 --mode float",
    "gen levy --n 3 --table --step 1/4 -o @/out.csv",
    # od and pd: one value or a CSV, both modes
    f"{R3} | od -",
    f"{R3F} | od - --mode float",
    f"{R3} | od - --step 1/4",
    f"{R3} | od - --step 1/4 -o @/out.csv",
    f"{R3} | od - --kappa 1/4",
    f"{R3F} | od - --kappa 1/4 --mode float",
    "od @/a.json --step 1/10001",
    f"{R3} | pd - --alpha 1/2",
    f"{R3F} | pd - --alpha 1/2 --mode float",
    f"{R3} | pd - --alpha 1/2 --feature f1",
    f"{R3F} | pd - --alpha 1/2 --feature f1 --mode float",
    f"{R3} | pd - --alpha 1/2 --feature zz",
    # dconc: exact, heuristic, bounds, the fallback and the budget exit
    f"{R3} | dconc --other random:3,2,9",
    f"{R3F} | dconc --other random:3,2,9 --mode float",
    "dconc @/a.json @/b.json --exact",
    f"{R3} | dconc --other random:3,2,9 --heuristic",
    f"{R3F} | dconc --other random:3,2,9 --heuristic --mode float",
    f"{R3} | dconc --other random:3,2,9 --bounds",
    f"{R3F} | dconc --other random:3,2,9 --bounds --mode float",
    f"{R3} | dconc --other random:3,2,9 --exact --heuristic --budget 1",
    f"{R3F} | dconc --other random:3,2,9 --exact --heuristic --budget 1 --mode float",
    f"{R3} | dconc --other random:3,2,9 --budget 1",
    "dconc @/a.json --other x:1",
    "dconc @/a.json @/b.json --other singleton:1",
    # box: exact, heuristic, --mm, the fallback, cell and assignment budgets
    f"{R3} | box --other random:3,2,9",
    f"{R3F} | box --other random:3,2,9 --mode float",
    f"{R3} | box --other random:3,2,9 --heuristic",
    f"{R3F} | box --other random:3,2,9 --heuristic --mode float",
    f"{R3} | box --other random:3,2,9 --mm",
    f"{R3F} | box --other random:3,2,9 --mm --mode float",
    f"{R3} | box --other random:3,2,9 --exact --heuristic --budget 1",
    f"{R3} | box --other random:3,2,9 --budget 1",
    f"{R3} | box --other random:3,2,9 --cells 4",
    f"GDS_BUDGET_CELLS=4 {R3} | box --other random:3,2,9",
    f"GDS_BUDGET_CELLS=x {R3} | box --other random:3,2,9",
    "GDS_BUDGET_CELLS=x box @/bad.json --other random:3,2,9",
    "GDS_MODE=bogus box @/a.json @/b.json",
    "GDS_MODE=float box @/a.json @/b.json",
    # measures, structure and checks, both modes
    "prohorov @/a.json @/c.json",
    "prohorov @/a.json @/c.json --mode float",
    "prohorov @/a.json @/c.json --method brute",
    "prohorov @/a.json @/b.json",
    f"{R3} | kyfan - -f f0 -g f1",
    f"{R3F} | kyfan - -f f0 -g f1 --mode float",
    f"{R3} | quotient - --by f0",
    f"{R3F} | quotient - --by f0 --mode float",
    "quotient @/a.json --by zz",
    "gen singleton --values 1 | product @/a.json",
    "gen singleton --values 1 --mode float | product @/a.json --mode float",
    "check domination @/a.json --other singleton:0,0",
    "check isomorphism @/a.json @/a.json",
    "check isomorphism @/a.json @/a.json --mode float",
    f"{R3} | check domination --other random:3,2,9 --budget 1",
    # schema exits and verify
    "od @/bad.json",
    "od @/missing.json",
    f"{R3} | od - --kappa abc",
    "verify --trials 1",
    "GDS_MODE=bogus verify --trials 1",
    "verify --trials -1",
]


def _call(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _set_environ(values: dict) -> None:
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def run_case(case: str, folder: Path) -> dict:
    """The recorded outcome of one case, with `folder` as "@"."""
    for name, make in FILES.items():
        (folder / name).write_text(make())
    words = [w.replace("@/", f"{folder}/") for w in shlex.split(case)]
    # The case's own variables, and no GDS_* setting from outside.
    env = {"GDS_MODE": None, "GDS_BUDGET_CELLS": None}
    while "=" in words[0]:
        key, _, value = words.pop(0).partition("=")
        env[key] = value
    stdin_text = ""
    saved = {key: os.environ.get(key) for key in env}
    _set_environ(env)
    try:
        if "|" in words:
            cut = words.index("|")
            code, stdin_text, _ = _call(words[:cut], "")
            assert code == 0
            words = words[cut + 1:]
        code, out, err = _call(words, stdin_text)
    finally:
        _set_environ(saved)
    record = {"case": case, "code": code, "stdout": out, "stderr": err}
    if "-o" in words:
        target = Path(words[words.index("-o") + 1])
        record["file"] = target.read_text() if target.exists() else None
    return {k: v.replace(str(folder), "@") if isinstance(v, str) else v
            for k, v in record.items()}


@pytest.fixture(scope="module")
def golden():
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {record["case"]: record for record in records}


@pytest.mark.parametrize("case", CASES)
def test_golden(case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[case]


def test_corpus_matches_the_cases(golden):
    assert list(golden) == CASES


if __name__ == "__main__":
    import tempfile

    records = []
    for case in CASES:
        with tempfile.TemporaryDirectory() as folder:
            records.append(run_case(case, Path(folder)))
    text = json.dumps(records, indent=1, ensure_ascii=False) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")

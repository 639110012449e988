"""Golden library corpus: the typed repr of each solver's value and witnesses.

Each record is one call of a public solver on a fixed seeded instance in
one mode.  It holds the repr of the value and of every witness the call
returns (coupling, cells, to_right / to_left, transfers, vertices), so a
Fraction, an int and a float that compare equal still differ, and a float
is pinned to its last bit.  A CellSet is written in its sorted cells.
Float records are pinned under the float sum() of the interpreter that
wrote them (plain before CPython 3.12, compensated from 3.12 on); under
the other one they are skipped.

The instances are random_gds pairs from fixed seeds: the (n, k) classes of
the dconc-lp and box-flow benchmark workloads, and small unequal pairs
that reach the forced coupling, the vertex enumeration and the LP with
several cell sets.

The expected records live in library_golden.json next to this file.
After a deliberate change of a value or witness, rewrite them with

    PYTHONPATH=src python tests/test_library_golden.py

To count what a change moves, keep the old file and run

    PYTHONPATH=src python tests/test_library_golden.py --diff OLD.json

It prints how many records moved, by solver and field, and for each
moved witness whether the old witness still attains the new value.  It
exits 0 only when nothing moved.
"""

import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from gds import (
    CellSet,
    Coupling,
    box_exact,
    box_fixed_coupling,
    box_heuristic,
    box_mm_exact,
    box_objective,
    dconc_at_coupling,
    dconc_exact,
    dconc_heuristic,
    dconc_lower_witness,
    dis_coupling,
    distortion,
    enumerate_couplings,
    feasibility_lp,
    feature_transfer,
    ky_fan_coupling,
    max_mass_on_set,
    product_coupling,
    prohorov,
    random_gds,
    transportation_vertices,
)
from gds.errors import GdsError
from gds.numerics import close, leq

GOLDEN = Path(__file__).with_name("library_golden.json")
MODES = ("exact", "float")
# CPython 3.12 made sum() of floats compensated, which moves float bits,
# so float records are compared only under the sum() that wrote them.
FLOAT_SUM = "compensated" if sys.version_info >= (3, 12) else "plain"

# The (n, k) classes of the dconc-lp workload, and the (kind, n, k)
# classes of the box-flow workload; scale 32 above 8 points, as there.
DCONC_LP = ((3, 2), (4, 2), (2, 3), (4, 2))
BOX_FLOW = (
    ("box", 12, 2),
    ("prohorov", 30, 2),
    ("box", 8, 3),
    ("mm", 5, 2),
    ("box", 16, 2),
    ("prohorov", 40, 2),
    ("box", 10, 3),
    ("box", 20, 2),
)
# (n, m, kx, ky): small pairs, one-point spaces included.
SMALL = (
    (1, 3, 2, 2),
    (3, 1, 1, 2),
    (2, 2, 1, 1),
    (2, 3, 1, 2),
    (3, 2, 2, 1),
    (3, 3, 2, 2),
    (2, 2, 3, 2),
    (2, 4, 2, 2),
    (4, 3, 2, 3),
)
SEEDS = range(6)


def typed_repr(x) -> str:
    if isinstance(x, CellSet):
        return f"CellSet.from_pairs({x.n}, {x.m}, {list(x.sorted_cells)!r})"
    return repr(x)


def read_repr(text: str):
    """The object a typed_repr stands for."""
    names = {"CellSet": CellSet, "Coupling": Coupling, "Fraction": Fraction}
    return eval(text, names)


def transposed(pi: Coupling) -> Coupling:
    return Coupling(tuple(zip(*pi.matrix)), pi.mode)


def lattice_coupling(X, Y, seed: int) -> Coupling:
    """One seeded coupling of the mixture lattice, zero entries likely."""
    pis = enumerate_couplings(X.measure, Y.measure, 2)
    return pis[random.Random(seed).randrange(len(pis))]


def random_masks(n: int, m: int, seed: int, count: int) -> list:
    rng = random.Random(seed)
    full = (1 << n * m) - 1
    return [rng.randrange(1, full + 1) for _ in range(count)]


def attains(value, old, mode) -> bool:
    return close(old, value, mode)


# Each solver: (run, check).  run(instance) returns the fields as objects,
# the value first.  check(instance, old, value) says whether the old
# witness fields (objects) attain the new value; None when the call
# returns no witness.


def _dconc_exact(inst):
    X, Y = inst["X"], inst["Y"]
    res = dconc_exact(X, Y)
    return {"value": res.value, "coupling": res.coupling,
            "to_right": res.to_right, "to_left": res.to_left}


def _check_dconc_exact(inst, old, value):
    X, Y, pi = inst["X"], inst["Y"], old["coupling"]
    fx, fy, mode = X.features.rows, Y.features.rows, X.mode
    return (
        attains(value, dconc_at_coupling(X, Y, pi), mode)
        and all(leq(ky_fan_coupling(pi, fx[f], fy[g]), value, mode)
                for f, g in enumerate(old["to_right"]))
        and all(leq(ky_fan_coupling(pi, fx[f], fy[g]), value, mode)
                for g, f in enumerate(old["to_left"]))
    )


def _dconc_heuristic(inst):
    value, pi = dconc_heuristic(inst["X"], inst["Y"], seed=inst["seed"])
    return {"value": value, "coupling": pi}


def _check_dconc_heuristic(inst, old, value):
    X, Y = inst["X"], inst["Y"]
    return attains(value, dconc_at_coupling(X, Y, old["coupling"]), X.mode)


def _dconc_lower_witness(inst):
    X, Y = inst["X"], inst["Y"]
    return {"value": tuple(dconc_lower_witness(X, Y, row) for row in X.features.rows)}


def _dconc_at_coupling(inst):
    X, Y = inst["X"], inst["Y"]
    return {"value": tuple(dconc_at_coupling(X, Y, pi) for pi in inst["pis"])}


def _feature_transfer(inst):
    X, Y = inst["X"], inst["Y"]
    return {"value": tuple(
        (feature_transfer(X, Y, pi), feature_transfer(Y, X, transposed(pi)))
        for pi in inst["pis"]
    )}


def _max_mass_on_set(inst):
    X, Y = inst["X"], inst["Y"]
    runs = [max_mass_on_set(X.measure, Y.measure, s) for s in inst["sets"]]
    return {"value": tuple(v for v, _ in runs), "coupling": tuple(pi for _, pi in runs)}


def _check_max_mass_on_set(inst, old, value):
    X, Y = inst["X"], inst["Y"]
    for s, pi, v in zip(inst["sets"], old["coupling"], value):
        pi.check_marginals(X.measure, Y.measure)
        if not attains(v, pi.mass(s), X.mode):
            return False
    return True


def _feasibility_lp(inst):
    X, Y = inst["X"], inst["Y"]
    pi, t = feasibility_lp(X.measure, Y.measure, inst["sets"])
    return {"t": t, "coupling": pi}


def _check_feasibility_lp(inst, old, value):
    X, Y, pi = inst["X"], inst["Y"], old["coupling"]
    pi.check_marginals(X.measure, Y.measure)
    return attains(value, max(pi.mass(s) for s in inst["sets"]), X.mode)


def _transportation_vertices(inst):
    return {"vertices": transportation_vertices(inst["X"].measure, inst["Y"].measure)}


def _box_exact(inst):
    X, Y = inst["X"], inst["Y"]
    res = box_exact(X, Y, cell_budget=X.n * Y.n)
    return {"value": res.value, "coupling": res.coupling, "cells": res.cells}


def _check_box_exact(inst, old, value):
    X, Y, pi = inst["X"], inst["Y"], old["coupling"]
    pi.check_marginals(X.measure, Y.measure)
    got = box_objective(pi, old["cells"], X.features, Y.features)
    return attains(value, got, X.mode)


def _box_heuristic(inst):
    return {"value": box_heuristic(inst["X"], inst["Y"], budget=120, seed=inst["seed"])}


def _box_mm_exact(inst):
    X, Y = inst["X"], inst["Y"]
    return {"value": box_mm_exact(X, Y, cell_budget=X.n * Y.n)}


def _box_fixed_coupling(inst):
    value, cells = box_fixed_coupling(inst["X"], inst["Y"], inst["pis"][-1])
    return {"value": value, "cells": cells}


def _check_box_fixed_coupling(inst, old, value):
    X, Y = inst["X"], inst["Y"]
    got = box_objective(inst["pis"][-1], old["cells"], X.features, Y.features)
    return attains(value, got, X.mode)


def _dis_coupling(inst):
    X, Y = inst["X"], inst["Y"]
    value, cells = dis_coupling(inst["pis"][-1], X.dist, Y.dist)
    return {"value": value, "cells": cells}


def _check_dis_coupling(inst, old, value):
    X, Y, S = inst["X"], inst["Y"], old["cells"]
    kept = 1 - inst["pis"][-1].mass(S)
    spread = distortion(S, X.dist, Y.dist)
    return attains(value, kept if kept > spread else spread, X.mode)


def _prohorov(inst):
    X = inst["X"]
    return {"value": prohorov(X.measure, inst["nu"], X.dist)}


SOLVERS = {
    "dconc_exact": (_dconc_exact, _check_dconc_exact),
    "dconc_heuristic": (_dconc_heuristic, _check_dconc_heuristic),
    "dconc_lower_witness": (_dconc_lower_witness, None),
    "dconc_at_coupling": (_dconc_at_coupling, None),
    "feature_transfer": (_feature_transfer, None),
    "max_mass_on_set": (_max_mass_on_set, _check_max_mass_on_set),
    "feasibility_lp": (_feasibility_lp, _check_feasibility_lp),
    "transportation_vertices": (_transportation_vertices, None),
    "box_exact": (_box_exact, _check_box_exact),
    "box_heuristic": (_box_heuristic, None),
    "box_mm_exact": (_box_mm_exact, None),
    "box_fixed_coupling": (_box_fixed_coupling, _check_box_fixed_coupling),
    "dis_coupling": (_dis_coupling, _check_dis_coupling),
    "prohorov": (_prohorov, None),
}

DCONC = ("dconc_exact", "dconc_heuristic", "dconc_lower_witness",
         "dconc_at_coupling", "feature_transfer")
BOX = ("box_exact", "box_heuristic", "box_mm_exact", "box_fixed_coupling", "dis_coupling")


def _instances():
    """(name, build, solvers) for every instance, in both modes."""
    out = []

    def pair(n, m, kx, ky, seed, scale, mode):
        X = random_gds(n, kx, seed=seed, scale=scale, mode=mode)
        Y = random_gds(m, ky, seed=seed + 500, scale=scale, mode=mode)
        inst = {"X": X, "Y": Y, "seed": seed}
        inst["pis"] = (product_coupling(X.measure, Y.measure),
                       lattice_coupling(X, Y, seed))
        return inst

    for mode in MODES:
        for c, (n, k) in enumerate(DCONC_LP):
            for r in SEEDS:
                seed = 1000 + 10 * c + r
                out.append((f"dconc-lp {n}x{n} k={k} seed={seed} {mode}",
                            lambda n=n, k=k, seed=seed, mode=mode: pair(n, n, k, k, seed, 8, mode),
                            DCONC))
        for c, (kind, n, k) in enumerate(BOX_FLOW):
            scale = 32 if n > 8 else 8
            for r in SEEDS[:2]:
                seed = 2000 + 10 * c + r
                name = f"box-flow {kind} n={n} k={k} seed={seed} {mode}"
                if kind == "prohorov":
                    def build(n=n, k=k, seed=seed, scale=scale, mode=mode):
                        X = random_gds(n, k, seed=seed, scale=scale, mode=mode)
                        nu = random_gds(n, 2, seed=seed + 500, scale=64, mode=mode).measure
                        return {"X": X, "nu": nu}
                    out.append((name, build, ("prohorov",)))
                else:
                    solvers = ("box_mm_exact",) if kind == "mm" else ("box_exact", "box_heuristic")
                    out.append((name, lambda n=n, k=k, seed=seed, scale=scale, mode=mode:
                                pair(n, n, k, k, seed, scale, mode), solvers))
        for c, (n, m, kx, ky) in enumerate(SMALL):
            for r in SEEDS:
                seed = 3000 + 10 * c + r

                def build(n=n, m=m, kx=kx, ky=ky, seed=seed, mode=mode):
                    inst = pair(n, m, kx, ky, seed, 8, mode)
                    X, Y = inst["X"], inst["Y"]
                    masks = random_masks(n, m, seed, 3)
                    inst["sets"] = [CellSet.from_mask(n, m, mask) for mask in masks]
                    nu = random_gds(n, 1, seed=seed + 700, scale=8, mode=mode).measure
                    inst["nu"] = nu
                    return inst

                solvers = DCONC + BOX + ("max_mass_on_set", "feasibility_lp", "prohorov")
                if n * m <= 9:
                    solvers += ("transportation_vertices",)
                out.append((f"small {n}x{m} k={kx},{ky} seed={seed} {mode}", build, solvers))
    return out


INSTANCES = _instances()
CASES = [f"{name}: {solver}" for name, _, solvers in INSTANCES for solver in solvers]


def run_instance(build, solvers) -> dict:
    """{solver: fields as objects} for one instance."""
    inst = build()
    return {solver: SOLVERS[solver][0](inst) for solver in solvers}


def record(case: str, fields: dict) -> dict:
    solver = case.rsplit(": ", 1)[1]
    return {"case": case, "solver": solver,
            "fields": {key: typed_repr(value) for key, value in fields.items()}}


def corpus() -> dict:
    records = []
    for name, build, solvers in INSTANCES:
        for solver, fields in run_instance(build, solvers).items():
            records.append(record(f"{name}: {solver}", fields))
    return {"float_sum": FLOAT_SUM, "records": records}


def diff(old: dict, new: dict, out=sys.stdout) -> int:
    """Print what moved from old to new; return the number of moved records.

    Records only in one of the two count as moved.  For a moved witness
    field the old witness is read back and checked against the new value
    on the instance it was computed on.
    """
    if old["float_sum"] != new["float_sum"]:
        print(f"note: the old corpus was written with a {old['float_sum']} float "
              f"sum(), this one with a {new['float_sum']} one", file=out)
    old_by_case = {r["case"]: r for r in old["records"]}
    new_by_case = {r["case"]: r for r in new["records"]}
    builds = {name: build for name, build, _ in INSTANCES}
    moved, fields, lines = 0, Counter(), []
    for case in sorted(set(old_by_case) | set(new_by_case)):
        a, b = old_by_case.get(case), new_by_case.get(case)
        if a is None or b is None:
            moved += 1
            fields[(case.rsplit(": ", 1)[1], "only in old" if b is None else "only in new")] += 1
            continue
        changed = [k for k in b["fields"] if a["fields"].get(k) != b["fields"][k]]
        if not changed:
            continue
        moved += 1
        for key in changed:
            fields[(b["solver"], key)] += 1
        value_key = next(iter(b["fields"]))
        check = SOLVERS[b["solver"]][1]
        witness_moved = [k for k in changed if k != value_key]
        if witness_moved and check is not None:
            inst = builds[case.rsplit(": ", 1)[0]]()
            old_fields = {k: read_repr(v) for k, v in a["fields"].items()}
            try:
                ok = check(inst, old_fields, read_repr(b["fields"][value_key]))
            except GdsError:  # the old coupling breaks its marginals
                ok = False
            verdict = "attains" if ok else "does NOT attain"
            lines.append(f"  {case}: the old {', '.join(witness_moved)} {verdict} the new value")
    print(f"{len(new_by_case)} records, {moved} moved", file=out)
    for (solver, key), count in sorted(fields.items()):
        print(f"  {solver} {key}: {count}", file=out)
    for line in lines:
        print(line, file=out)
    return moved


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(INSTANCES)),
                         ids=[name for name, _, _ in INSTANCES])
def test_golden(index, golden):
    name, build, solvers = INSTANCES[index]
    if name.endswith(" float") and golden["float_sum"] != FLOAT_SUM:
        pytest.skip(f"float records were written with a {golden['float_sum']} sum()")
    expected = {r["case"]: r for r in golden["records"]}
    for solver, fields in run_instance(build, solvers).items():
        case = f"{name}: {solver}"
        assert record(case, fields) == expected[case]


def test_corpus_matches_the_cases(golden):
    assert [r["case"] for r in golden["records"]] == CASES


def test_diff_counts_one_moved_witness(golden):
    # The same coupling with its zero entries written as the int 0: one
    # moved record, whose old witness still attains the value.
    old = [dict(r, fields=dict(r["fields"])) for r in golden["records"]]
    target = next(
        r for r in old
        if r["solver"] == "dconc_heuristic" and "Fraction(0, 1)" in r["fields"]["coupling"]
    )
    target["fields"]["coupling"] = target["fields"]["coupling"].replace("Fraction(0, 1)", "0")
    out = io.StringIO()
    assert diff(dict(golden, records=old), golden, out=out) == 1
    assert "dconc_heuristic coupling: 1" in out.getvalue()
    assert f"{target['case']}: the old coupling attains the new value" in out.getvalue()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--diff"]:
        old = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
        sys.exit(1 if diff(old, corpus()) else 0)
    new = corpus()
    text = json.dumps(new, indent=1, ensure_ascii=False) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    print(f"wrote {len(new['records'])} records to {GOLDEN}")

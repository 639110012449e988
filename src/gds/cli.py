"""Command-line surface: dataset I/O, computations, generators, checks.

Datasets travel as JSON documents (see dataio); "-" means stdin, and
two-input commands accept --other KIND:ARGS to synthesize the second
input inline, so generators pipe into computations:

    gds gen discrete --n 3 | gds dconc --other singleton:1 --exact

Output has one path.  main resolves the arithmetic mode once and runs
the subcommand, which returns a JSON payload, or None once it has
written its own CSV table or dataset, or (verify) the exit code.  main
writes a payload to the -o file of the commands that take one, else to
stdout, so -o covers everything od, pd, quotient, product and gen print,
single values included.  Diagnostics and quotient's point map go to
stderr.  A reader that closes the pipe early ends the command quietly.

Only the modules every command needs load with this one; each handler
imports its solver layer (metrics, observable, box, order, suite) when
it runs, so a process compiles only what its subcommand calls.

Scalar results are JSON with a decimal value, plus the exact rational
string in exact mode.  Tables are CSV with a header row.  Exit codes: 2
for schema violations or otherwise unusable inputs, a dataset file that
cannot be read or is not UTF-8 included, for an -o path that cannot be
written and for verify --trials below 0; 3 when an exact search refuses
its budget and no --heuristic fallback was offered, when a --step grid
would exceed GRID_BUDGET values or a gen levy family LEVY_POINTS points;
1 when the verification suite fails; 0 when the reader of stdout
closed it before the output was written, since whether a write meets
the closed pipe depends on timing and the pipe's buffer, and the
reader's own status tells how the pipe went.

Environment: GDS_MODE picks exact or float arithmetic (flag --mode wins;
verify, which has no mode, ignores it); GDS_BUDGET_CELLS caps the exact
box search grid (default core.CELL_BUDGET).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .core import CELL_BUDGET, GeometricDataSet
from .dataio import csv_text, emit_gds, parse_gds
from .errors import BudgetExceeded, GdsError, SchemaError, SizeLimit
from .numerics import EXACT, FLOAT, exact_string, format_scalar, to_scalar, tolerance
from .spaces import (
    levy_sequence,
    levy_table,
    n_point_discrete,
    product_gds,
    quotient_gds,
    random_gds,
    singleton_gds,
)

__all__ = ["main"]

# The most kappa values a uniform --step grid may hold.
GRID_BUDGET = 10000
# The most points (and members) a `gen levy` family may hold.  Member N
# has N points (discrete) or |base|**N (product_power).  The discrete
# member N alone takes about N**3 rational operations, and the --table
# family up to N about N**4 plus an od scan of every member: 40 points
# build in a fraction of a second, the table in a few seconds.
LEVY_POINTS = 40


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _resolve_mode(flag: Optional[str]) -> str:
    if flag:
        return flag
    env = os.environ.get("GDS_MODE", EXACT).strip().lower()
    if env not in (EXACT, FLOAT):
        raise SchemaError(f"GDS_MODE must be 'exact' or 'float', not {env!r}")
    return env


def _cell_budget(args) -> int:
    if args.cells is not None:
        value = args.cells
    else:
        raw = os.environ.get("GDS_BUDGET_CELLS", str(CELL_BUDGET))
        try:
            value = int(raw)
        except ValueError:
            raise SchemaError(
                f"GDS_BUDGET_CELLS must be an integer, not {raw!r}"
            ) from None
    if value < 1:
        raise SchemaError("cell budget must be at least 1")
    return value


def _load(source: str, mode: str) -> GeometricDataSet:
    if source == "-":
        return parse_gds(sys.stdin.read(), mode)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {source}: {exc}") from exc
    return parse_gds(text, mode)


def _option(value: str, flag: str, mode: str):
    """A numeric option as a scalar of `mode`; a malformed one is a SchemaError."""
    try:
        return to_scalar(value, mode)
    except GdsError as exc:
        raise SchemaError(f"{flag}: {exc}") from exc


def _constants(text: str, flag: str, mode: str) -> list:
    """The comma-separated constants of a singleton, as scalars of `mode`."""
    values = [_option(v.strip(), flag, mode) for v in text.split(",") if v.strip()]
    if not values:
        raise SchemaError(f"{flag} needs at least one constant")
    return values


def _kappa_grid(text: str, mode: str, first: int) -> list:
    """kappa = j * step for j = first, first + 1, ... while below 1.

    A step finer than 1/GRID_BUDGET is declined as a budget (exit 3):
    every kappa costs a diameter solve, and a step such as 1e-300
    would otherwise run for ever.
    """
    step = _option(text, "--step", mode)
    if step <= 0:
        raise SchemaError("--step must be positive")
    if step * GRID_BUDGET < 1:
        raise SizeLimit(f"--step {text} asks for more than {GRID_BUDGET} kappa values")
    kappas = []
    j = first
    while j * step < 1:
        kappas.append(j * step)
        j += 1
    return kappas


def _levy_budget(family: str, n: int, base: Optional[GeometricDataSet]) -> None:
    """Decline, before any member is built, a family larger than LEVY_POINTS.

    n counts too, so a one-point base cannot ask for endless members.
    """
    size = n
    if family == "product_power" and base is not None and n <= LEVY_POINTS:
        size = max(n, base.n ** n)
    if size > LEVY_POINTS:
        raise SizeLimit(f"--n {n} asks for more than {LEVY_POINTS} points or members")


def _generated(spec: str, mode: str) -> GeometricDataSet:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "singleton":
            return singleton_gds(_constants(rest, "singleton", mode), mode)
        if kind == "discrete":
            return n_point_discrete(int(rest), mode)
        if kind == "random":
            parts = [int(v) for v in rest.split(",") if v.strip()]
            if len(parts) < 2:
                raise SchemaError("random needs n,k[,seed[,scale]]")
            n, k = parts[0], parts[1]
            seed = parts[2] if len(parts) > 2 else 0
            scale = parts[3] if len(parts) > 3 else 8
            return random_gds(n, k, seed=seed, scale=scale, mode=mode)
    except ValueError as exc:
        raise SchemaError(f"bad generator spec {spec!r}: {exc}") from exc
    raise SchemaError(
        f"unknown generator {kind!r}; use singleton:…, discrete:N or random:n,k"
    )


def _pair(args) -> tuple:
    """Two datasets from positional paths, stdin, and --other."""
    paths, mode = list(args.inputs), args.mode
    if args.other:
        if len(paths) > 1:
            raise SchemaError("--other supplies the second input; give at most one path")
        first = paths[0] if paths else "-"
        return _load(first, mode), _generated(args.other, mode)
    if len(paths) == 2:
        return _load(paths[0], mode), _load(paths[1], mode)
    if len(paths) == 1:
        return _load(paths[0], mode), _load("-", mode)
    raise SchemaError("need two datasets: paths, '-' for stdin, or --other")


def _write(text: str, output: Optional[str]) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {output}: {exc}") from exc


def _num(x, mode: str) -> dict:
    payload = {"value": float(x)}
    if mode == EXACT:
        payload["exact"] = exact_string(x, mode)
    return payload


def _scalar_columns(values, mode: str):
    row = [format_scalar(v) for v in values]
    if mode == EXACT:
        row += [exact_string(v, mode) for v in values]
    return row


# ---------------------------------------------------------------------------
# Subcommands: each returns a JSON payload for main to write, None once it
# has written its own output, or (verify) the exit code.
# ---------------------------------------------------------------------------


def _cmd_od(args) -> Optional[dict]:
    from .metrics import observable_diameter, od_breakpoints

    mode = args.mode
    X = _load(args.dataset, mode)
    if args.kappa is not None:
        kappa = _option(args.kappa, "--kappa", mode)
        value = observable_diameter(X, kappa)
        return {"command": "od", "kappa": format_scalar(kappa), **_num(value, mode)}
    if args.step is not None:
        kappas = _kappa_grid(args.step, mode, 0)
    else:
        kappas = list(od_breakpoints(X))
    header = ["kappa", "od"]
    if mode == EXACT:
        header += ["kappa_exact", "od_exact"]
    rows = [_scalar_columns([k, observable_diameter(X, k)], mode) for k in kappas]
    _write(csv_text(header, rows), args.output)


def _cmd_pd(args) -> Optional[dict]:
    from .metrics import partial_diameter

    mode = args.mode
    X = _load(args.dataset, mode)
    alpha = _option(args.alpha, "--alpha", mode)
    if args.feature is not None:
        try:
            row = X.features.by_label(args.feature)
        except GdsError as exc:
            raise SchemaError(f"no feature {args.feature!r}") from exc
        value = partial_diameter(row, X.measure, alpha)
        return {"command": "pd", "feature": args.feature, "alpha": format_scalar(alpha),
                **_num(value, mode)}
    header = ["feature", "pd"]
    if mode == EXACT:
        header.append("pd_exact")
    rows = []
    for label, row in zip(X.features.labels, X.features.rows):
        value = partial_diameter(row, X.measure, alpha)
        rows.append([label] + _scalar_columns([value], mode))
    _write(csv_text(header, rows), args.output)


def _budget(args, keyword: str) -> dict:
    """--budget as the named keyword; absent, the callee's default holds."""
    if args.budget is None:
        return {}
    if args.budget < 0:
        raise SchemaError("budget must be at least 0")
    return {keyword: args.budget}


def _exact_or_heuristic(args, payload: dict, exact, heuristic) -> dict:
    """`payload` with the exact answer, or under --heuristic the heuristic one.

    exact() returns the payload's result fields, heuristic() the value.
    Under --exact --heuristic the heuristic answers only when the exact
    search declines its budget, and the payload notes why.
    """
    if not args.heuristic or args.exact:
        try:
            return {**payload, "method": "exact", **exact()}
        except BudgetExceeded as exc:
            if not args.heuristic:
                raise
            payload["note"] = f"exact search declined: {exc}"
    return {**payload, "method": "heuristic", "seed": args.seed, **_num(heuristic(), args.mode)}


def _cmd_dconc(args) -> dict:
    from .observable import dconc_exact, dconc_heuristic, dconc_lower_witness

    mode = args.mode
    X, Y = _pair(args)
    if args.bounds:
        lower = max(
            max((dconc_lower_witness(X, Y, f) for f in X.features.rows), default=0),
            max((dconc_lower_witness(Y, X, g) for g in Y.features.rows), default=0),
        )
        upper, _ = dconc_heuristic(X, Y, seed=args.seed, **_budget(args, "budget"))
        return {"command": "dconc", "method": "bounds", "lower": _num(lower, mode),
                "upper": _num(upper, mode)}
    return _exact_or_heuristic(
        args,
        {"command": "dconc"},
        lambda: _num(dconc_exact(X, Y, **_budget(args, "assignment_budget")).value, mode),
        lambda: dconc_heuristic(X, Y, seed=args.seed, **_budget(args, "budget"))[0],
    )


def _cmd_box(args) -> dict:
    from .box import box_exact, box_heuristic, box_mm_exact

    mode = args.mode
    X, Y = _pair(args)
    cells = _cell_budget(args)
    if args.mm:
        value = box_mm_exact(X, Y, cell_budget=cells)
        return {"command": "box", "method": "mm-exact", **_num(value, mode)}

    def exact():
        result = box_exact(X, Y, cell_budget=cells, **_budget(args, "assignment_budget"))
        cells_used = [list(c) for c in result.cells.sorted_cells]
        return {"cells": cells_used, **_num(result.value, mode)}

    return _exact_or_heuristic(
        args,
        {"command": "box"},
        exact,
        lambda: box_heuristic(X, Y, seed=args.seed, **_budget(args, "budget")),
    )


def _cmd_prohorov(args) -> dict:
    from .metrics import prohorov

    X, Y = _pair(args)
    if X.n != Y.n:
        raise SchemaError("prohorov compares two measures on one space")
    tol = tolerance(args.mode)
    for x in range(X.n):
        for y in range(X.n):
            if abs(X.dist[x][y] - Y.dist[x][y]) > tol:
                raise SchemaError(
                    "prohorov inputs must induce the same metric"
                )
    value = prohorov(X.measure, Y.measure, X.dist, args.method)
    return {"command": "prohorov", "method": args.method, **_num(value, args.mode)}


def _cmd_kyfan(args) -> dict:
    from .metrics import ky_fan

    X = _load(args.dataset, args.mode)
    try:
        f = X.features.by_label(args.first)
        g = X.features.by_label(args.second)
    except GdsError as exc:
        raise SchemaError(str(exc)) from exc
    value = ky_fan(X.measure, f, g)
    return {"command": "kyfan", "first": args.first, "second": args.second,
            **_num(value, args.mode)}


def _cmd_quotient(args) -> None:
    X = _load(args.dataset, args.mode)
    labels = [v.strip() for v in args.by.split(",") if v.strip()]
    if not labels:
        raise SchemaError("--by needs a comma-separated list of feature labels")
    for label in labels:
        if label not in X.features.labels:
            raise SchemaError(f"no feature {label!r}")
    Y, mapping = quotient_gds(X, labels)
    _write(emit_gds(Y), args.output)
    print(json.dumps({"mapping": list(mapping)}), file=sys.stderr)


def _cmd_product(args) -> None:
    _write(emit_gds(product_gds(*_pair(args))), args.output)


def _cmd_gen(args) -> None:
    mode = args.mode
    if args.kind == "singleton":
        X = singleton_gds(_constants(args.values, "--values", mode), mode)
    elif args.kind == "discrete":
        X = n_point_discrete(args.n, mode)
    elif args.kind == "random":
        X = random_gds(args.n, args.k, seed=args.seed, scale=args.scale, mode=mode)
    else:  # levy
        base = _load(args.base, mode) if args.base else None
        _levy_budget(args.family, args.n, base)
        if args.table:
            kappas = _kappa_grid(args.step, mode, 1)
            kappas, rows = levy_table(args.family, args.n, base, kappas, mode)
            header = ["member"] + [format_scalar(k) for k in kappas]
            body = [[label] + [format_scalar(v) for v in values] for label, values in rows]
            _write(csv_text(header, body), args.output)
            return
        if args.family == "discrete":
            # Discrete members do not build on each other: make member n alone.
            X = n_point_discrete(args.n, mode)
        else:
            *_, X = levy_sequence(args.family, args.n, base)
    _write(emit_gds(X), args.output)


def _cmd_check(args) -> dict:
    from .order import check_domination, check_isomorphism

    X, Y = _pair(args)
    kwargs = _budget(args, "map_budget")
    if args.relation == "domination":
        verdict, witness = check_domination(X, Y, **kwargs)
    else:
        verdict, witness = check_isomorphism(X, Y, **kwargs)
    witness = list(witness) if witness is not None else None
    return {"command": "check", "relation": args.relation, "verdict": verdict, "witness": witness}


def _cmd_verify(args) -> int:
    from .suite import verify_theorem_suite

    report = verify_theorem_suite(seed=args.seed, trials=args.trials)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    mode_parent = argparse.ArgumentParser(add_help=False)
    mode_parent.add_argument(
        "--mode", choices=[EXACT, FLOAT], help="arithmetic mode (default: GDS_MODE or exact)"
    )
    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("-o", "--output", help="write to this file instead of stdout")

    def pair_inputs(p):
        p.add_argument(
            "inputs", nargs="*",
            help="dataset paths ('-' for stdin); missing ones are read from stdin",
        )
        p.add_argument(
            "--other", metavar="KIND:ARGS", help="generate the second input inline: "
            "singleton:v[,v…], discrete:N, random:n,k[,seed[,scale]]",
        )

    def command(group, name, func, *parents, help):
        p = group.add_parser(name, parents=list(parents), help=help)
        p.set_defaults(func=func)
        return p

    parser = argparse.ArgumentParser(
        prog="gds",
        description="Distances, diameters and order checks for geometric data sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = command(
        sub, "od", _cmd_od, mode_parent, out_parent,
        help="observable diameter, one kappa or a CSV over a grid",
    )
    p.add_argument("dataset", help="dataset path or '-'")
    p.add_argument("--kappa", help="single kappa instead of a grid")
    p.add_argument("--step", help="uniform grid step (default: value breakpoints)")

    p = command(
        sub, "pd", _cmd_pd, mode_parent, out_parent,
        help="partial diameter of one feature, or CSV over all features",
    )
    p.add_argument("dataset", help="dataset path or '-'")
    p.add_argument("--alpha", required=True, help="mass the interval must catch")
    p.add_argument("--feature", help="feature label (default: all)")

    p = command(
        sub, "dconc", _cmd_dconc, mode_parent,
        help="observable distance between two datasets",
    )
    pair_inputs(p)
    p.add_argument("--exact", action="store_true", help="exact search (default)")
    p.add_argument(
        "--heuristic", action="store_true",
        help="alternating search; with --exact it is the over-budget fallback",
    )
    p.add_argument("--bounds", action="store_true", help="certified lower and upper bounds")
    p.add_argument("--budget", type=int, help="search budget")
    p.add_argument("--seed", type=int, default=0)

    p = command(
        sub, "box", _cmd_box, mode_parent, help="box distance between two datasets"
    )
    pair_inputs(p)
    p.add_argument("--exact", action="store_true", help="exact search (default)")
    p.add_argument(
        "--heuristic", action="store_true",
        help="local search; with --exact it is the over-budget fallback",
    )
    p.add_argument(
        "--mm", action="store_true",
        help="compare the induced metric-measure structures instead of the families",
    )
    p.add_argument("--budget", type=int, help="search budget")
    p.add_argument(
        "--cells", type=int, help=f"cell cap (default: GDS_BUDGET_CELLS or {CELL_BUDGET})"
    )
    p.add_argument("--seed", type=int, default=0)

    p = command(
        sub, "prohorov", _cmd_prohorov, mode_parent,
        help="Prohorov distance of two measures on one induced metric",
    )
    pair_inputs(p)
    p.add_argument(
        "--method", choices=["auto", "brute", "flow"], default="auto",
        help="auto and flow solve by max-flow duality; brute scans every subset",
    )

    p = command(
        sub, "kyfan", _cmd_kyfan, mode_parent,
        help="Ky Fan distance between two features of one dataset",
    )
    p.add_argument("dataset", help="dataset path or '-'")
    p.add_argument("-f", "--first", required=True, help="feature label")
    p.add_argument("-g", "--second", required=True, help="feature label")

    p = command(
        sub, "quotient", _cmd_quotient, mode_parent, out_parent,
        help="collapse a 1-Lipschitz subfamily; mapping goes to stderr",
    )
    p.add_argument("dataset", help="dataset path or '-'")
    p.add_argument("--by", required=True, help="comma-separated feature labels")

    p = command(
        sub, "product", _cmd_product, mode_parent, out_parent,
        help="product dataset with the max combination of metrics",
    )
    pair_inputs(p)

    p = sub.add_parser("gen", help="emit a generated dataset as JSON")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = command(
        gen_sub, "singleton", _cmd_gen, mode_parent, out_parent,
        help="one point, constant features",
    )
    g.add_argument("--values", required=True, help="comma-separated constants")
    g = command(
        gen_sub, "discrete", _cmd_gen, mode_parent, out_parent,
        help="N points, indicator features",
    )
    g.add_argument("--n", type=int, required=True)
    g = command(
        gen_sub, "random", _cmd_gen, mode_parent, out_parent, help="seeded random dataset"
    )
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--scale", type=int, default=8)
    g = command(
        gen_sub, "levy", _cmd_gen, mode_parent, out_parent,
        help="member N of a vanishing-diameter family, or its od table",
    )
    g.add_argument("--family", choices=["discrete", "product_power"], default="discrete")
    g.add_argument("--n", type=int, required=True, help="member index (1-based)")
    g.add_argument("--base", help="base dataset for product_power")
    g.add_argument("--table", action="store_true", help="CSV of od values for members 1..n")
    g.add_argument("--step", default="1/20", help="kappa grid step for --table")

    p = command(
        sub, "check", _cmd_check, mode_parent,
        help="decide domination or isomorphism between two datasets",
    )
    p.add_argument("relation", choices=["domination", "isomorphism"])
    pair_inputs(p)
    p.add_argument("--budget", type=int, help="map enumeration cap")

    p = command(
        sub, "verify", _cmd_verify, help="run the randomized theorem suite (exit 1 on failure)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit:
            # --help writes its text, then argparse exits; flushed here, a
            # pipe the reader has closed raises below, not at exit.
            sys.stdout.flush()
            raise
        if hasattr(args, "mode"):  # verify has no mode, so ignores GDS_MODE
            args.mode = _resolve_mode(args.mode)
        result = args.func(args)
        if isinstance(result, dict):
            _write(json.dumps(result, indent=2) + "\n", getattr(args, "output", None))
        # Flushed here, a pipe the reader has closed raises below, not at exit.
        sys.stdout.flush()
        return result if isinstance(result, int) else 0  # verify's exit code
    except BrokenPipeError:
        # The reader stopped reading; the rest of the output is not wanted.
        # Point stdout at the null device, so the interpreter's final flush
        # of what is still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except BudgetExceeded as exc:
        print(f"gds: budget: {exc}", file=sys.stderr)
        return 3
    except SchemaError as exc:
        print(f"gds: {exc}", file=sys.stderr)
        return 2
    except GdsError as exc:
        print(f"gds: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

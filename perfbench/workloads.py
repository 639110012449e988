"""The four benchmark workloads: seeded inputs and the operations on them.

Every input is derived from the workload seed through `random_gds` (and
`gds_to_mm` for metric-measure pairs); the program under test only ever
receives those inputs.  Each operation has an exact-mode call and, where
the library offers one, a float-mode call on the same instance.  Every
budget and gate is passed explicitly, so a later change to a default
cannot change which instances run.

Sizes are chosen so that one timed run of 25 s holds several hundred
operations of similar cost.  Instance difficulty is heavy-tailed (a few
pairs need ten times the median work), so only a large sample per run
keeps the median and the tail steady from one seed to the next.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import gds
from gds import cli, dataio

# Explicit budgets: the exact searches never fall back to a library default.
ASSIGNMENT_BUDGET = 70000
SUITE_TRIALS = 10
FLOAT_TOLERANCE = 1e-9


def exact_text(x) -> str:
    """Rational rendering shared by references and checks ("p/q" or "p")."""
    return str(Fraction(x.numerator, x.denominator))


def close_to_exact(value: float, exact: str) -> bool:
    return abs(float(value) - float(Fraction(exact))) <= FLOAT_TOLERANCE


def to_float(X):
    """Float-mode copy of an exact data set (same instance, rounded once)."""
    return gds.GeometricDataSet.build(
        [[float(v) for v in row] for row in X.features.rows],
        [float(w) for w in X.measure.weights],
        feature_labels=X.features.labels,
        mode="float",
    )


def _measure_float(mu):
    return gds.DiscreteMeasure(tuple(float(w) for w in mu.weights), "float")


# ---------------------------------------------------------------------------
# In-process operations
# ---------------------------------------------------------------------------


class LibraryOp:
    """One library call on one instance, in exact and in float mode.

    `prepare()` builds the instance just before the op runs, outside its
    timed call, and `release()` drops it again, so memory does not grow
    with the number of operations a run completes.  `exact()` returns the
    rational as text and `floating()` the float-mode value of the same
    instance.  `traced()` and `traced_float()` are what the traced run
    calls: for library ops, the same two calls.
    """

    has_float = True

    def __init__(self, key: str, build):
        self.key = key
        self._build = build
        self.inputs = None

    def prepare(self):
        if self.inputs is None and self._build is not None:
            self.inputs = self.setup(*self._build())

    def release(self):
        if self._build is not None:
            self.inputs = None

    def floating(self):
        raise NotImplementedError

    def traced(self) -> str:
        return self.exact()

    def traced_float(self):
        return self.floating()

    def float_matches(self, value, exact: str) -> bool:
        return close_to_exact(value, exact)


class DconcOp(LibraryOp):
    def setup(self, X, Y):
        return X, Y, to_float(X), to_float(Y)

    def exact(self):
        X, Y, _, _ = self.inputs
        return exact_text(gds.dconc_exact(X, Y, assignment_budget=ASSIGNMENT_BUDGET).value)

    def floating(self):
        _, _, Xf, Yf = self.inputs
        return float(gds.dconc_exact(Xf, Yf, assignment_budget=ASSIGNMENT_BUDGET).value)


class BoxOp(LibraryOp):
    def setup(self, X, Y):
        return X, Y, to_float(X), to_float(Y)

    def _value(self, X, Y):
        return gds.box_exact(
            X, Y, cell_budget=X.n * Y.n, assignment_budget=ASSIGNMENT_BUDGET
        ).value

    def exact(self):
        return exact_text(self._value(*self.inputs[:2]))

    def floating(self):
        return float(self._value(*self.inputs[2:]))


class BoxMmOp(LibraryOp):
    def setup(self, X, Y):
        Xf, Yf = to_float(X), to_float(Y)
        return tuple(gds.gds_to_mm(Z) for Z in (X, Y, Xf, Yf))

    def exact(self):
        MX, MY, _, _ = self.inputs
        return exact_text(gds.box_mm_exact(MX, MY, cell_budget=MX.n * MY.n))

    def floating(self):
        _, _, MXf, MYf = self.inputs
        return float(gds.box_mm_exact(MXf, MYf, cell_budget=MXf.n * MYf.n))


class ProhorovOp(LibraryOp):
    """Prohorov distance of two measures on the metric of one data set."""

    def __init__(self, key, build, method="flow"):
        super().__init__(key, build)
        self.method = method

    def setup(self, X, nu):
        Xf = to_float(X)
        return (X.measure, nu, X.dist), (Xf.measure, _measure_float(nu), Xf.dist)

    def exact(self):
        return exact_text(gds.prohorov(*self.inputs[0], self.method))

    def floating(self):
        return float(gds.prohorov(*self.inputs[1], self.method))


class PropertyOp(LibraryOp):
    """One property of the randomized theorem suite; exact mode only."""

    has_float = False

    def __init__(self, key, name, seed):
        super().__init__(key, None)
        self.name, self.seed = name, seed

    def exact(self):
        outcome = gds.run_property(self.name, self.seed, SUITE_TRIALS)
        if not outcome.ok:
            raise AssertionError(f"property {self.name} failed: {outcome.example}")
        return f"{outcome.trials}:{outcome.failures}:{outcome.example}"


# ---------------------------------------------------------------------------
# CLI pipes
# ---------------------------------------------------------------------------


class PipeOp:
    """`python -m gds gen random … | python -m gds <cmd> …`.

    The producer emits the exact document; the consumer parses it in exact
    mode (`exact()`) or float mode (`floating()`) and its stdout is
    decoded.  `traced()` and `traced_float()` make the same two
    `gds.cli.main` calls in-process on the same stdin text.  `reference()`
    computes the exact value through the library.  `prepare()` writes the
    op's input file, if it has one.
    """

    def __init__(self, key, gen_args, cmd_args, reference, has_float, env,
                 input_file=None):
        self.key = key
        self.gen_argv = ["gen", "random"] + gen_args
        self.cmd_argv = cmd_args
        self.reference = reference
        self.has_float = has_float
        self.env = env
        self._input_file = input_file  # () -> (path, text)

    def release(self):
        pass

    def prepare(self):
        if self._input_file is not None:
            path, text = self._input_file()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self._input_file = None

    def exact(self):
        return self._pipe("exact")

    def floating(self):
        return self._pipe("float")

    def traced(self):
        return self._in_process("exact")

    def traced_float(self):
        return self._in_process("float")

    def _pipe(self, mode):
        python = [sys.executable, "-m", "gds"]
        producer = subprocess.Popen(
            python + self.gen_argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
        )
        try:
            consumer = subprocess.Popen(
                python + self.cmd_argv + ["--mode", mode],
                stdin=producer.stdout,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=self.env,
            )
        except OSError:
            producer.kill()
            producer.wait()
            raise
        finally:
            producer.stdout.close()
        try:
            out, err = consumer.communicate(timeout=120)
            producer.wait(timeout=120)
        finally:
            for proc in (consumer, producer):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if producer.returncode != 0:
            raise RuntimeError(f"gen exited with {producer.returncode}")
        if consumer.returncode != 0:
            last = err.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(
                f"{self.cmd_argv[0]} exited with {consumer.returncode}: {' '.join(last)}"
            )
        return self.decode(mode, out.decode())

    def _in_process(self, mode):
        produced = _call_main(self.gen_argv, "")
        return self.decode(mode, _call_main(self.cmd_argv + ["--mode", mode], produced))

    def decode(self, mode, text):
        """Exact text (exact mode) or float(s) (float mode) from stdout."""
        if self.cmd_argv[0] == "od":
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            if mode == "exact":
                return ";".join(f"{r[2]}:{r[3]}" for r in rows)
            return [(float(r[0]), float(r[1])) for r in rows]
        payload = json.loads(text)
        if mode == "exact":
            return payload["exact"]
        return float(payload["value"])

    def float_matches(self, value, exact: str) -> bool:
        if self.cmd_argv[0] != "od":
            return close_to_exact(value, exact)
        want = [pair.split(":") for pair in exact.split(";")]
        # Breakpoints that coincide in exact arithmetic can come out of
        # float mode as neighbours one rounding error apart; merge them.
        merged = value[:1]
        for k, v in value[1:]:
            pk, pv = merged[-1]
            if abs(k - pk) > FLOAT_TOLERANCE or abs(v - pv) > FLOAT_TOLERANCE:
                merged.append((k, v))
        value = merged
        return len(value) == len(want) and all(
            close_to_exact(k, wk) and close_to_exact(v, wv)
            for (k, v), (wk, wv) in zip(value, want)
        )


def _call_main(argv, stdin_text):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"{argv[0]} returned {code}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.getrandbits(32)


class Inputs:
    """Two seeded inputs, built on demand: random_gds(n, k) twice, or with
    `measure=True` a random_gds(n, k) and a second measure on its points."""

    def __init__(self, draw, n, k, scale=8, measure=False):
        self.n, self.k, self.scale, self.measure = n, k, scale, measure
        self.seeds = (next(draw), next(draw))

    def __call__(self):
        sx, sy = self.seeds
        first = gds.random_gds(self.n, self.k, seed=sx, scale=self.scale)
        if self.measure:
            return first, gds.random_gds(self.n, 2, seed=sy, scale=64).measure
        return first, gds.random_gds(self.n, self.k, seed=sy, scale=self.scale)

    def gen_args(self):
        """`gen random` arguments that reproduce the first input."""
        return ["--n", str(self.n), "--k", str(self.k), "--seed", str(self.seeds[0]),
                "--scale", str(self.scale)]

    def other(self):
        """`--other` spec that reproduces the second input."""
        return f"random:{self.n},{self.k},{self.seeds[1]},{self.scale}"


class Workload:
    """A named, seeded sequence of operations.

    Operation i is of kind i % cycle, so `cycle` consecutive operations
    hold every kind once; the timed run's statistics use whole rounds of
    them only, so where a run stops does not change its mix of kinds.
    tail_pct is the percentile latency_s.tail reports: the highest with
    at least ten samples beyond it in every 25 s run on the 2-vCPU Xeon
    (2.1 GHz) the percentiles were chosen on.
    scaled says whether its times are scaled to reference seconds by the
    speed kernel (see speed.py).

    pool_rate and traced_rate are operations per second of --seconds.  The
    timed run lists ceil(seconds * pool_rate) operations, about 1.5 times
    what gds completed when the rates were set (it cycles if a faster
    program runs out); the traced run times exactly
    ceil(seconds * traced_rate) of them, so its call counts depend on the
    seed and --seconds alone.
    """

    name = ""
    cycle = 1
    tail_pct = 90
    scaled = True
    pool_rate = 1.0
    traced_rate = 1.0

    def pool(self, seed: int, count: int) -> list:
        draw = _seeds(self.name, seed)
        return [self.make(i, draw) for i in range(count)]

    def make(self, i: int, draw):
        raise NotImplementedError

    def extra_checks(self, seed: int) -> list:
        """(key, check) pairs run once after the timed phase."""
        return []


class DconcLp(Workload):
    """Exact dconc: the simplex LP holds 80-90% of the time, flows a sliver."""

    name = "dconc-lp"
    # (n, k) per op, cycled.  At these sizes the LP holds 80-90% of exact
    # time; at n >= 6 a 25 s run holds too few solves to be steady.
    classes = ((3, 2), (4, 2), (2, 3), (4, 2))
    cycle = len(classes)
    tail_pct = 98
    pool_rate = 70.0
    traced_rate = 16.0

    def make(self, i, draw):
        n, k = self.classes[i % len(self.classes)]
        return DconcOp(f"{i}:dconc n={n} k={k}", Inputs(draw, n, k))


class BoxFlow(Workload):
    """Box, box --mm and Prohorov by flow: max-flow bound, no LP."""

    name = "box-flow"
    # (kind, n, k): box and mm compare two n-point sets (an n x n cell
    # grid); Prohorov compares two measures on n points.  Each costs
    # 30-120 ms on a 2.1 GHz Xeon vCPU, so the mixture has no gap for a
    # percentile to sit in.
    classes = (
        ("box", 12, 2),
        ("prohorov", 30, 2),
        ("box", 8, 3),
        ("mm", 5, 2),
        ("box", 16, 2),
        ("prohorov", 40, 2),
        ("box", 10, 3),
        ("box", 20, 2),
    )
    cycle = len(classes)
    tail_pct = 96
    pool_rate = 22.0
    traced_rate = 5.0

    def make(self, i, draw):
        kind, n, k = self.classes[i % len(self.classes)]
        key = f"{i}:{kind} n={n} k={k}"
        scale = 32 if n > 8 else 8
        if kind == "prohorov":
            return ProhorovOp(key, Inputs(draw, n, k, scale, measure=True))
        build = Inputs(draw, n, k, scale)
        return (BoxMmOp if kind == "mm" else BoxOp)(key, build)

    def extra_checks(self, seed):
        """Prohorov by flow equals brute force on small spaces (n <= 8)."""
        draw = _seeds(self.name + "/brute", seed)
        checks = []
        for n in (5, 6, 7, 8):
            build = Inputs(draw, n, 2, measure=True)
            flow = ProhorovOp(f"prohorov n={n}", build, "flow")
            brute = ProhorovOp(f"prohorov n={n}", build, "brute")

            def check(flow=flow, brute=brute):
                flow.prepare()
                brute.prepare()
                return flow.exact() == brute.exact()

            checks.append((f"prohorov n={n} brute=flow", check))
        return checks


class SuiteSmall(Workload):
    """The 47 suite properties: hundreds of tiny solves, per-call set-up shows."""

    name = "suite-small"
    cycle = len(gds.property_names())
    tail_pct = 97
    pool_rate = 22.0
    traced_rate = 6.0

    def pool(self, seed, count):
        names = gds.property_names()
        draw = _seeds(self.name, seed)
        rounds = [next(draw) for _ in range(-(-count // len(names)))]
        return [
            PropertyOp(f"{i}:{names[i % len(names)]}", names[i % len(names)],
                       rounds[i // len(names)])
            for i in range(count)
        ]


class CliPipe(Workload):
    """gen | cmd pipes: interpreter start, import, dataio and cli dominate."""

    name = "cli-pipe"
    # dconc, box, od and prohorov in turn, in exact mode; one op in four
    # also runs its pipe in float mode, rotating through the commands.
    commands = ("dconc", "box", "od", "prohorov")
    cycle = len(commands)
    tail_pct = 85
    scaled = False
    pool_rate = 9.0
    traced_rate = 4.0

    def __init__(self, workdir: str = "", env=None):
        self.workdir = workdir
        self.env = env

    def make(self, i, draw):
        cycle, slot = divmod(i, len(self.commands))
        cmd = self.commands[slot]
        has_float = cycle % len(self.commands) == slot
        key = f"{i}:{cmd}"

        def pipe(build, cmd_args, reference, input_file=None):
            return PipeOp(key, build.gen_args(), cmd_args, reference, has_float,
                          self.env, input_file)

        if cmd == "dconc":
            build = Inputs(draw, 4, 2)
            return pipe(
                build,
                ["dconc", "--other", build.other(), "--exact",
                 "--budget", str(ASSIGNMENT_BUDGET)],
                lambda: exact_text(
                    gds.dconc_exact(*build(), assignment_budget=ASSIGNMENT_BUDGET).value
                ),
            )
        if cmd == "box":
            build = Inputs(draw, 6, 2)
            return pipe(
                build,
                ["box", "--other", build.other(), "--exact",
                 "--cells", "36", "--budget", str(ASSIGNMENT_BUDGET)],
                lambda: exact_text(
                    gds.box_exact(*build(), cell_budget=36,
                                  assignment_budget=ASSIGNMENT_BUDGET).value
                ),
            )
        if cmd == "od":
            build = Inputs(draw, 8, 3)

            def od_rows():
                X, _ = build()
                return ";".join(
                    f"{exact_text(kap)}:{exact_text(gds.observable_diameter(X, kap))}"
                    for kap in gds.od_breakpoints(X)
                )

            return pipe(build, ["od", "-"], od_rows)
        build = Inputs(draw, 8, 2, measure=True)
        path = os.path.join(self.workdir, f"prohorov-{i}-{build.seeds[0]}.json")

        def reweighted():
            # Same features as the generated input, other weights: one metric.
            Y, nu = build()
            return Y, gds.GeometricDataSet.build(
                Y.features.rows, nu.weights, feature_labels=Y.features.labels
            )

        def prohorov_value():
            Y, X = reweighted()
            return exact_text(gds.prohorov(X.measure, Y.measure, X.dist, "flow"))

        return pipe(
            build,
            ["prohorov", path, "--method", "flow"],
            prohorov_value,
            input_file=lambda: (path, dataio.emit_gds(reweighted()[1])),
        )


WORKLOADS = {w.name: w for w in (DconcLp, BoxFlow, SuiteSmall, CliPipe)}


def pool_size(workload, seconds: float) -> int:
    """Whole rounds of kinds, so cycling through the pool keeps them aligned."""
    rounds = math.ceil(max(8, seconds * workload.pool_rate) / workload.cycle)
    return rounds * workload.cycle


def traced_size(workload, seconds: float) -> int:
    return max(4, math.ceil(seconds * workload.traced_rate))

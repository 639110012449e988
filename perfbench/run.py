#!/usr/bin/env python3
"""Benchmark of the gds library and CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload dconc-lp --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout with no install: the package is
imported from ./src and the CLI is started as `python -m gds` with
PYTHONPATH=src.  A single client runs one operation at a time (closed
loop), so at most two processes (one pipe) run at once.

--trace 0 runs operations for --seconds with no tracing and reports the
end-to-end metrics.  --trace 1 takes a fixed number of operations (set by
the seed and --seconds alone), times them once untraced and once with a
span around every layer function, and reports the per-layer metrics.

End-to-end times of in-process workloads and set-up times are in
reference seconds: wall time scaled by the host's speed, which a fixed
kernel timed during the run measures (see speed.py); pipe times are wall
seconds.

Every output is checked, and every run also checks the first operations
of the reference seed against refs.json.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a readable report and a JSON record of the
environment.  The exit code is 0 when every output was correct, 1
otherwise, and 2 when the checkout holds no gds sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import NEIGHBOURS, REFERENCE_S, SpeedLog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFS = os.path.join(HERE, "refs.json")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# Reference-seed operations every run checks against refs.json, at least.
REF_CHECK_OPS = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only", action="store_true",
        help="build the operation list and warm up, then exit (times setup_s)",
    )
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Session:
    """The operations of one run, listed and warmed up.

    This is what setup_s measures: importing gds, drawing the seeds of
    every instance, building the first one and a warm-up call on it.
    The other instances are built just before they first run.
    """

    def __init__(self, args):
        import workloads

        cls = workloads.WORKLOADS[args.workload]
        self.seed = args.seed
        self.workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        if cls is workloads.CliPipe:
            os.makedirs(self.workdir, exist_ok=True)
            self.workload = cls(self.workdir, child_env())
        else:
            self.workload = cls()
        size = (workloads.traced_size if args.trace else workloads.pool_size)(
            self.workload, args.seconds
        )
        self.ops = self.workload.pool(args.seed, size)
        self.ops[0].prepare()
        self.ops[0].exact()  # warm-up

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def timed_setups(args):
    """Set-up time of fresh processes: (median in reference seconds, wall samples).

    The speed kernel is timed just before and just after each one.
    """
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--setup-only",
    ]
    samples, scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed = SpeedLog()
        for _ in range(NEIGHBOURS):
            speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-500:]}")
        for _ in range(NEIGHBOURS):
            speed.sample()
        samples.append(wall)
        scaled.append(wall * REFERENCE_S / speed.median_s())
    return statistics.median(scaled), samples


def import_time():
    """Seconds `import gds` takes in a fresh interpreter, median of several."""
    code = "import time; t = time.perf_counter(); import gds; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=child_env(), timeout=60, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Checker:
    """Counts operations, failures and float-mode errors.

    An operation fails when its exact call raises (a declined budget
    included) or when its exact output differs from the stored reference
    (reference seed only) or from its own earlier output.  A float call
    that raises, or whose output lies farther than 1e-9 from the exact
    one, is a float-mode error: counted and shown on every run, but not a
    failed operation, since exact mode is the product and float mode only
    its yardstick.
    """

    def __init__(self, workload, seed):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.float_calls = 0
        self.float_errors = []
        self.first = {}
        with open(REFS, encoding="utf-8") as handle:
            stored = json.load(handle)
        self.ref_seed = stored["seed"]
        self.ref_values = stored["workloads"][workload]
        self.refs = self.ref_values if seed == self.ref_seed else {}

    def fail(self, key, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{key}: {message}")

    def attempt(self, key, fn):
        """Run fn() as one operation; (True, value) or (False, None)."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # any exception is a failed operation
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return False, None

    def exact_ok(self, key, value):
        want = self.refs.get(key)
        if want is not None and value != want:
            self.fail(key, f"got {value}, reference {want}")
            return False
        seen = self.first.setdefault(key, value)
        if seen != value:
            self.fail(key, f"got {value}, earlier {seen}")
            return False
        return True

    def measure(self, op, exact_call, float_call):
        """Time op's exact call and, if it has one, its float call.

        Returns (exact value or None, exact seconds or None, float seconds
        or None); a time is None when its call raised.
        """
        t0 = time.perf_counter()
        ok, value = self.attempt(op.key, exact_call)
        exact_s = time.perf_counter() - t0
        if not ok:
            return None, None, None
        if not self.exact_ok(op.key, value) or not op.has_float:
            return value, exact_s, None
        self.float_calls += 1
        t0 = time.perf_counter()
        try:
            fvalue = float_call()
        except Exception as exc:  # recorded as a float-mode error
            self.float_errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return value, exact_s, None
        float_s = time.perf_counter() - t0
        if not op.float_matches(fvalue, value):
            self.float_errors.append(f"{op.key}: float {fvalue} vs exact {value}")
        return value, exact_s, float_s

    def report(self):
        lines = [
            f"failed_ratio {self.failed / max(1, self.attempted):.4f} "
            f"({self.failed}/{self.attempted})",
            f"float_errors {len(self.float_errors)} of {self.float_calls} float calls",
        ]
        lines += [f"FAILED {e}" for e in self.errors]
        lines += [f"FLOAT-ERROR {e[:300]}" for e in self.float_errors[:3]]
        return lines


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = -(-pct * len(sorted_values) // 100)
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


# ---------------------------------------------------------------------------
# Timed run
# ---------------------------------------------------------------------------


def timed_run(args, session, checker):
    """Closed loop for --seconds of timed phase, timing the speed kernel as
    it goes if the workload's times are scaled.

    Inputs are built the first time an op runs, outside its timed calls,
    and that build time is left out of the timed phase.  Returns the
    samples [(start, exact s, float s or None)], the speed log, the number
    of operations and the timed phase in wall seconds.
    """
    ops = session.ops
    scaled = session.workload.scaled
    speed = SpeedLog()
    samples = []
    building = 0.0
    start = time.perf_counter()
    done = 0
    while time.perf_counter() - start - building < args.seconds:
        if scaled:
            speed.maybe_sample()
        op = ops[done % len(ops)]
        done += 1
        t0 = time.perf_counter()
        try:
            op.prepare()
        except Exception as exc:  # the op cannot run: a failed operation
            checker.attempted += 1
            checker.fail(op.key, f"inputs: {type(exc).__name__}: {exc}")
            continue
        finally:
            building += time.perf_counter() - t0
        t0 = time.perf_counter()
        _, exact_s, float_s = checker.measure(op, op.exact, op.floating)
        op.release()
        if exact_s is not None:
            samples.append((t0, exact_s, float_s))
    wall = time.perf_counter() - start - building
    if scaled:
        speed.sample()
    return samples, speed, done, wall


def check_references(session, checker):
    """The first whole rounds of the reference seed's operations against
    refs.json, untimed, so that a changed exact value fails a run on any
    seed."""
    wl = session.workload
    count = -(-REF_CHECK_OPS // wl.cycle) * wl.cycle
    for op in wl.pool(checker.ref_seed, count):
        op.prepare()
        ok, value = checker.attempt(op.key + " reference", op.exact)
        op.release()
        want = checker.ref_values[op.key]
        if ok and value != want:
            checker.fail(op.key, f"reference seed: got {value}, reference {want}")


def check_library(session, checker):
    """CLI outputs against the library value of the same instance, and the
    one-off checks the workload defines."""
    for op in session.ops:
        if op.key in checker.first and hasattr(op, "reference"):
            ok, expected = checker.attempt(op.key + " library", op.reference)
            if ok and checker.first[op.key] != expected:
                checker.fail(op.key, f"cli {checker.first[op.key]}, library {expected}")
    for key, check in session.workload.extra_checks(session.seed):
        ok, good = checker.attempt(key, check)
        if ok and not good:
            checker.fail(key, "check failed")


def end_to_end(args, session, checker):
    samples, speed, done, wall = timed_run(args, session, checker)
    children = session.workload.name == "cli-pipe"
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    check_library(session, checker)
    check_references(session, checker)
    setup_s, setup_samples = timed_setups(args)
    cycle = session.workload.cycle
    if len(samples) >= cycle:
        del samples[len(samples) - len(samples) % cycle:]
    if not samples:
        raise RuntimeError("no operation completed")

    exact, floats, raw = [], [], []
    work = 0.0
    scaled = session.workload.scaled
    for t0, exact_s, float_s in samples:
        scale = speed.scale(t0) if scaled else 1.0
        raw.append(exact_s)
        exact.append(exact_s * scale)
        work += exact_s * scale
        if float_s is not None:
            floats.append(float_s * scale)
            work += float_s * scale
    exact.sort()
    tail_pct = session.workload.tail_pct
    tail = percentile(exact, tail_pct)
    beyond = sum(1 for v in exact if v > tail)
    float_p50 = statistics.median(floats) if floats else None
    metrics = {
        "latency_s.p50": (statistics.median(exact), "s"),
        "latency_s.tail": (tail, "s"),
        "throughput_ops_s": (len(exact) / work, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "exact_ops": len(exact),
        "float_calls": len(floats),
        "timed_phase_s": wall,
        "wall_ops_s": done / wall,
        "wall_latency_s.p50": statistics.median(raw),
        "wall_setup_s": setup_samples,
        "reference_seconds": scaled,
        "speed_kernel_s.p50": speed.median_s() if scaled else None,
        "speed_kernel_samples": len(speed.took),
        "tail_percentile": tail_pct,
        "latency_s.percentiles": {p: percentile(exact, p) for p in (75, 90, 95, 98, 99)},
        "samples_beyond_tail": beyond,
        "float_latency_s.p50": float_p50,
        "failed_ratio": checker.failed / max(1, checker.attempted),
        "float_errors": len(checker.float_errors),
    }
    lines = [
        f"timed phase {wall:.2f} s wall: {done} ops, {done / wall:.3f} ops/s; " + (
            f"times in reference seconds, speed kernel {speed.median_s() * 1e3:.3f} ms "
            f"median of {len(speed.took)} (reference {REFERENCE_S * 1e3:g} ms)"
            if scaled else "times in wall seconds"),
        f"latency_s.p50 {metrics['latency_s.p50'][0]:.6f} s (median of {len(exact)} exact ops, "
        f"{len(exact) // cycle} whole rounds of {cycle} kinds; "
        f"{statistics.median(raw):.6f} s wall)",
        f"latency_s.tail {tail:.6f} s (p{tail_pct}, {beyond} samples beyond)",
        f"throughput_ops_s {metrics['throughput_ops_s'][0]:.3f} 1/s "
        f"({len(exact)} ops in {work:.3f} s, float calls included)",
        "float_latency_s.p50 " + (
            f"{float_p50:.6f} s (median of {len(floats)} float calls)"
            if floats else "n/a (no float-mode calls)"),
        f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS} fresh processes; wall "
        + ", ".join(f"{v:.4f}" for v in setup_samples) + ")",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB"
        + (" (largest child process)" if children else ""),
    ]
    return metrics, info, lines


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced_run(args, session, checker):
    """Each op untraced (exact, then float), then straight away traced.

    Running the two passes of one op back to back keeps slow drifts of the
    machine out of trace.overhead_s.
    """
    from tracing import LAYERS, Tracer

    ops = session.ops
    exact_s, float_s = [], []
    untraced = 0.0
    tracer = Tracer()
    for idx, op in enumerate(ops):
        op.prepare()
        value, e_s, f_s = checker.measure(op, op.traced, op.traced_float)
        if e_s is None:
            op.release()
            continue
        exact_s.append(e_s)
        untraced += e_s
        if f_s is not None:
            float_s.append(f_s)
        tracer.install()
        try:
            ok, traced_value = checker.attempt(
                op.key + " traced", lambda: tracer.op(idx, "op", op.traced)
            )
        finally:
            tracer.uninstall()
        op.release()
        if ok and traced_value != value:
            checker.fail(op.key, f"traced output {traced_value}, untraced {value}")
    traced = tracer.total_s("op")
    check_references(session, checker)

    n_ops = len(ops)
    metrics = {}
    for mod, fn in LAYERS:
        name = f"{mod}.{fn}"
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        metrics[f"{name}.calls_per_op"] = (tracer.calls.get(name, 0) / n_ops, "count/op")
        metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    exact_p50 = statistics.median(exact_s) if exact_s else 0.0
    float_p50 = statistics.median(float_s) if float_s else 0.0
    # 0 marks a workload with no float-mode calls.
    metrics["numerics.exact_over_float"] = (exact_p50 / float_p50 if float_p50 else 0.0, "ratio")
    metrics["numerics.float_latency_s.p50"] = (float_p50, "s")
    metrics["numerics.float_errors"] = (len(checker.float_errors), "count")
    metrics["cli.import_s"] = (import_time(), "s")
    metrics["trace.ops"] = (n_ops, "count")
    metrics["trace.op_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz")
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "ops": n_ops})

    lines = [f"traced {n_ops} ops: {traced:.3f} s traced, {untraced:.3f} s untraced; "
             f"spans in {os.path.relpath(spans_path, ROOT)}"]
    for mod, fn in LAYERS:
        name = f"{mod}.{fn}"
        calls = tracer.calls.get(name, 0)
        self_s = tracer.self_s(name)
        lines.append(
            f"  {name:<30} calls {calls:>8}  per op {calls / n_ops:>9.3f}  "
            f"self {self_s:>8.4f} s  share {self_s / traced if traced else 0:.3f}"
        )
    lines += [
        f"  numerics.exact_over_float {metrics['numerics.exact_over_float'][0]:.3f} "
        f"(p50 {exact_p50:.6f} s exact, {float_p50:.6f} s float)",
        f"  cli.import_s {metrics['cli.import_s'][0]:.4f} s",
        f"  trace.overhead_s {metrics['trace.overhead_s'][0]:.4f} s",
    ]
    info = {"spans": os.path.relpath(spans_path, ROOT), "span_count": len(tracer.spans),
            "float_errors": len(checker.float_errors)}
    return metrics, info, lines


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over src/gds/*.py, to tell checkouts apart without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gds")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment(args):
    import gds.numerics

    backend = type(gds.numerics.Q(0))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": f"{backend.__module__}.{backend.__name__}",
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gds", "__init__.py")):
        print(f"perfbench: no gds sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    session = Session(args)
    try:
        if args.setup_only:
            return 0
        checker = Checker(args.workload, args.seed)
        if args.trace:
            metrics, info, lines = traced_run(args, session, checker)
        else:
            metrics, info, lines = end_to_end(args, session, checker)
    finally:
        session.close()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in lines + checker.report():
        print(line)
    print(json.dumps({"record": {"env": environment(args), **info}}))
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the library's layer functions, installed from outside.

The library has no instrumentation of its own, so the traced run replaces
each layer function with a timing wrapper wherever a module of the package
binds it.  Consumers import kernels by name (`gds.box`, `gds.metrics` and
`gds.coupling` each bind `max_flow_on_cells`; `gds.observable` binds
`feasibility_lp`), so patching only the defining module would miss them.

A span is (id, parent id, op id, name, start, end) with perf_counter_ns
times.  Spans stay in memory and are written when the run ends.  A
layer's self time is its span time minus the time of the traced spans
directly nested in it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (module, function) pairs; the span name is "<module>.<function>".
LAYERS = (
    ("coupling", "feasibility_lp"),
    ("coupling", "max_mass_on_set"),
    ("coupling", "enumerate_couplings"),
    ("flows", "max_flow_on_cells"),
    ("metrics", "prohorov_weights"),
    ("metrics", "ky_fan_coupling"),
    ("observable", "dconc_exact"),
    ("box", "box_exact"),
    ("box", "box_mm_exact"),
    ("dataio", "parse_gds"),
    ("dataio", "emit_gds"),
    ("cli", "main"),
)


class Tracer:
    """Collects spans and per-layer call counts and self time."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.self_ns = {}
        self.total_ns = {}
        self._stack = []  # [span id, name, start, nested ns]
        self._next_id = 0
        self.op_id = -1
        self._restore = []

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def _exit(self):
        end = time.perf_counter_ns()
        span_id, name, start, nested = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - nested
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.spans.append(
            (span_id, parent[0] if parent else 0, self.op_id, name, start, end)
        )

    def op(self, op_id, name, fn):
        """Run fn() as the root span of one operation."""
        self.op_id = op_id
        self._enter(name)
        try:
            return fn()
        finally:
            self._exit()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def install(self):
        """Replace every binding of each layer function in the package."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "gds" or key.startswith("gds."))
        ]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"gds.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_s(self, name):
        return self.self_ns.get(name, 0) / 1e9

    def total_s(self, name):
        return self.total_ns.get(name, 0) / 1e9

    def write(self, path, extra):
        """Spans as gzipped JSON lines, then one line of totals."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "start_ns", "end_ns"), span
                ))) + "\n")
            totals = {
                "calls": self.calls,
                "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            }
            totals.update(extra)
            out.write(json.dumps({"totals": totals}) + "\n")

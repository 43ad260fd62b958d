"""Spans around memwave's layer boundaries, installed only for a traced run.

`Tracer.install` replaces the module-level names through which one layer of
memwave calls the next with wrappers that record a span (name, start, end,
parent span, operation id) in memory; `uninstall` puts the originals back.
Nothing under src/ changes.  A boundary whose name no longer exists is
skipped and its metrics read 0 calls.  Boundaries in COUNT_ONLY are counted
without a span, so their time stays in the enclosing span's self time.

Counts come in two kinds: *measured* ones are observed at a boundary (grid
points passed to the kernel transform, CG iterations, CSV bytes written),
*computed* ones are derived from array shapes (bytes the memory sum reads,
bytes the history buffers hold).  The span file labels each.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path, span name); several names may share one span name
BOUNDARIES = (
    ("memwave.cli", "main", "cli.main"),
    ("memwave.cli", "parse_config", "cli.parse_config"),
    ("memwave.cli", "assemble", "fem.assemble"),
    ("memwave.stepper", "assemble", "fem.assemble"),
    ("memwave.cli", "run", "stepper.run"),
    ("memwave.cli", "build_weight_table", "quadweights.build_weight_table"),
    ("memwave.stepper", "build_weight_table", "quadweights.build_weight_table"),
    ("memwave.quadweights", "_interval_moments", "quadweights.moment_passes"),
    ("memwave.quadweights", "transform_grid", "kernel.transform_grid"),
    ("memwave.quadweights", "WeightTable.coefficients", "quadweights.coefficients"),
    ("memwave.stepper", "taylor_start", "stepper.taylor_start"),
    ("memwave.stepper", "step", "stepper.step"),
    ("memwave.stepper", "damping_value", "stepper.damping_value"),
    ("memwave.stepper", "solveh_banded", "stepper.solve"),
    ("memwave.stepper", "cg", "stepper.solve"),
    ("memwave.stepper", "SimulationHistory.push", "stepper.push"),
    ("memwave.cli", "collect_diagnostics", "diagnostics.collect_diagnostics"),
    ("memwave.diagnostics", "discrete_energy", "diagnostics.discrete_energy"),
    ("memwave.diagnostics", "a_norm", "diagnostics.a_norm"),
    ("memwave.cli", "self_error_time", "diagnostics.self_error_time"),
    ("memwave.cli", "write_energy_csv", "diagnostics.csv_write"),
)

# boundaries that are counted but open no span: the moment passes are the
# table build's own work, so their time belongs to its self time
COUNT_ONLY = ("quadweights.moment_passes",)

SELF_TIMES = (
    "kernel.transform_grid", "quadweights.build_weight_table", "quadweights.coefficients",
    "fem.assemble", "stepper.run", "stepper.step", "stepper.solve",
    "stepper.damping_value", "stepper.push", "stepper.taylor_start",
    "diagnostics.collect_diagnostics", "diagnostics.discrete_energy", "diagnostics.a_norm",
    "diagnostics.self_error_time", "diagnostics.csv_write", "cli.parse_config", "cli.main",
)
CALLS = ("kernel.transform_grid", "quadweights.build_weight_table", "stepper.step",
         "stepper.solve")
MEASURED = ("kernel.points", "quadweights.moment_passes", "stepper.cg.iterations",
            "diagnostics.csv_bytes")
COMPUTED = ("stepper.memory_sum_bytes", "stepper.history_bytes")


def _owner(module_name: str, path: str):
    """The object holding the last part of a dotted name, and that part."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner, attr


def _resolve(module_name: str, path: str):
    owner, attr = _owner(module_name, path)
    return getattr(owner, attr, None)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or None, op)
        self.errors = Counter()
        self.counts = defaultdict(float)
        self.op = None
        self.missing = []
        self._stack = []
        self._patched = []
        self._ndof = 0

    # -- hooks that derive counts at a boundary -------------------------------

    def _before(self, path, args, kwargs):
        if path == "run":
            mesh = _arg(args, kwargs, 1, "mesh")
            self._ndof = int(getattr(mesh, "n_interior", 0))
        elif path == "cg" and "callback" not in kwargs:
            def count_iteration(_xk):
                self.counts["stepper.cg.iterations"] += 1
            kwargs["callback"] = count_iteration
        return kwargs

    def _after(self, path, span, args, kwargs, result):
        counts = self.counts
        if span == "kernel.transform_grid":
            counts["kernel.points"] += np.size(_arg(args, kwargs, 1, "times"))
        elif span == "quadweights.coefficients":
            counts["stepper.memory_sum_bytes"] += 8.0 * (np.size(result) - 1) * self._ndof
        elif span == "stepper.run":
            fields = getattr(result, "__dict__", {}).values()
            held = sum(v.nbytes for v in fields if isinstance(v, np.ndarray))
            counts["stepper.history_bytes"] = max(counts["stepper.history_bytes"], held)
        elif span == "diagnostics.csv_write":
            counts["diagnostics.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif path == "cg" and result[1] != 0:
            self.errors[span] += 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, path, span):
        spans, stack = self.spans, self._stack

        if span in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[span] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kwargs = self._before(path, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[span] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, self.op)
            self._after(path, span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, span in BOUNDARIES:
            owner, attr = _owner(module_name, path)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, path, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation per-layer metrics over every traced operation."""
        self_s = defaultdict(float)
        calls = Counter()
        steps_by_run = defaultdict(list)
        for name, start, end, parent, _op in self.spans:
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent is not None:
                self_s[self.spans[parent][0]] -= dur
                if name == "stepper.step":
                    steps_by_run[parent].append(dur)
        first, last = [], []
        for durs in steps_by_run.values():
            k = max(1, len(durs) // 10)
            first += durs[:k]
            last += durs[-k:]

        per_op = 1.0 / max(n_ops, 1)
        out = {f"{name}.self_s": self_s[name] * per_op for name in SELF_TIMES}
        out.update({f"{name}.calls": calls[name] * per_op for name in CALLS})
        out["stepper.solve.errors"] = self.errors["stepper.solve"] * per_op
        passes = self.counts["quadweights.moment_passes"]
        builds = calls["quadweights.build_weight_table"]
        out["quadweights.pass_yield"] = builds / passes if passes else 0.0
        out["stepper.step.first_decile_ms"] = 1e3 * statistics.median(first) if first else 0.0
        out["stepper.step.last_decile_ms"] = 1e3 * statistics.median(last) if last else 0.0
        for name in MEASURED + COMPUTED:
            scale = 1.0 if name == "stepper.history_bytes" else per_op
            out[name] = self.counts[name] * scale
        return out

    def write(self, path, header: dict) -> None:
        """All spans and counts as JSON lines; the first line is `header`."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"type": "header", **header}) + "\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "type": "span", "id": index, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op,
                }) + "\n")
            for name in MEASURED + COMPUTED:
                kind = "computed" if name in COMPUTED else "measured"
                handle.write(json.dumps({
                    "type": "count", "name": name, "value": self.counts[name], "kind": kind,
                }) + "\n")
            for name in self.missing:
                handle.write(json.dumps({"type": "missing", "name": name}) + "\n")

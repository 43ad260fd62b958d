"""One benchmark process: import memwave, write the configs, run and check operations.

Started by run.py, never by hand.  The first line it prints is
{"ready": true} once `memwave.cli` is imported and the configs are written,
so the parent can time set-up on its own clock.  With --setup-only it stops
there; otherwise it warms up on miniature runs, then runs whole operations
for up to --seconds (at least one) and prints one JSON line with the
samples.  It starts another operation only while one as long as the last
would still end within --seconds.  With --trace 1 every untraced operation
is followed by a traced one, so the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import memwave.cli as cli  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from checks import check_call  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _write_configs(calls, out: Path) -> dict[str, Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for call in calls:
        path = out / f"{call.label}.ini"
        path.write_text(call.ini())
        paths[call.label] = path
    return paths


def run_operation(calls, configs, out: Path, reference=None):
    """Run every call once; return (wall, cpu, problems) with the output checked."""
    for call in calls:
        shutil.rmtree(out / call.label, ignore_errors=True)
    problems = []
    sink = io.StringIO()
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    for call in calls:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(call.argv(configs[call.label], out / call.label))
        except Exception:  # a crash is a failed operation, not a failed benchmark
            problems.append(f"{call.label}: {traceback.format_exc().splitlines()[-1]}")
            continue
        if code != 0:
            problems.append(f"{call.label}: memwave exited with {code}: {sink.getvalue()[-300:]}")
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    if not problems:
        for call in calls:
            ref = None if reference is None else reference[call.label]
            problems += check_call(call, out / call.label, ref)
    return wall, cpu, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    calls = workloads.calls(args.workload, args.seed)
    configs = _write_configs(calls, out)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"memwave was imported from {cli.__file__}, not from {ROOT / 'src'}")
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    warm = tuple(call.miniature() for call in calls)
    run_operation(warm, _write_configs(warm, out / "warmup"), out / "warmup")

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    walls, cpus, traced_walls, failures = [], [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        wall, cpu, problems = run_operation(calls, configs, out, reference)
        walls.append(wall)
        cpus.append(cpu)
        if problems:
            failures.append("; ".join(problems))
        if tracer is not None:
            tracer.op = len(traced_walls)
            tracer.install()
            try:
                wall, _cpu, problems = run_operation(calls, configs, out, reference)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            if problems:
                failures.append("; ".join(problems))
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:  # the next one would overrun
            break

    result = {
        "attempted": len(walls) + len(traced_walls),
        "failures": failures,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        layer = tracer.metrics(len(traced_walls))
        layer["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["per_layer"] = layer
        result["traced_wall_s"] = traced_walls
        span_file = out / "spans.jsonl"
        provenance = json.loads((out / "provenance.json").read_text())
        tracer.write(span_file, {**provenance, **result["versions"],
                                 "operations": len(traced_walls)})
        result["span_file"] = str(span_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CPU time per thread of a benchmark workload's operations, run in-process.

    python tools/threads.py WORKLOAD [--seed S] [--ops N]

Loads this tree's `perfbench/workloads.py` and `src/memwave`, writes each
call's config to a temporary directory and runs the workload's calls
through `memwave.cli.main`: once on their miniature runs, to warm up, then
N whole operations (default 5).  One line per operation gives its wall
time, the CPU time of the main thread and that of every other thread of
the process (numpy's BLAS workers), read from /proc/self/task before and
after it.  A first line gives both CPU times spent before the warm-up,
which is where `import numpy` starts its BLAS workers.  Linux only; the
standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import memwave.cli as cli  # noqa: E402


def load_workloads():
    """This tree's `perfbench/workloads.py` module."""
    spec = importlib.util.spec_from_file_location("memwave_tools_threads_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def cpu_seconds() -> tuple[float, float]:
    """(main thread, every other live thread) CPU seconds of this process,
    user plus system, from /proc/self/task; a thread that has exited no
    longer counts."""
    tick = os.sysconf("SC_CLK_TCK")
    main = other = 0.0
    for task in Path("/proc/self/task").iterdir():
        try:
            stat = (task / "stat").read_text()
        except FileNotFoundError:  # the thread exited meanwhile
            continue
        fields = stat[stat.rindex(")") + 2:].split()  # from field 3, state, on
        spent = (int(fields[11]) + int(fields[12])) / tick  # fields 14 and 15
        if int(task.name) == os.getpid():
            main += spent
        else:
            other += spent
    return main, other


def operation(calls, where: Path) -> tuple[float, float, float]:
    """Run every call once through `memwave.cli.main`, writing to `where`:
    (wall, main-thread CPU, other-thread CPU) seconds.  RuntimeError if a
    call exits nonzero."""
    where.mkdir(parents=True, exist_ok=True)
    configs = {}
    for call in calls:
        configs[call.label] = where / f"{call.label}.ini"
        configs[call.label].write_text(call.ini())
    sink = io.StringIO()
    wall0, (main0, other0) = time.perf_counter(), cpu_seconds()
    for call in calls:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(call.argv(configs[call.label], where / call.label))
        if code != 0:
            raise RuntimeError(f"{call.label}: memwave exited with {code}: {sink.getvalue()}")
    wall, (main1, other1) = time.perf_counter() - wall0, cpu_seconds()
    return wall, main1 - main0, other1 - other0


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--ops", type=int, default=5)
    args = parser.parse_args(argv)
    calls = workloads.calls(args.workload, args.seed)
    main_cpu, other_cpu = cpu_seconds()
    print(f"{'':10s} {'wall_s':>8s} {'main_cpu_s':>11s} {'other_cpu_s':>12s}")
    print(f"{'start':10s} {'':8s} {main_cpu:11.3f} {other_cpu:12.3f}", flush=True)
    with tempfile.TemporaryDirectory() as scratch:
        rows = [("warm-up", tuple(call.miniature() for call in calls))]
        rows += [(f"op {k}", calls) for k in range(1, args.ops + 1)]
        for k, (label, run) in enumerate(rows):
            wall, main_cpu, other_cpu = operation(run, Path(scratch) / str(k))
            print(f"{label:10s} {wall:8.3f} {main_cpu:11.3f} {other_cpu:12.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

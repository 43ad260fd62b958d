"""memwave benchmark: one command for every workload, end-to-end or traced.

    python3 perfbench/run.py --workload long_1d --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory, nothing is installed.  The benchmark

1. starts fresh worker processes, each importing memwave.cli and writing
   the workload's configs: SETUP_RUNS before the measuring worker, the
   measuring worker itself, and SETUP_RUNS after it has finished, so the
   samples straddle the measurement.  The median time from spawn to ready
   is `setup_s`;
2. in that worker warms up on miniature runs, then repeats the workload's
   operation for up to --seconds (at least once), checking every output;
3. prints a provenance line, one line per metric, and as the last line one
   JSON object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones of BENCHMARK.json (times are medians over
   the operations); with --trace 1 they are its per-layer ones, computed by
   tracing.py.

Every file it writes goes under perfbench/_out/.  Exit status 0 means the
benchmark ran, whatever the checks found; any other status means it could
not run, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (standard library only)

SETUP_RUNS = 4  # set-up-only starts on either side of the measuring worker
DEADLINE_S = 170.0  # the whole run, set-up included


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over src/, so results stay attributable where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _worker_env(blas_threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, out: Path, env, setup_only: bool):
    """Start a worker; return (process, seconds from spawn to its ready line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    try:
        json.loads(line)["ready"]
    except (ValueError, KeyError, TypeError):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}") from None
    return proc, ready_s


def _finish(proc, timeout: float) -> str:
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return stdout


def measure(args) -> dict:
    started = time.monotonic()
    blas_threads = _nproc()
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": blas_threads,
        "blas_threads": blas_threads,
        "load_avg": os.getloadavg(),
        "machine": platform.machine(),
        "kernel_params": [
            {"label": c.label, "alpha": c.alpha, "sigma": c.sigma, "gamma": c.gamma}
            for c in workloads.calls(args.workload, args.seed)
        ],
    }
    out = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "provenance.json").write_text(json.dumps(provenance))
    env = _worker_env(blas_threads)

    def start(setup_only: bool) -> str:
        proc, ready_s = _spawn(args, out, env, setup_only)
        setup.append(ready_s)
        return _finish(proc, DEADLINE_S - (time.monotonic() - started))

    setup = []
    for _ in range(SETUP_RUNS):
        start(setup_only=True)
    stdout = start(setup_only=False)
    for _ in range(SETUP_RUNS):
        start(setup_only=True)
    worker = json.loads(stdout.strip().splitlines()[-1])
    provenance.update(worker.pop("versions"))
    return {"provenance": provenance, "setup_s": setup, **worker, "out": str(out)}


def summarise(raw: dict, trace: int) -> dict:
    if trace:
        values = raw["per_layer"]
    else:
        values = {name: statistics.median(raw[name]) for name in ("wall_s", "cpu_s", "setup_s")}
        values["peak_rss_mb"] = raw["peak_rss_mb"]
    spec = workloads.SPEC["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    failed = len(raw["failures"])
    return {"correct": failed == 0, "attempted": raw["attempted"], "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=workloads.SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "memwave" / "cli.py").is_file():
        print(f"perfbench: no memwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        raw = measure(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = summarise(raw, args.trace)
    (Path(raw["out"]) / "result.json").write_text(json.dumps({**raw, "result": result}, indent=1))

    print("provenance " + json.dumps(raw["provenance"]))
    for message in raw["failures"]:
        print(f"FAILED {message}")
    for name, metric in result["metrics"].items():
        note = ""
        if name in ("wall_s", "cpu_s", "setup_s"):
            samples = raw[name]
            note = f"  (median of {len(samples)}, from {min(samples):.6g} to {max(samples):.6g})"
        elif name in ("stepper.memory_sum_bytes", "stepper.history_bytes"):
            note = "  (computed)"
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds, and compare two such collections.

    python3 perfbench/compare.py collect --workload wide_2d --seeds 1-10 --save a.json
    python3 perfbench/compare.py diff base.json new.json

`collect` runs run.py once per seed (and, with --traced, once more with
--trace 1), then stores every result with its provenance and, per metric,
the median, the quartiles and the spread (interquartile range over median).
Repeated calls with one --save file add workloads to it.

`diff` compares medians metric by metric against the bounds in
BENCHMARK.json.  It refuses, with exit status 3, to compare collections
whose machine or settings differ (nproc, BLAS threads, Python, numpy,
scipy, run length), so numbers from different set-ups are never compared
silently.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: provenance that must agree before two collections may be compared
SETTINGS = ("nproc", "blas_threads", "machine", "python", "numpy", "scipy", "seconds")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    provenance = json.loads(lines[0].removeprefix("provenance "))
    return {"provenance": provenance, **json.loads(lines[-1])}


def summary(runs: list[dict]) -> dict:
    """Median, quartiles and spread of each metric over runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def collect(args) -> int:
    path = Path(args.save)
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    runs = []
    for seed in _seeds(args.seeds):
        runs.append(_run(args.workload, seed, args.seconds, 0))
        print(seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
              flush=True)
    entry = {"runs": runs, "end_to_end": summary(runs)}
    if args.traced:
        entry["traced"] = _run(args.workload, _seeds(args.seeds)[0], args.seconds, 1)
    settings = {k: runs[0]["provenance"][k] for k in SETTINGS}
    if data.setdefault("settings", settings) != settings:
        raise SystemExit(f"{path} was collected with other settings: {data['settings']}")
    data["workloads"][args.workload] = entry
    path.write_text(json.dumps(data, indent=1) + "\n")
    failed = sum(r["failed"] for r in runs)
    for name, s in entry["end_to_end"].items():
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']}, "
              f"spread {s['spread']:.4f}")
    print(f"{args.workload}: {failed} failed of {sum(r['attempted'] for r in runs)} attempted")
    return 0


def diff(args) -> int:
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    if base["settings"] != new["settings"]:
        print(f"refusing to compare: settings differ\n  base {base['settings']}\n"
              f"  new  {new['settings']}", file=sys.stderr)
        return 3
    bounds = {m["name"]: m["bound"] for m in workloads.SPEC["end_to_end"]}
    worse = 0
    for workload, entry in new["workloads"].items():
        if workload not in base["workloads"]:
            continue
        for name, s in entry["end_to_end"].items():
            b = base["workloads"][workload]["end_to_end"][name]
            change = s["median"] / b["median"] - 1.0
            verdict = "worse" if change > bounds[name] else "ok"
            worse += verdict == "worse"
            print(f"{workload:10s} {name:12s} {b['median']:12.6g} -> {s['median']:12.6g} "
                  f"{change:+8.2%} (bound {bounds[name]:.0%}, spreads "
                  f"{b['spread']:.3f}/{s['spread']:.3f}) {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True, choices=workloads.NAMES)
    c.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    c.add_argument("--seconds", type=float, default=workloads.SPEC["run_seconds"])
    c.add_argument("--traced", action="store_true", help="add one traced run")
    c.add_argument("--save", required=True)
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark in two source trees, alternating seed by seed, and compare.

    python tools/pairs.py TREE_A TREE_B --workload W [--seeds 1-8] [--seconds S]
                          [--json PATH]

For each seed, `perfbench/run.py --workload W --seed s --seconds S --trace 0`
runs once in each tree, from that tree's root and with that tree's own
perfbench: tree A first on odd seeds, tree B first on even ones, so that a
drift in the machine's load falls on both trees alike.  Seeds are '1-8' or
'1,4,7'; a range that holds no seed is refused.  A run may take
SETUP_MARGIN_S beyond --seconds before it counts as hung.  Each run prints
one line as it finishes; then, per end-to-end metric, the median and
quartiles of each tree, the relative change of the median from A to B, how
many pairs read lower in B than in A, and whether the gap between the
medians is wider than A's interquartile range; and last the failed
operations of each tree.  With --json, the workload's record is written
to PATH under "workloads" -> W, beside the other workloads a file already
there holds: every run of both trees (seed, tree, its order in the pair,
provenance, end-to-end metrics, attempted and failed operations) and the
summary above as numbers.  Exit status 1 if a run failed to start.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: what a run may take beyond --seconds: its set-up starts and warm-up
SETUP_MARGIN_S = 240.0


def seeds(text: str) -> list[int]:
    """'1-8' or '1,4,7' as a list of seeds; a range that holds no seed, such
    as '8-1', is refused."""
    if "-" in text:
        lo, hi = text.split("-")
        found = list(range(int(lo), int(hi) + 1))
    else:
        found = [int(tok) for tok in text.split(",")]
    if not found:
        raise argparse.ArgumentTypeError(f"{text!r} holds no seed")
    return found


def order(seed: int) -> tuple[str, str]:
    """The trees in the order they run for this seed: A first on odd seeds."""
    return ("A", "B") if seed % 2 else ("B", "A")


def parse(stdout: str) -> dict:
    """The result object that run.py prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run in `tree`, given SETUP_MARGIN_S beyond its measuring window:
    its result object, with the provenance run.py printed under "provenance"."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=seconds + SETUP_MARGIN_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = parse(done.stdout)
    for line in done.stdout.splitlines():
        if line.startswith("provenance "):
            result["provenance"] = json.loads(line.removeprefix("provenance "))
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric of the (A, B) result pairs: its unit, each tree's median and
    quartiles, the relative change of the median, the pairs that read lower
    in B and whether the gap is wider than A's interquartile range; and the
    failed and attempted operations of each tree."""
    metrics = {}
    for name, first in pairs[0][0]["metrics"].items():
        a = [pa["metrics"][name]["value"] for pa, _ in pairs]
        b = [pb["metrics"][name]["value"] for _, pb in pairs]
        (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
        metrics[name] = {"unit": first["unit"],
                         "A": {"median": am, "q1": a1, "q3": a3},
                         "B": {"median": bm, "q1": b1, "q3": b3},
                         "change": bm / am - 1.0 if am else 0.0,
                         "b_lower": sum(vb < va for va, vb in zip(a, b)),
                         "gap_wider_than_a_iqr": abs(bm - am) > a3 - a1}
    sides = {"A": [pa for pa, _ in pairs], "B": [pb for _, pb in pairs]}
    return {"pairs": len(pairs), "metrics": metrics,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in sides.items()}}


def summary(pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per metric of the (A, B) result pairs, and one of failures."""
    found = compare(pairs)
    lines = []
    for name, m in found["metrics"].items():
        a, b = m["A"], m["B"]
        lines.append(f"{name:12s} A {a['median']:.6g} ({a['q1']:.6g}, {a['q3']:.6g})  "
                     f"B {b['median']:.6g} ({b['q1']:.6g}, {b['q3']:.6g})  "
                     f"{m['change']:+.2%}  B lower {m['b_lower']}/{found['pairs']}  "
                     f"gap > A's IQR: {'yes' if m['gap_wider_than_a_iqr'] else 'no'}")
    failed, attempted = found["failed"], found["attempted"]
    lines.append(f"failed: A {failed['A']} of {attempted['A']}, "
                 f"B {failed['B']} of {attempted['B']}")
    return lines


def record(pairs: list[tuple[dict, dict]], seeds: list[int], seconds: float) -> dict:
    """The JSON record of one workload's pairs: every run and `compare`."""
    runs = [{"seed": seed, "tree": side, "order": order(seed).index(side) + 1, **result,
             "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
            for seed, pair in zip(seeds, pairs) for side, result in zip("AB", pair)]
    return {"seconds": seconds, "runs": runs, "summary": compare(pairs)}


def write_json(path: Path, workload: str, entry: dict) -> None:
    """Put `entry` under "workloads" -> `workload` of the JSON file at path,
    keeping what else the file holds."""
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    data["workloads"][workload] = entry
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default="1-8", help="'1-8' or '1,4,7'")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--json", type=Path, help="add the workload's record to this file")
    args = parser.parse_args(argv)
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}
    pairs = []
    try:
        for seed in args.seeds:
            results = {}
            for side in order(seed):
                results[side] = run_once(trees[side], args.workload, seed, args.seconds)
                values = {k: round(v["value"], 4) for k, v in results[side]["metrics"].items()}
                print(f"seed {seed} {side} {values}", flush=True)
            pairs.append((results["A"], results["B"]))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"pairs: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary(pairs)))
    if args.json:
        write_json(args.json, args.workload, record(pairs, args.seeds, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

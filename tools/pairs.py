"""Run the benchmark in two source trees, alternating seed by seed, and compare.

    python tools/pairs.py TREE_A TREE_B --workload W [--seeds 1-8] [--seconds S]

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
operations of each tree.  Exit status 1 if a run failed to start.
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
    """One run in `tree`, given SETUP_MARGIN_S beyond its measuring window."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=seconds + SETUP_MARGIN_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return parse(done.stdout)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per metric of the (A, B) result pairs, and one of failures."""
    lines = []
    for name in pairs[0][0]["metrics"]:
        a = [pa["metrics"][name]["value"] for pa, _ in pairs]
        b = [pb["metrics"][name]["value"] for _, pb in pairs]
        (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
        lower = sum(vb < va for va, vb in zip(a, b))
        change = bm / am - 1.0 if am else 0.0
        wider = "yes" if abs(bm - am) > a3 - a1 else "no"
        lines.append(f"{name:12s} A {am:.6g} ({a1:.6g}, {a3:.6g})  B {bm:.6g} ({b1:.6g}, "
                     f"{b3:.6g})  {change:+.2%}  B lower {lower}/{len(pairs)}  "
                     f"gap > A's IQR: {wider}")
    failed = [sum(result["failed"] for result in side) for side in zip(*pairs)]
    attempted = [sum(result["attempted"] for result in side) for side in zip(*pairs)]
    lines.append(f"failed: A {failed[0]} of {attempted[0]}, B {failed[1]} of {attempted[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default="1-8", help="'1-8' or '1,4,7'")
    parser.add_argument("--seconds", type=float, default=15.0)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())

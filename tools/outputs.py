"""Compare the benchmark's CLI outputs of two source trees.

    python tools/outputs.py TREE_A TREE_B [--seeds 0,1]

For each workload of tree A's `perfbench/workloads.py` and each seed, every
CLI call of the workload runs once with each tree's `src` on the import
path, as `python -m memwave.cli ARGS` in a fresh directory, reading the
config the workload renders.  One line per call names the workload, seed
and call, then either `identical`, when the two output files hold the same
bytes, or the largest relative difference of each of the energy and a_norm
columns, |a - b| / |a| entrywise (a difference where a is 0 counts as
infinite).  Exit status 1 if any run fails or writes no output; outputs
that differ are reported, not failed.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

#: the output columns compared when the bytes differ
COLUMNS = ("energy", "a_norm")


def seeds(text: str) -> list[int]:
    """'0,1' as a list of seeds."""
    return [int(tok) for tok in text.split(",")]


def load_workloads(tree: Path):
    """The `perfbench/workloads.py` module of `tree`."""
    spec = importlib.util.spec_from_file_location("memwave_tools_outputs_workloads",
                                                  tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run_call(tree: Path, call, where: Path) -> Path:
    """Run `call` with `tree`'s sources in the directory `where`; the output
    file it wrote.  RuntimeError if the run fails or writes no output."""
    where.mkdir(parents=True)
    config, out = where / "config.ini", where / "out"
    config.write_text(call.ini())
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "memwave.cli", *call.argv(config, out)],
                          cwd=where, env=env, capture_output=True, text=True)
    written = out / call.output_name
    if done.returncode != 0 or not written.is_file():
        raise RuntimeError(f"{call.label} in {tree} exited {done.returncode}:\n{done.stderr}")
    return written


def columns(path: Path) -> dict:
    """The COLUMNS of a CSV file as float arrays."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {name: np.array([float(row[name]) for row in rows]) for name in COLUMNS}


def difference(path_a: Path, path_b: Path) -> str:
    """'identical', or the largest relative difference of each column."""
    if path_a.read_bytes() == path_b.read_bytes():
        return "identical"
    a, b = columns(path_a), columns(path_b)
    if any(a[name].shape != b[name].shape for name in COLUMNS):
        return f"{a[COLUMNS[0]].size} rows against {b[COLUMNS[0]].size}"
    parts = []
    for name in COLUMNS:
        with np.errstate(divide="ignore", invalid="ignore"):
            off = np.abs(a[name] - b[name]) / np.abs(a[name])
        off[a[name] == b[name]] = 0.0
        parts.append(f"{name} {off.max():.3g}")
    return "differs: largest relative difference " + ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--seeds", type=seeds, default="0,1", help="'0,1'")
    args = parser.parse_args(argv)
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    workloads = load_workloads(trees[0])
    with tempfile.TemporaryDirectory() as scratch:
        try:
            for name in workloads.NAMES:
                for seed in args.seeds:
                    for call in workloads.calls(name, seed):
                        where = Path(scratch) / f"{name}-{seed}-{call.label}"
                        written = [run_call(tree, call, where / side)
                                   for side, tree in zip("AB", trees)]
                        print(f"{name} seed {seed} {call.label}: {difference(*written)}",
                              flush=True)
        except RuntimeError as exc:
            print(f"outputs: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions: the memwave CLI calls each workload makes, drawn from a seed.

A workload is a tuple of `Call`s; one benchmark operation runs every call of
its workload once through `memwave.cli.main`.  The default seed reproduces
the paper's kernel values exactly; any other seed draws (sigma, gamma/sigma)
from a narrow admissible band around them, so every seed exercises the same
code paths at the same sizes.  Only the rendered INI configs reach the
program.

The workload names, like every metric name, unit and the run length, are
read from BENCHMARK.json at the repository root (`SPEC`), the one place they
are stated.  This module imports nothing beyond the standard library so that
the set-up time the benchmark reports is the program's own import cost.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

#: BENCHMARK.json: workloads, metrics with units and bounds, run_seconds
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in SPEC["workloads"])

DEFAULT_SEED = 0

ROOT3 = math.sqrt(3.0)

# relative half-width of the band kernel parameters are drawn from
_SPREAD = 0.05


@dataclass(frozen=True)
class Call:
    """One `memwave energy` invocation together with the config it reads."""

    label: str
    preset: str
    dim: int
    m: int
    n: int
    t: float
    alpha: float
    sigma: float
    gamma: float

    output_name = "energy.csv"  # what `memwave energy` writes

    def ini(self) -> str:
        return (
            "[run]\n"
            f"preset = {self.preset}\ndim = {self.dim}\nm = {self.m}\n"
            f"n = {self.n}\nt = {self.t!r}\n"
            "[kernel]\n"
            f"alpha = {self.alpha!r}\nsigma = {self.sigma!r}\ngamma = {self.gamma!r}\n"
        )

    def argv(self, config_path, out_dir) -> list[str]:
        return ["energy", "--config", str(config_path), "--out", str(out_dir)]

    def miniature(self) -> "Call":
        """A short run through the same code paths, used to warm up."""
        n = max(16, self.n // 64)
        return replace(self, n=n, t=self.t * n / self.n)


def _draw(rng: random.Random, sigma: float, ratio: float, ratio_max: float):
    """(sigma, gamma) with sigma and gamma/sigma within _SPREAD of the given values.

    The ratio never exceeds ratio_max, the admissible bound sqrt(3).
    """
    s = sigma * rng.uniform(1.0 - _SPREAD, 1.0 + _SPREAD)
    r = min(ratio * rng.uniform(1.0 - _SPREAD, 1.0 + _SPREAD), ratio_max)
    return s, r * s


def calls(workload: str, seed: int = DEFAULT_SEED) -> tuple[Call, ...]:
    """The CLI calls of one operation of `workload` for `seed`."""
    if workload not in NAMES:
        raise KeyError(f"unknown workload {workload!r}; choose one of {NAMES}")
    rng = random.Random(f"{workload}/{seed}")

    def kernel(sigma, gamma):
        if seed == DEFAULT_SEED:
            return sigma, gamma
        return _draw(rng, sigma, gamma / sigma, ROOT3)

    if workload == "long_1d":
        s, g = kernel(3.0, 3.0 * ROOT3)
        return (Call("long", "benchmark_1d", 1, 64, 16384, 100.0, 0.5, s, g),)
    s, g = kernel(3.0, 3.0 * ROOT3)
    return (Call("wide", "benchmark_2d", 2, 128, 1024, 1.0, 0.5, s, g),)

"""Discrete energy decay with zero forcing.

With f = 0 the damping and the memory term drain energy from the wave; the
discrete energy 0.5*||velocity||^2 + 0.5*||gradient||^2 should fall
monotonically for both kernel exponents even though neither the kernel nor
its transform is positive pointwise.  Writes the two series as CSV next to
this script.
"""

from pathlib import Path

import numpy as np

from memwave import KernelSpec, Mesh, RunDiagnostics, assemble, build_weight_table, run
from memwave.cli import RunConfig, preset_problem
from memwave.diagnostics import write_energy_csv

ROOT3 = np.sqrt(3.0)
OUT = Path.cwd()

M = N = 32
print(f"zero forcing, sigma=3, gamma=3*sqrt(3), M=N={M}, T=1\n")

for alpha in (1.0, 0.5):
    config = RunConfig(preset="benchmark_1d", dim=1, m=M, n=N, t_final=1.0,
                       kernel=KernelSpec(alpha, 3.0, 3.0 * ROOT3), damping=None)
    problem, kernel, damping = preset_problem(config, zero_forcing=True)
    mesh = Mesh(1, M)
    ops = assemble(mesh, lumped_mass=True)
    # the observer is called as observe(n, coeffs, norms) and forms the series
    # from the squared norms each level arrives with (memwave.LevelNorms),
    # reading tau and mu0 from the run's weight table; no trajectory is kept
    table = build_weight_table(kernel, 1.0 / N, N)
    observer = RunDiagnostics(mesh, ops, problem, table, N + 1)
    run(problem, mesh, 1.0 / N, N + 1, damping=damping, ops=ops, table=table, observe=observer)
    record = observer.record(f"energy_alpha_{alpha}")

    energies = record.energy
    drops = np.diff(energies)
    print(f"alpha = {alpha}:")
    print(f"  energy at t=0 : {energies[0]:.6f}")
    print(f"  energy at t=1 : {energies[-1]:.6f}  ({energies[-1] / energies[0]:.1%} of start)")
    print(f"  monotone decay: {bool(np.all(drops <= 1e-12))}")
    for level in range(6, 0, -1):
        row = "".join("*" if e >= energies[0] * level / 6.0 else " " for e in energies)
        print(f"  |{row}|")
    print(f"  +{'-' * len(energies)}+  (t from 0 to 1)\n")

    path = OUT / f"energy_alpha_{alpha:.1f}.csv"
    write_energy_csv(path, record)
    print(f"  wrote {path}\n")

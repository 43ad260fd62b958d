"""Measured quantities: discrete energy, stability norm, self-convergence.

A run's diagnostics are computed as its levels arrive.  `RunDiagnostics` is
an observer for `stepper.run`: it reduces a block of levels at a time to the
energy and stability series with vectorized formulas, maps checkpoints to
nodal values when their step is reached and keeps the terminal gradient, so
no state buffer outlives the run.  `discrete_energy` and `a_norm` evaluate
one step of a recorded trajectory.

The model problems have no closed-form solutions, so convergence is measured
by comparing runs on successive refinements: `self_error_time` contrasts the
terminal gradient fields of an N-step and a 2N-step run on one mesh, and
`self_error_space` contrasts runs on meshes with M and 2M cells at matched
nodes.  A ladder keeps each rung's terminal gradient through the
`TerminalGradient` observer.  Rates are base-2 logarithms of successive
error ratios.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fem import DiscreteOperators, Mesh, gradient_array, interpolate
from .stepper import Problem, SimulationHistory

__all__ = [
    "DiagnosticsRecord",
    "RunDiagnostics",
    "TerminalGradient",
    "discrete_energy",
    "a_norm",
    "self_error_time",
    "self_error_space",
    "rate",
    "write_energy_csv",
    "write_convergence_csv",
]

#: fixed formatting for all emitted floating-point values
FLOAT_FMT = "%.17g"

#: entries per block of levels that RunDiagnostics reduces at once (1 MiB of float64);
#: BLAS rounds a row by its place in the block, so the block edges set the last
#: bits of the series and energy.csv
_BLOCK_VALUES = 1 << 17


def discrete_energy(history: SimulationHistory, ops: DiscreteOperators, n: int) -> float:
    """Energy 0.5*||velocity||^2 + 0.5*||gradient||^2 at step n.

    The velocity is the centered difference for 1 <= n <= last-1 and the
    discrete initial velocity for n = 0.  Both norms are read from the modal
    coefficients: ||v||_M^2 = sum(v^2) and ||u||_A^2 = sum(eigenvalues * u^2).
    """
    last = history.n_last
    if not 0 <= n <= last - 1:
        raise IndexError(f"energy needs step n+1; n = {n} with last = {last}")
    vel = history.velocity_diffs[n]
    state = history.coefficients[n]
    return 0.5 * float(vel @ vel) + 0.5 * float((ops.eigenvalues * state) @ state)


def a_norm(history: SimulationHistory, ops: DiscreteOperators, m: int) -> float:
    """Stability seminorm combining the forward velocity and averaged gradients.

        sqrt( ||dU^{m+1}/tau||^2 + (mu0/2)(||grad U^{m+1}||^2 + ||grad U^m||^2) )
    """
    coeffs = history.coefficients
    if not 0 <= m <= history.n_last - 1:
        raise IndexError(f"a_norm needs step m+1; m = {m} with last = {history.n_last}")
    lam = ops.eigenvalues
    dt = (coeffs[m + 1] - coeffs[m]) / history.tau
    val = float(dt @ dt)
    val += 0.5 * history.mu0 * float((lam * coeffs[m + 1]) @ coeffs[m + 1])
    val += 0.5 * history.mu0 * float((lam * coeffs[m]) @ coeffs[m])
    return math.sqrt(val)


class TerminalGradient:
    """Observer that keeps the gradient field of a run's last level.

    Beside it, it holds the mesh, step size and step count: all that
    `self_error_time` and `self_error_space` compare.
    """

    def __init__(self, mesh: Mesh, ops: DiscreteOperators, tau: float, n_steps: int):
        self.mesh = mesh
        self.ops = ops
        self.tau = float(tau)
        self.n_last = int(n_steps)
        self.gradient: Optional[np.ndarray] = None

    def __call__(self, n: int, coeffs: np.ndarray) -> None:
        if n == self.n_last:
            self.gradient = gradient_array(self.mesh, self.ops.to_nodal(coeffs))


def _terminal_gradients(run) -> np.ndarray:
    if isinstance(run, TerminalGradient):
        return run.gradient
    return gradient_array(run.mesh, run.state(run.n_last))


def self_error_time(run_coarse, run_fine) -> float:
    """Gradient difference at the shared final time of an N- and a 2N-step run.

    Each run is a SimulationHistory or a TerminalGradient observer.
    """
    mc, mf = run_coarse.mesh, run_fine.mesh
    if mc != mf:
        raise ValueError("runs must share one mesh")
    n_c, n_f = run_coarse.n_last, run_fine.n_last
    if n_f != 2 * n_c:
        raise ValueError(f"fine run must have twice the steps: {n_c} vs {n_f}")
    if abs(2.0 * run_fine.tau - run_coarse.tau) > 1.0e-12 * run_coarse.tau:
        raise ValueError("fine run must halve the step size")
    diff = _terminal_gradients(run_coarse) - _terminal_gradients(run_fine)
    return math.sqrt(mc.h**mc.dim * float(np.sum(diff * diff)))


def self_error_space(run_coarse, run_fine) -> float:
    """Gradient difference of runs on M and 2M cells at the coarse nodes.

    Each run is a SimulationHistory or a TerminalGradient observer.
    Coarse node j aligns with fine node 2j (both meshes cover the unit
    domain), so the fine gradient field is subsampled at the odd strides.
    """
    mc, mf = run_coarse.mesh, run_fine.mesh
    if mc.dim != mf.dim:
        raise ValueError("runs must share the dimension")
    if mf.m != 2 * mc.m:
        raise ValueError(f"fine mesh must halve the cell width: {mc.m} vs {mf.m}")
    if run_coarse.n_last != run_fine.n_last:
        raise ValueError("runs must share the step count")
    if abs(run_coarse.tau - run_fine.tau) > 1.0e-12 * run_coarse.tau:
        raise ValueError("runs must share the step size")
    grad_c = _terminal_gradients(run_coarse)
    grad_f = _terminal_gradients(run_fine)
    sub = grad_f[1::2] if mc.dim == 1 else grad_f[1::2, 1::2]
    diff = grad_c - sub
    return math.sqrt(mc.h**mc.dim * float(np.sum(diff * diff)))


def rate(e_coarse: float, e_fine: float) -> float:
    """Observed order: log2 of the error ratio across one refinement."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("rates need strictly positive errors")
    return math.log2(e_coarse / e_fine)


@dataclass(frozen=True, eq=False)
class DiagnosticsRecord:
    """Per-run measurement bundle: energy/stability series and metadata."""

    run_id: str
    energy: np.ndarray
    a_norms: np.ndarray
    terminal_gradient: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.energy.shape != self.a_norms.shape:
            raise ValueError("energy and stability series must align")
        if not (np.all(self.energy >= 0.0) and np.all(self.a_norms >= 0.0)):
            raise ValueError("recorded norms must be nonnegative numbers")


class RunDiagnostics(TerminalGradient):
    """Observer that computes a run's energy and stability series, nodal
    checkpoints and terminal gradient as the levels arrive.

    Step n of the series is `discrete_energy` and `a_norm` at n; it needs
    U^{n-1}, U^n and U^{n+1}, so a run of n_steps steps gives n_steps
    entries.  Levels are copied into a block of about _BLOCK_VALUES entries.
    When the block is full, one vectorized pass forms the series for its
    steps, and its two newest levels carry over into the next block.  The
    initial data come from `problem`: the nodal u0 is checkpoint 0, and the
    initial velocity enters the energy at n = 0.
    """

    def __init__(self, mesh: Mesh, ops: DiscreteOperators, problem: Problem, tau: float,
                 mu0: float, n_steps: int, checkpoints=()):
        super().__init__(mesh, ops, tau, n_steps)
        self.mu0 = float(mu0)
        self.energy = np.empty(self.n_last)
        self.a_norms = np.empty(self.n_last)
        self.checkpoints: dict[int, np.ndarray] = {}
        self._wanted = frozenset(checkpoints)
        self._u0 = interpolate(mesh, problem.u0)
        self._v1 = ops.to_modal(interpolate(mesh, problem.u1))
        self._rows = max(1, _BLOCK_VALUES // mesh.n_interior)
        # row j holds U^{start - 1 + j} for the block of steps start..stop-1
        self._levels = np.zeros((self._rows + 2, mesh.n_interior))
        self._start, self._stop = 0, min(self._rows, self.n_last)

    def __call__(self, n: int, coeffs: np.ndarray) -> None:
        self._levels[n - self._start + 1] = coeffs
        if n in self._wanted:
            self.checkpoints[n] = self._u0.copy() if n == 0 else self.ops.to_nodal(coeffs)
        if n == self._stop:
            self._reduce()
        super().__call__(n, coeffs)

    def _reduce(self) -> None:
        start, stop = self._start, self._stop
        rows, levels = stop - start, self._levels
        c = levels[1:rows + 2]  # U^start..U^stop
        elastic = (c * c) @ self.ops.eigenvalues  # ||U^k||_A^2
        vel = (levels[2:rows + 2] - levels[:rows]) / (2.0 * self.tau)
        if start == 0:
            vel[0] = self._v1
        dt = (c[1:] - c[:-1]) / self.tau
        self.energy[start:stop] = 0.5 * np.einsum("ij,ij->i", vel, vel) + 0.5 * elastic[:-1]
        self.a_norms[start:stop] = np.sqrt(np.einsum("ij,ij->i", dt, dt)
                                           + 0.5 * self.mu0 * (elastic[1:] + elastic[:-1]))
        levels[:2] = levels[rows:rows + 2]
        self._start, self._stop = stop, min(stop + self._rows, self.n_last)

    def record(self, run_id: str, **meta) -> DiagnosticsRecord:
        """The measurement bundle of the finished run."""
        if self.gradient is None:
            raise ValueError(f"the run has not reached its last step {self.n_last}")
        meta = {"tau": self.tau, "dim": self.mesh.dim, "m": self.mesh.m,
                "n_steps": self.n_last, **meta}
        return DiagnosticsRecord(run_id, self.energy, self.a_norms, self.gradient, meta)


def write_energy_csv(path, record: DiagnosticsRecord) -> None:
    """Energy series as CSV with fixed columns n, t, energy, a_norm."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "t", "energy", "a_norm"])
        tau = record.meta["tau"]
        for n, (e, a) in enumerate(zip(record.energy, record.a_norms)):
            writer.writerow([n, FLOAT_FMT % (n * tau), FLOAT_FMT % e, FLOAT_FMT % a])


def write_convergence_csv(path, rows) -> None:
    """Convergence table as CSV with fixed columns M, N, E, CR.

    Each row is (M, N, error, rate-or-None); the first refinement has no
    rate and emits an empty field.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["M", "N", "E", "CR"])
        for m, n, err, cr in rows:
            writer.writerow(
                [m, n, FLOAT_FMT % err, "" if cr is None else FLOAT_FMT % cr]
            )

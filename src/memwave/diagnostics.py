"""Measured quantities: discrete energy, stability norm, self-convergence.

A run's diagnostics are computed as its levels arrive.  `RunDiagnostics` is
an observer for `stepper.run`: it keeps the squared norms each level arrives
with (`stepper.LevelNorms`), forms the energy and stability series from them
in one vectorized pass when the last level arrives, maps checkpoints to
nodal values when their step is reached and keeps the terminal gradient, so
it holds no state buffer and reads no level a second time.
`discrete_energy` and `a_norm` evaluate one step of a recorded trajectory.

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
from .quadweights import WeightTable
from .stepper import LevelNorms, Problem, SimulationHistory

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

#: one row of energy.csv, ended as csv.writer ends its rows
_ENERGY_ROW = f"%d,{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}\r\n"


def discrete_energy(history: SimulationHistory, ops: DiscreteOperators, n: int) -> float:
    """Energy 0.5*||velocity||^2 + 0.5*||gradient||^2 at step n.

    The velocity is the centered difference (U^{n+1} - U^{n-1}) / (2 tau) of
    the recorded trajectory for 1 <= n <= last-1, bit for bit the row the
    memory sum weights, and the discrete initial velocity for n = 0.  Both
    norms are read from the modal coefficients: ||v||_M^2 = sum(v^2) and
    ||u||_A^2 = sum(eigenvalues * u^2).
    """
    last = history.n_last
    if not 0 <= n <= last - 1:
        raise IndexError(f"energy needs step n+1; n = {n} with last = {last}")
    coeffs = history.coefficients
    vel = (history.initial_velocity if n == 0
           else (coeffs[n + 1] - coeffs[n - 1]) / (2.0 * history.tau))
    return 0.5 * float(vel @ vel) + 0.5 * float((ops.eigenvalues * coeffs[n]) @ coeffs[n])


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

    def __call__(self, n: int, coeffs: np.ndarray, norms: LevelNorms) -> None:
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
    entries.  Each level arrives with its `LevelNorms`; level k gives the
    elastic norm of U^k, the velocity of step k - 1 (the initial velocity
    at k = 1) and the increment U^k - U^{k-1}.  Until the last level
    arrives, `energy` and `a_norms` hold the squared velocity and increment
    norms of each step; then one vectorized pass turns them into the series
    with the elastic norms.  The nodal u0 of `problem` is checkpoint 0, and
    the run's weight table gives tau and mu0.
    """

    def __init__(self, mesh: Mesh, ops: DiscreteOperators, problem: Problem,
                 table: WeightTable, n_steps: int, checkpoints=()):
        super().__init__(mesh, ops, table.tau, n_steps)
        self.mu0 = table.mu0
        self.energy = np.empty(self.n_last)
        self.a_norms = np.empty(self.n_last)
        self.checkpoints: dict[int, np.ndarray] = {}
        self._wanted = frozenset(checkpoints)
        self._u0 = interpolate(mesh, problem.u0)
        self._elastic = np.empty(self.n_last + 1)

    def __call__(self, n: int, coeffs: np.ndarray, norms: LevelNorms) -> None:
        self._elastic[n] = norms.elastic
        if n:
            self.energy[n - 1], self.a_norms[n - 1] = norms.velocity, norms.increment
        if n in self._wanted:
            self.checkpoints[n] = self._u0.copy() if n == 0 else self.ops.to_nodal(coeffs)
        if n == self.n_last:
            elastic = self._elastic
            self.energy[:] = 0.5 * self.energy + 0.5 * elastic[:-1]
            self.a_norms[:] = np.sqrt(self.a_norms / self.tau**2
                                      + 0.5 * self.mu0 * (elastic[1:] + elastic[:-1]))
        super().__call__(n, coeffs, norms)

    def record(self, run_id: str, **meta) -> DiagnosticsRecord:
        """The measurement bundle of the finished run."""
        if self.gradient is None:
            raise ValueError(f"the run has not reached its last step {self.n_last}")
        meta = {"tau": self.tau, "dim": self.mesh.dim, "m": self.mesh.m,
                "n_steps": self.n_last, **meta}
        return DiagnosticsRecord(run_id, self.energy, self.a_norms, self.gradient, meta)


def write_energy_csv(path, record: DiagnosticsRecord) -> None:
    """Energy series as CSV with fixed columns n, t, energy, a_norm, in the
    bytes csv.writer gives: no field needs quoting, rows end in CRLF."""
    tau = record.meta["tau"]
    rows = enumerate(zip(record.energy.tolist(), record.a_norms.tolist()))
    text = "".join(_ENERGY_ROW % (n, n * tau, e, a) for n, (e, a) in rows)
    with open(path, "w", newline="") as handle:
        handle.write("n,t,energy,a_norm\r\n" + text)


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

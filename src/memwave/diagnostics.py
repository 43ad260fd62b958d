"""Measured quantities: discrete energy, stability norm, self-convergence.

A run's diagnostics need no second pass over its levels.  The history of
a run holds four squared norms per level (`SimulationHistory.norms`), and
`energy_series` forms the energy and stability series from that table in
one vectorized pass.  `RunDiagnostics` is an observer for `stepper.run`
that maps checkpoints to nodal values when their step is reached, so no
trajectory is kept.  `discrete_energy` and `a_norm` evaluate one step of a
recorded trajectory.

The benchmark presets have no closed-form solutions, so their convergence
is measured by comparing runs on successive refinements: `self_error_time`
contrasts the terminal gradient fields of an N-step and a 2N-step run on
one mesh, and `self_error_space` contrasts runs on meshes with M and 2M
cells at matched nodes.  Each reads a run's mesh, tau, n_last and
state(n_last), which a history and a `RunDiagnostics` both give, so a
ladder keeps each rung's last level as that observer's one checkpoint.
Rates are base-2 logarithms of successive error ratios.

Every CSV file of the program is written by `write_csv`: a header, then
one %-formatted line per row, with floats in `FLOAT_FMT`.  The energy and
convergence files end their lines in CRLF, as csv.writer does; checkpoints
and the weight dump end them in LF.
"""

from __future__ import annotations

import math

import numpy as np

from .fem import DiscreteOperators, gradient_array
from .stepper import SimulationHistory

__all__ = [
    "RunDiagnostics",
    "energy_series",
    "discrete_energy",
    "a_norm",
    "self_error_time",
    "self_error_space",
    "rate",
    "write_csv",
    "write_energy_csv",
    "write_convergence_csv",
]

#: fixed formatting for all emitted floating-point values
FLOAT_FMT = "%.17g"


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


def energy_series(norms: np.ndarray, tau: float, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """The energy and a_norm series of a whole run, from the table of squared
    norms its history holds (`SimulationHistory.norms`, one row per level).

    Entry n of the series is `discrete_energy` and `a_norm` at n; it needs
    U^{n-1}, U^n and U^{n+1}, so a table of N + 1 levels gives N entries:
    row n + 1 gives the velocity of step n (the initial velocity at n = 0)
    and the increment U^{n+1} - U^n.  ValueError unless both series are
    nonnegative numbers, as they are not when a row was never filled.
    """
    _, elastic, velocity, increment = norms.T
    energy = 0.5 * velocity[1:] + 0.5 * elastic[:-1]
    a_norms = np.sqrt(increment[1:] / tau**2 + 0.5 * mu0 * (elastic[1:] + elastic[:-1]))
    if not (np.all(energy >= 0.0) and np.all(a_norms >= 0.0)):
        raise ValueError("recorded norms must be nonnegative numbers")
    return energy, a_norms


def _terminal_gradient(run) -> np.ndarray:
    return gradient_array(run.mesh, run.state(run.n_last))


def self_error_time(run_coarse, run_fine) -> float:
    """Gradient difference at the shared final time of an N- and a 2N-step run.

    Each run is a SimulationHistory or a RunDiagnostics that kept its last
    level: both give mesh, tau, n_last and state(n_last).
    """
    mc, mf = run_coarse.mesh, run_fine.mesh
    if mc != mf:
        raise ValueError("runs must share one mesh")
    n_c, n_f = run_coarse.n_last, run_fine.n_last
    if n_f != 2 * n_c:
        raise ValueError(f"fine run must have twice the steps: {n_c} vs {n_f}")
    if abs(2.0 * run_fine.tau - run_coarse.tau) > 1.0e-12 * run_coarse.tau:
        raise ValueError("fine run must halve the step size")
    diff = _terminal_gradient(run_coarse) - _terminal_gradient(run_fine)
    return math.sqrt(mc.h**mc.dim * float(np.sum(diff * diff)))


def self_error_space(run_coarse, run_fine) -> float:
    """Gradient difference of runs on M and 2M cells at the coarse nodes.

    Each run is a SimulationHistory or a RunDiagnostics that kept its last
    level, as in `self_error_time`.  Coarse node j aligns with fine node 2j
    (both meshes cover the unit domain), so the fine gradient field is
    subsampled at the odd entries along each axis.
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
    odd = (slice(1, None, 2),) * mc.dim
    diff = _terminal_gradient(run_coarse) - _terminal_gradient(run_fine)[odd]
    return math.sqrt(mc.h**mc.dim * float(np.sum(diff * diff)))


def rate(e_coarse: float, e_fine: float) -> float:
    """Observed order: log2 of the error ratio across one refinement."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("rates need strictly positive errors")
    return math.log2(e_coarse / e_fine)


class RunDiagnostics:
    """Observer that maps the levels of the steps in `checkpoints` to nodal
    values as they arrive, into the dict `checkpoints` from step to values,
    through `SimulationHistory.state`: checkpoint 0 is the nodal u0 as given.

    With each checkpoint it also takes the history's mesh and tau, and the
    checkpoint's step as n_last (all None before the first), and `state(n)`
    returns checkpoint n.  So an observer whose last checkpoint is the
    run's last step stands in for the history in `self_error_time` and
    `self_error_space`: a ladder keeps each rung's last level this way.
    """

    def __init__(self, checkpoints=()):
        self.checkpoints: dict[int, np.ndarray] = {}
        self._wanted = frozenset(checkpoints)
        self.mesh = self.tau = self.n_last = None

    def __call__(self, history: SimulationHistory) -> None:
        n = history.n_last
        if n in self._wanted:
            self.checkpoints[n] = history.state(n)
            self.mesh, self.tau, self.n_last = history.mesh, history.tau, n

    def state(self, n: int) -> np.ndarray:
        """The nodal values of checkpoint n."""
        return self.checkpoints[n]


def write_csv(path, header: str, row_format: str, rows, end: str) -> None:
    """Write `header` and each row rendered by `row_format` (a %-format over
    the row's tuple), every line ended in `end`.  The lines are handed to
    the file one by one, so the text of the whole file is never held."""
    line = row_format + end
    with open(path, "w", newline="") as handle:
        handle.write(header + end)
        handle.writelines(line % row for row in rows)


def write_energy_csv(path, tau: float, energy: np.ndarray, a_norms: np.ndarray) -> None:
    """Energy series as CSV with fixed columns n, t, energy, a_norm, in the
    bytes csv.writer gives: no field needs quoting, rows end in CRLF."""
    steps = np.arange(len(energy))
    rows = zip(steps.tolist(), (steps * tau).tolist(), energy.tolist(), a_norms.tolist())
    write_csv(path, "n,t,energy,a_norm", f"%d,{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}", rows,
              "\r\n")


def write_convergence_csv(path, rows) -> None:
    """Convergence table as CSV with fixed columns M, N, E, CR, in the bytes
    csv.writer gives.

    Each row is (M, N, error, rate-or-None); the first refinement has no
    rate and emits an empty field.
    """
    write_csv(path, "M,N,E,CR", f"%d,%d,{FLOAT_FMT},%s",
              ((m, n, err, "" if cr is None else FLOAT_FMT % cr) for m, n, err, cr in rows),
              "\r\n")

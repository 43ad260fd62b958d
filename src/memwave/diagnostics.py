"""Measured quantities: discrete energy, stability norm, self-convergence.

The model problems have no closed-form solutions, so convergence is measured
by comparing runs on successive refinements: `self_error_time` contrasts the
terminal gradient fields of an N-step and a 2N-step run on one mesh, and
`self_error_space` contrasts runs on meshes with M and 2M cells at matched
nodes.  Rates are base-2 logarithms of successive error ratios.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .fem import DiscreteOperators, gradient_array
from .stepper import SimulationHistory

__all__ = [
    "DiagnosticsRecord",
    "discrete_energy",
    "a_norm",
    "self_error_time",
    "self_error_space",
    "rate",
    "collect_diagnostics",
    "write_energy_csv",
    "write_convergence_csv",
]

#: fixed formatting for all emitted floating-point values
FLOAT_FMT = "%.17g"

#: entries per block when the series sweep the history (1 MiB of float64)
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
    return 0.5 * float(vel @ vel) + 0.5 * float((ops.basis.eigenvalues * state) @ state)


def a_norm(history: SimulationHistory, ops: DiscreteOperators, m: int) -> float:
    """Stability seminorm combining the forward velocity and averaged gradients.

        sqrt( ||dU^{m+1}/tau||^2 + (mu0/2)(||grad U^{m+1}||^2 + ||grad U^m||^2) )
    """
    coeffs = history.coefficients
    if not 0 <= m <= history.n_last - 1:
        raise IndexError(f"a_norm needs step m+1; m = {m} with last = {history.n_last}")
    lam = ops.basis.eigenvalues
    dt = (coeffs[m + 1] - coeffs[m]) / history.tau
    val = float(dt @ dt)
    val += 0.5 * history.mu0 * float((lam * coeffs[m + 1]) @ coeffs[m + 1])
    val += 0.5 * history.mu0 * float((lam * coeffs[m]) @ coeffs[m])
    return math.sqrt(val)


def _terminal_gradients(history: SimulationHistory) -> np.ndarray:
    return gradient_array(history.mesh, history.state(history.n_last))


def self_error_time(run_coarse: SimulationHistory, run_fine: SimulationHistory) -> float:
    """Gradient difference at the shared final time of an N- and a 2N-step run."""
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


def self_error_space(run_coarse: SimulationHistory, run_fine: SimulationHistory) -> float:
    """Gradient difference of runs on M and 2M cells at the coarse nodes.

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


def _series(history: SimulationHistory, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """discrete_energy and a_norm for every step that has a successor.

    The history is swept in blocks of about _BLOCK_VALUES entries so that
    no temporary grows with the number of steps.
    """
    count = history.n_last
    coeffs, diffs = history.coefficients, history.velocity_diffs
    energy, norms = np.empty(count), np.empty(count)
    rows = max(1, _BLOCK_VALUES // lam.size)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        c = coeffs[start:stop + 1]
        elastic = (c * c) @ lam  # ||U^k||_A^2 for k = start..stop
        vel = diffs[start:stop]
        dt = (c[1:] - c[:-1]) / history.tau
        energy[start:stop] = 0.5 * np.einsum("ij,ij->i", vel, vel) + 0.5 * elastic[:-1]
        norms[start:stop] = (np.einsum("ij,ij->i", dt, dt)
                             + 0.5 * history.mu0 * (elastic[1:] + elastic[:-1]))
    return energy, np.sqrt(norms)


def collect_diagnostics(history: SimulationHistory, ops: DiscreteOperators,
                        run_id: str, **meta) -> DiagnosticsRecord:
    """Evaluate the full energy and stability series of a finished run."""
    energy, norms = _series(history, ops.basis.eigenvalues)
    meta.setdefault("tau", history.tau)
    meta.setdefault("dim", history.mesh.dim)
    meta.setdefault("m", history.mesh.m)
    meta.setdefault("n_steps", history.n_last)
    return DiagnosticsRecord(
        run_id=run_id,
        energy=energy,
        a_norms=norms,
        terminal_gradient=_terminal_gradients(history),
        meta=meta,
    )


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

"""Linearly implicit time stepping for the damped wave equation with memory.

Each step solves one symmetric positive definite system: the nonlinear
damping coefficient is evaluated at the known level n, the elastic and
memory terms are centered, and the accumulated memory enters through the
precomputed quadrature weights.  A second-order Taylor expansion supplies
the first step, with the initial acceleration recovered from the equation
itself at t = 0.

States are stepped as coefficients in the modal basis that
`fem.DiscreteOperators` holds, where the mass matrix is the identity and the
stiffness matrix is diagonal, so each system is solved by one elementwise
division.
Nodal values appear only at the edges: initial data, forcing, and the
states a caller reads back.

A run streams: a step reads U^0, U^{n-1}, U^n and the velocity differences
that the memory sum weights, and the history keeps only those.  Every new
level goes to an observer, a callable observe(n, coeffs); without one the
history records the whole trajectory through the `Trajectory` observer.

The memory sum of step n weights the whole velocity history, so it costs
O(n * ndof).  `SimulationHistory.memory_sum` forms it a block of
_MEMORY_BLOCK steps at a time: one GEMM applies the older history to every
step of the block, and each step adds its few newer rows with a short
GEMV.  The history is then read once per block instead of once per step.
Every term is rounded as in the direct sum; no FFT is used, so the
relative accuracy holds in a tail that decays by tens of orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fem import DiscreteOperators, Mesh, assemble, interpolate, load_vector
from .kernel import KernelLike
from .quadweights import WeightTable, build_weight_table

__all__ = [
    "DampingSpec",
    "Problem",
    "SimulationHistory",
    "SolverError",
    "StepError",
    "Trajectory",
    "damping_value",
    "taylor_start",
    "step",
    "run",
]

_DAMPING_KINDS = ("affine", "sqrt", "constant")

# steps whose memory sums over the older history one GEMM forms together
_MEMORY_BLOCK = 32


class SolverError(RuntimeError):
    """The linear system of a step has no admissible solution."""


class StepError(RuntimeError):
    """The step left the regime where the scheme is well defined."""


@dataclass(frozen=True)
class DampingSpec:
    """Nonlinear-nonlocal damping coefficient G(mu1*||u||^2 + mu2*||grad u||^2).

    kind 'affine'   : G(z) = 1 + z          (g0 = 1, Lipschitz bound 1)
    kind 'sqrt'     : G(z) = sqrt(1 + z)    (g0 = 1, Lipschitz bound 1/2)
    kind 'constant' : G(z) = constant       (g0 = constant, bound 0)

    mu1 weights the L2 norm, mu2 the gradient norm; they are nonnegative and
    not both zero.
    """

    kind: str
    mu1: float = 1.0
    mu2: float = 1.0
    constant: float = 1.0
    g0: float = field(init=False)
    lipschitz: float = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in _DAMPING_KINDS:
            raise ValueError(f"kind must be one of {_DAMPING_KINDS}, got {self.kind!r}")
        for name in ("mu1", "mu2", "constant"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu1 < 0.0 or self.mu2 < 0.0:
            raise ValueError("damping weights must be nonnegative")
        if self.mu1 == 0.0 and self.mu2 == 0.0:
            raise ValueError("damping weights must not both vanish")
        if self.kind == "constant":
            if not self.constant > 0.0:
                raise ValueError(f"constant damping must be positive, got {self.constant}")
            g0, lip = self.constant, 0.0
        elif self.kind == "affine":
            g0, lip = 1.0, 1.0
        else:
            g0, lip = 1.0, 0.5
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "lipschitz", lip)

    def value(self, z: float) -> float:
        """G(z) for z >= 0."""
        if z < 0.0:
            raise ValueError(f"damping argument must be nonnegative, got {z}")
        if self.kind == "constant":
            return self.constant
        if self.kind == "affine":
            return 1.0 + z
        return math.sqrt(1.0 + z)


@dataclass(frozen=True)
class Problem:
    """Initial data and forcing.

    u0, u1 : callables of the space coordinates (x) or (x, y)
    f      : callable of (x, t) or (x, y, t); None means zero forcing
    """

    u0: Callable
    u1: Callable
    f: Optional[Callable] = None


def damping_value(spec: DampingSpec, ops: DiscreteOperators, coeffs: np.ndarray) -> float:
    """q = G(mu1 * ||u||_M^2 + mu2 * ||u||_A^2) for the current state.

    `coeffs` holds the state in the modal basis of ops, where the two norms
    are sum(coeffs^2) and sum(eigenvalues * coeffs^2).
    """
    lam = ops.eigenvalues
    z = spec.mu1 * float(coeffs @ coeffs) + spec.mu2 * float((lam * coeffs) @ coeffs)
    q = spec.value(z)
    if not q >= spec.g0:
        raise StepError(
            f"damping coefficient q = {q} at argument z = {z} is not >= g0 = {spec.g0}"
        )
    return q


# observe(n, coeffs) receives the modal coefficients of U^n, which the
# stepper goes on reading: an observer copies what it keeps and writes nothing
Observer = Callable[[int, np.ndarray], None]


class Trajectory:
    """Observer that records every level U^0..U^{n_steps} as modal coefficients."""

    def __init__(self, n_steps: int, ndof: int):
        self.coefficients = np.zeros((int(n_steps) + 1, ndof))

    def __call__(self, n: int, coeffs: np.ndarray) -> None:
        self.coefficients[n] = coeffs


class SimulationHistory:
    """What the next step reads: U^0, U^{n-1}, U^n and the memory-sum rows.

    initial, previous and current hold U^0, U^{n-1} and U^n as modal
    coefficients.  velocity_diffs[p] holds the centered difference
    (U^{p+1} - U^{p-1}) / (2 tau) for p >= 1 and the discrete initial
    velocity for p = 0, also as modal coefficients; the memory sum weights
    these rows and scales the result by the eigenvalues.  The row buffer is
    allocated once, for n_steps steps; rows past the last step may hold the
    partial memory sums that `memory_sum` parks there.  The nodal initial
    data u0 and u1h are kept as given.

    observe(n, coeffs) is called with U^0 here and with every pushed level.
    Without an observer the history records the whole trajectory, which
    `coefficients`, `states` and `state` then read.
    """

    def __init__(self, mesh: Mesh, ops: DiscreteOperators, tau: float, mu0: float,
                 u0: np.ndarray, u1h: np.ndarray, n_steps: int,
                 observe: Optional[Observer] = None):
        self.mesh = mesh
        self.ops = ops
        self.tau = float(tau)
        self.mu0 = float(mu0)
        self.u0 = np.asarray(u0, dtype=float)
        self.u1h = np.asarray(u1h, dtype=float)
        self._diffs = np.zeros((int(n_steps) + 1, self.u0.size))
        self._diffs[0] = ops.to_modal(self.u1h)
        self.initial = ops.to_modal(self.u0)
        self.previous = self.current = self.initial
        self._count = 1
        self._block: tuple[Optional[WeightTable], int, int] = (None, 0, 0)
        self._trajectory = Trajectory(n_steps, self.u0.size) if observe is None else None
        self._observe = self._trajectory if observe is None else observe
        self._observe(0, self.initial)

    @property
    def n_last(self) -> int:
        """Largest stored step index."""
        return self._count - 1

    @property
    def coefficients(self) -> np.ndarray:
        """View of the recorded modal coefficients of U^0..U^n, shape (n+1, ndof)."""
        if self._trajectory is None:
            raise ValueError("an observed history keeps only U^0, U^{n-1} and U^n")
        return self._trajectory.coefficients[: self._count]

    @property
    def initial_velocity(self) -> np.ndarray:
        """Modal coefficients of the discrete initial velocity u1h."""
        return self._diffs[0]

    @property
    def velocity_diffs(self) -> np.ndarray:
        """View of the cached memory-sum rows for p = 0..n-1."""
        return self._diffs[: self._count - 1]

    def state(self, n: int) -> np.ndarray:
        """Nodal values of U^n; an observed history serves n = 0 and n = n_last."""
        if not 0 <= n <= self.n_last:
            raise IndexError(f"step {n} outside [0, {self.n_last}]")
        if n == 0:
            return self.u0.copy()
        return self.ops.to_nodal(self.current if n == self.n_last else self.coefficients[n])

    @property
    def states(self) -> np.ndarray:
        """Recorded nodal U^0..U^n, shape (n+1, ndof), formed anew on each
        access by one batched map of all coefficients; bind it once rather
        than index it in a loop."""
        nodal = self.ops.to_nodal(self.coefficients)
        nodal[0] = self.u0
        return nodal

    def memory_sum(self, table: WeightTable, n: int) -> np.ndarray:
        """Sum over p < n of w(n, p) * velocity_diffs[p] for the next step, n = n_last.

        The sums are formed a block of _MEMORY_BLOCK steps at a time.  When
        n leaves the cached block [start, stop), or another table is passed,
        one GEMM applies the Toeplitz block of weights w(start + i, p) to
        the rows p < start and parks these "far" sums of steps start..stop-1
        in difference rows start..stop-1, which are not written yet: push
        writes row k only after step k has read it.  Step n then adds its
        rows p = start..n-1 with one short GEMV.  The history is read once
        per block instead of once per step, and every term w * d is rounded
        as in the direct sum; only the order of the additions differs.
        """
        if n != self.n_last:
            raise ValueError(f"history holds steps up to {self.n_last}, "
                             f"cannot form the memory sum of step {n}")
        if not 1 <= n <= table.n_max:
            raise ValueError(f"weight table covers 1 <= n <= {table.n_max}, got {n}")
        cached, start, stop = self._block
        if cached is not table or not start <= n < stop:
            start = n
            stop = min(n + _MEMORY_BLOCK, table.n_max + 1, self._diffs.shape[0])
            # row i holds body[start + i - p] for p = 0..start-1: windows of
            # the reversed lags, copied so that the GEMM runs in BLAS
            lags = table.body[stop - 1::-1]
            weights = sliding_window_view(lags, start)[stop - start - 1::-1].copy()
            weights[:, 0] = table.edge_left[start:stop]
            np.matmul(weights, self._diffs[:start], out=self._diffs[start:stop])
            self._block = (table, start, stop)
        near = table.body[n - start:0:-1].copy()  # contiguous, so the GEMV runs in BLAS
        return self._diffs[n] + near @ self._diffs[start:n]

    def push(self, coeffs: np.ndarray) -> None:
        """Append the modal coefficients of U^{n+1}, cache its memory-sum row
        and pass it to the observer.  The history keeps `coeffs` itself as
        U^{n+1}, not a copy."""
        k = self._count
        if k >= self._diffs.shape[0]:
            raise IndexError(f"the history was sized for {self._diffs.shape[0] - 1} steps")
        if k >= 2:
            self._diffs[k - 1] = (coeffs - self.previous) / (2.0 * self.tau)
        self.previous, self.current = self.current, coeffs
        self._count = k + 1
        self._observe(k, coeffs)


def taylor_start(history: SimulationHistory, ops: DiscreteOperators,
                 damping: DampingSpec, problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Second-order start: U^1 = U^0 + tau*u1h + (tau^2/2)*u2h.

    The discrete initial acceleration u2h solves
    M u2h = -q(0) M u1h - A U^0 + F(0), i.e. the equation itself at t = 0
    with the memory term empty.  U^0 and u1h are read from the history,
    which must hold U^0 only.  Returns the modal coefficients of U^1,
    which are also pushed onto the history, and of u2h.
    """
    if history.n_last != 0:
        raise ValueError(
            f"the Taylor start needs a history holding U^0 only, not U^0..U^{history.n_last}"
        )
    tau = history.tau
    c0, v1 = history.initial, history.initial_velocity
    q0 = damping_value(damping, ops, c0)
    a0 = -q0 * v1 - ops.eigenvalues * c0
    if problem.f is not None:
        a0 += ops.project(load_vector(history.mesh, problem.f, 0.0))
    c1 = c0 + tau * v1 + 0.5 * tau * tau * a0
    _push_finite(history, c1, 0)
    return c1, a0


def step(history: SimulationHistory, ops: DiscreteOperators, table: WeightTable,
         damping: DampingSpec, problem: Problem, n: int) -> np.ndarray:
    """Advance from U^0..U^n to U^{n+1}; returns its modal coefficients,
    which are also pushed onto the history.

    The system matrix is
        S = (1/tau^2 + q_n/(2 tau)) M + (mu0/2 + w(n,n)/(2 tau)) A
    and the right-hand side collects the two known levels, the accumulated
    memory sum, the forcing, and the elastic contribution of the initial
    state carried by K(t_n).  In the modal basis S is diagonal.
    """
    if n != history.n_last:
        raise ValueError(f"history holds steps up to {history.n_last}, cannot step at n = {n}")
    if n < 1:
        raise ValueError("stepping starts at n = 1; use taylor_start first")
    if n > table.n_max:
        raise ValueError(f"weight table covers n <= {table.n_max}, got {n}")

    lam = ops.eigenvalues
    tau = history.tau
    mu0 = table.mu0
    c_n, c_nm1 = history.current, history.previous

    q_n = damping_value(damping, ops, c_n)
    w_nn = float(table.edge_right[n])
    elastic_coeff = 0.5 * mu0 + w_nn / (2.0 * tau)
    if elastic_coeff <= 0.0:
        raise StepError(
            f"elastic coefficient mu0/2 + w(n,n)/(2 tau) = {elastic_coeff} <= 0 "
            f"at step {n}; the scheme is outside its admissible regime"
        )

    diagonal = (1.0 / tau**2 + q_n / (2.0 * tau)) + elastic_coeff * lam
    smallest = float(diagonal.min())
    if not (smallest > 0.0 and np.isfinite(diagonal).all()):
        raise SolverError(
            f"system diagonal at step {n} is not positive and finite: smallest entry {smallest}"
        )

    stiffness_terms = (
        (0.5 * mu0 - w_nn / (2.0 * tau)) * c_nm1
        + history.memory_sum(table, n)
        + float(table.k_values[n]) * history.initial
    )
    rhs = (2.0 / tau**2) * c_n - (1.0 / tau**2 - q_n / (2.0 * tau)) * c_nm1 - lam * stiffness_terms
    if problem.f is not None:
        rhs += ops.project(load_vector(history.mesh, problem.f, n * tau))
    c_next = rhs / diagonal
    _push_finite(history, c_next, n)
    return c_next


def _push_finite(history: SimulationHistory, coeffs: np.ndarray, n: int) -> None:
    """Push U^{n+1}, computed at step n, after checking that it is finite."""
    if not np.isfinite(coeffs).all():
        raise StepError(f"state U^{n + 1} computed at step {n} is not finite")
    history.push(coeffs)


def run(problem: Problem, mesh: Mesh, tau: float, n_steps: int,
        kernel: Optional[KernelLike] = None, damping: Optional[DampingSpec] = None,
        ops: Optional[DiscreteOperators] = None,
        table: Optional[WeightTable] = None,
        observe: Optional[Observer] = None) -> SimulationHistory:
    """Step U^0..U^{n_steps}, passing each level to observe(n, coeffs).

    observe sees the modal coefficients of U^n for n = 0..n_steps in order;
    without it the returned history records the whole trajectory.
    Prebuilt operators and weight tables may be passed in so refinement
    ladders can share them; otherwise they are assembled here (the table
    then requires a kernel).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if damping is None:
        raise ValueError("a damping spec is required")
    if ops is None:
        ops = assemble(mesh)
    if table is None:
        if kernel is None:
            raise ValueError("either a kernel or a prebuilt weight table is required")
        table = build_weight_table(kernel, tau, max(1, n_steps - 1))
    elif table.n_max < n_steps - 1:
        raise ValueError(
            f"weight table covers n <= {table.n_max}, need {n_steps - 1}"
        )
    if abs(table.tau - tau) > 1.0e-14 * max(1.0, tau):
        raise ValueError(f"table step {table.tau} does not match tau = {tau}")

    history = SimulationHistory(
        mesh, ops, tau, table.mu0, interpolate(mesh, problem.u0),
        interpolate(mesh, problem.u1), n_steps, observe,
    )
    taylor_start(history, ops, damping, problem)
    for n in range(1, n_steps):
        step(history, ops, table, damping, problem, n)
    return history

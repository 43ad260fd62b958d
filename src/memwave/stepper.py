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

The step size is fixed for the whole run, so one modal basis and one weight
table serve every step.  The history binds both when it is built, and
`step` and `taylor_start` take only what is not stored: the damping and the
problem.  The history always steps at its own last level n = n_last.

The memory sum of step n weights the whole velocity history; `_MemorySum`
forms it, and its docstring says how.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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
# the memory sum drops its oldest block of rows while the l2 bound on all it
# has dropped stays below _DROP_TOL of a lower bound on the sum's size, and
# raises StepError when a later block finds that ratio above _GUARD_TOL
_DROP_TOL = 1.0e-15
_GUARD_TOL = 1.0e-13


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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The l2 norm of each row."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


@dataclass(frozen=True, eq=False)
class _StepConstants:
    """The terms of the step system that are the same at every step n >= 1.

    With e = mu0/2 + w(n,n)/(2 tau), the system diagonal of step n is
    `diagonal` + q_n/(2 tau), `smallest` is the least entry of `diagonal`,
    U^{n-1} enters the right-hand side with the factor
    q_n/(2 tau) - `previous`, and K(t_n) scales `initial`.
    """

    diagonal: np.ndarray  # 1/tau^2 + e * lambda
    smallest: float
    previous: np.ndarray  # 1/tau^2 + (mu0/2 - w(n,n)/(2 tau)) * lambda
    initial: np.ndarray   # lambda * U^0

    @classmethod
    def build(cls, ops: DiscreteOperators, table: WeightTable,
              initial: np.ndarray) -> "_StepConstants":
        lam, tau, mu0 = ops.eigenvalues, table.tau, table.mu0
        w_nn = float(table.edge_right[1])
        elastic = 0.5 * mu0 + w_nn / (2.0 * tau)
        if elastic <= 0.0:
            raise StepError(
                f"elastic coefficient mu0/2 + w(n,n)/(2 tau) = {elastic} <= 0 "
                f"at every step n >= 1; the scheme is outside its admissible regime"
            )
        diagonal = 1.0 / tau**2 + elastic * lam
        smallest = float(diagonal.min())
        if not (smallest > 0.0 and np.isfinite(diagonal).all()):
            raise SolverError(
                f"system diagonal less q_n/(2 tau) is not positive and finite: "
                f"smallest entry {smallest}"
            )
        previous = 1.0 / tau**2 + (0.5 * mu0 - w_nn / (2.0 * tau)) * lam
        return cls(diagonal, smallest, previous, lam * initial)


class _MemorySum:
    """The memory sum of one run: sum over p < n of w(n, p) * d_p for step n.

    d_p is row p of `rows`, the history's buffer of n_steps + 1 velocity
    differences, which push fills; the weights are the table's up to the
    run's last step, last = n_steps - 1.  The table is only read: the
    operand, the tail bound and the window state below are the run's own.

    The sums are formed a block of _MEMORY_BLOCK steps at a time.  When n
    leaves the cached block [start, stop), one GEMM applies the Toeplitz
    block of weights w(start + i, p), a view of `operand`, to the rows
    first <= p < start and parks these "far" sums of steps start..stop-1 in
    rows start..stop-1, which are not written yet: push writes row k only
    after step k has read it.  Step n then adds its rows p = start..n-1
    with one short GEMV, its weights a row of the same operand.  The history
    is read once per block instead of once per step, and every term w * d
    is rounded as in the direct sum; no FFT is used.  operand[i, c] is
    body[last - c + i], and 0 where that lag is outside 1..last: columns
    last - start .. last - 1 of row i weight the rows p < start for step
    start + i, and columns last .. last + i - 1 the rows p >= start, both
    unit-stride views.  With first = 0, the column of p = 0 takes the
    edge_left weights for the GEMM and gets its lags back after.

    K decays at least like e^{-t}, so the oldest rows of a long run enter
    with weights far below rounding.  A row p < first that the GEMM skips
    enters every sum of the block at a lag of at least start - p, so in the
    l2 norm over modes all that is dropped is at most
    sum_{p < first} tail[start - p] * norms[p], with tail[j] the largest
    |body| or |edge_left| at a lag >= j and norms[p] = ||d_p||_2.  Each
    block raises StepError when that bound exceeds _GUARD_TOL of `_scale`,
    a lower bound on the sum's size.  It then drops the oldest kept block
    of rows while the bound stays below _DROP_TOL of the scale; it tests
    only rows older than the newest block, at lags where the weights have
    fallen below _DROP_TOL of the largest, and an all-zero history drops
    nothing.  A step then costs O(L * ndof), L = n - first.

    Until a row is dropped, first = 0 and only the order of the additions
    differs from the direct sum.  After that the sum differs from the direct
    one by at most _GUARD_TOL times the l2 norm of sum_p |w(n, p)| |d_p|,
    in the l2 norm over modes, not entry by entry: a mode at rounding level
    may lose all its digits.
    """

    def __init__(self, table: WeightTable, rows: np.ndarray):
        last = rows.shape[0] - 2
        lags = np.zeros(last + _MEMORY_BLOCK)
        lags[:last] = table.body[last:0:-1]  # lags[c] = body[last - c]
        self.operand = np.zeros((_MEMORY_BLOCK, lags.size))
        for i in range(_MEMORY_BLOCK):
            self.operand[i, i:] = lags[: lags.size - i]
        largest = np.abs([table.body[: last + 1], table.edge_left[: last + 1]]).max(axis=0)
        self.tail = np.maximum.accumulate(largest[::-1])[::-1]
        self.norms = np.zeros(last + 1)
        self.first = 0
        self._rows, self._edge_left, self._last = rows, table.edge_left, last
        self._block = (0, 0)

    def __call__(self, n: int) -> np.ndarray:
        """The memory sum of step n, once rows 0..n-1 hold d_0..d_{n-1}."""
        operand, rows, last = self.operand, self._rows, self._last
        start, stop = self._block
        if not start <= n < stop:
            start, stop = n, min(n + _MEMORY_BLOCK, last + 1)
            first = self._move_window(start, stop)
            weights = operand[: stop - start, last - start + first:last]
            if not first:  # the p = 0 column takes the edge_left weights for the GEMM
                lags, weights[:, 0] = weights[:, 0].copy(), self._edge_left[start:stop]
            np.matmul(weights, rows[first:start], out=rows[start:stop])
            if not first:
                weights[:, 0] = lags
            self._block = (start, stop)
        i = n - start
        return rows[n] + operand[i, last:last + i] @ rows[start:n]

    def _move_window(self, start: int, stop: int) -> int:
        """Check the rows dropped so far for the block [start, stop), drop
        more while that stays safe, and return the first row kept."""
        first, block, norms = self.first, _MEMORY_BLOCK, self.norms
        at_lag = self.tail[start::-1]  # at_lag[p] = tail[start - p]
        scale, bound = None, 0.0
        if first:
            scale = self._scale(start, stop)
            bound = float(norms[:first] @ at_lag[:first])
            if bound > _GUARD_TOL * scale:
                raise StepError(
                    f"memory sum at step {start}: the rows p < {first} it dropped may "
                    f"add {bound:.3e} in l2, above {_GUARD_TOL:g} of its scale {scale:.3e}"
                )
        while first + 2 * block <= start:
            if not at_lag[first + block - 1] < _DROP_TOL * self.tail[1]:
                break
            if scale is None:
                scale = self._scale(start, stop)
            oldest = slice(first, first + block)
            oldest_norms = _row_norms(self._rows[oldest])
            more = bound + float(oldest_norms @ at_lag[oldest])
            if not more < _DROP_TOL * scale:
                break
            norms[oldest], bound, first = oldest_norms, more, first + block
        self.first = first
        return first

    def _scale(self, start: int, stop: int) -> float:
        """A lower bound on ||sum_p |w(n, p)| |d_p|||_2 for every step n of
        the block [start, stop), start > _MEMORY_BLOCK: the least over those
        n of the largest |w(n, p)| ||d_p|| over the newest _MEMORY_BLOCK
        rows, which are never dropped."""
        block, last = _MEMORY_BLOCK, self._last
        weights = self.operand[: stop - start, last - block:last]
        terms = np.abs(weights) * _row_norms(self._rows[start - block:start])
        return float(terms.max(axis=1).min())


class SimulationHistory:
    """What the next step reads: U^0, U^{n-1}, U^n and the memory-sum rows.

    ops and table are the run's modal basis and weight table; tau and mu0
    are the table's.  The table must reach step n_steps - 1, the last step
    taken.  initial, previous and current hold U^0, U^{n-1} and U^n as modal
    coefficients.  velocity_diffs[p] holds the centered difference
    (U^{p+1} - U^{p-1}) / (2 tau) for p >= 1 and the discrete initial
    velocity for p = 0, also as modal coefficients; the memory sum weights
    these rows and scales the result by the eigenvalues.  The row buffer is
    allocated once, for n_steps steps; rows not written yet may hold the
    partial memory sums that `_MemorySum`, built here on the buffer, parks
    there.  The nodal initial data u0 and u1h are kept as given.

    observe(n, coeffs) is called with U^0 here and with every pushed level.
    Without an observer the history records the whole trajectory, which
    `coefficients`, `states` and `state` then read.

    The terms of a step that do not change with n are formed here once, as
    `constants`: w(n, n) is the same for every n >= 1.  Building a history
    on a table whose diagonal weight makes the elastic coefficient
    nonpositive raises StepError.
    """

    def __init__(self, mesh: Mesh, ops: DiscreteOperators, table: WeightTable,
                 u0: np.ndarray, u1h: np.ndarray, n_steps: int,
                 observe: Optional[Observer] = None):
        if table.n_max < n_steps - 1:
            raise ValueError(f"weight table covers n <= {table.n_max}, need {n_steps - 1}")
        self.mesh = mesh
        self.ops = ops
        self.table = table
        self.tau = table.tau
        self.mu0 = table.mu0
        self.u0 = np.asarray(u0, dtype=float)
        self.u1h = np.asarray(u1h, dtype=float)
        self._diffs = np.zeros((int(n_steps) + 1, self.u0.size))
        self._diffs[0] = ops.to_modal(self.u1h)
        self.initial = ops.to_modal(self.u0)
        self.previous = self.current = self.initial
        self.constants = _StepConstants.build(ops, table, self.initial)
        self._count = 1
        self._memory = _MemorySum(table, self._diffs)
        self._trajectory = Trajectory(n_steps, self.u0.size) if observe is None else None
        self._observe = self._trajectory if observe is None else observe
        self._observe(0, self.initial)

    @property
    def n_last(self) -> int:
        """Largest stored step index."""
        return self._count - 1

    @property
    def n_steps(self) -> int:
        """The number of steps the history was sized for."""
        return self._diffs.shape[0] - 1

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

    def memory_sum(self) -> np.ndarray:
        """Sum over p < n of w(n, p) * velocity_diffs[p] for the next step,
        n = n_last, as `_MemorySum` forms it."""
        return self._memory(self.n_last)

    def push(self, coeffs: np.ndarray) -> None:
        """Append the modal coefficients of U^{n+1}, cache its memory-sum row
        and pass it to the observer.  The history keeps `coeffs` itself as
        U^{n+1}, not a copy; a level that is not finite raises StepError
        before anything is written."""
        k = self._count
        if k > self.n_steps:
            raise IndexError(f"the history was sized for {self.n_steps} steps")
        if not np.isfinite(coeffs).all():
            raise StepError(f"state U^{k} computed at step {k - 1} is not finite")
        if k >= 2:
            self._diffs[k - 1] = (coeffs - self.previous) / (2.0 * self.tau)
        self.previous, self.current = self.current, coeffs
        self._count = k + 1
        self._observe(k, coeffs)


def taylor_start(history: SimulationHistory, damping: DampingSpec,
                 problem: Problem) -> tuple[np.ndarray, np.ndarray]:
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
    ops, tau = history.ops, history.tau
    c0, v1 = history.initial, history.initial_velocity
    q0 = damping_value(damping, ops, c0)
    a0 = -q0 * v1 - ops.eigenvalues * c0
    if problem.f is not None:
        a0 += ops.project(load_vector(history.mesh, problem.f, 0.0))
    c1 = c0 + tau * v1 + 0.5 * tau * tau * a0
    history.push(c1)
    return c1, a0


def step(history: SimulationHistory, damping: DampingSpec, problem: Problem) -> np.ndarray:
    """Advance from U^0..U^n to U^{n+1}, n = history.n_last; returns its
    modal coefficients, which are also pushed onto the history.

    The system matrix is
        S = (1/tau^2 + q_n/(2 tau)) M + (mu0/2 + w(n,n)/(2 tau)) A
    and the right-hand side collects the two known levels, the accumulated
    memory sum, the forcing, and the elastic contribution of the initial
    state carried by K(t_n).  In the modal basis S is diagonal.  Only q_n
    changes from step to step; the rest is the history's `constants`.
    """
    n = history.n_last
    if n < 1:
        raise ValueError("stepping starts at n = 1; use taylor_start first")
    if n >= history.n_steps:
        raise IndexError(f"step {n} would pass the {history.n_steps} steps "
                         f"the history was sized for")

    ops, tau, consts = history.ops, history.tau, history.constants
    c_n, c_nm1 = history.current, history.previous

    half_q = damping_value(damping, ops, c_n) / (2.0 * tau)
    smallest = consts.smallest + half_q
    if not (smallest > 0.0 and math.isfinite(smallest)):
        raise SolverError(
            f"system diagonal at step {n} is not positive and finite: smallest entry {smallest}"
        )

    rhs = ((2.0 / tau**2) * c_n + (half_q - consts.previous) * c_nm1
           - ops.eigenvalues * history.memory_sum()
           - float(history.table.k_values[n]) * consts.initial)
    if problem.f is not None:
        rhs += ops.project(load_vector(history.mesh, problem.f, n * tau))
    c_next = rhs / (consts.diagonal + half_q)
    history.push(c_next)
    return c_next


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
    if abs(table.tau - tau) > 1.0e-14 * max(1.0, tau):
        raise ValueError(f"table step {table.tau} does not match tau = {tau}")

    history = SimulationHistory(
        mesh, ops, table, interpolate(mesh, problem.u0),
        interpolate(mesh, problem.u1), n_steps, observe,
    )
    taylor_start(history, damping, problem)
    for _ in range(1, n_steps):
        step(history, damping, problem)
    return history

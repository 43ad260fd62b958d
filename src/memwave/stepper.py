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

A run streams: a step reads U^0, U^{n-1}, U^n and the memory sum over the
velocity differences, and the history keeps only those and what the memory
sum needs.  Every new level goes to an observer, a callable
observe(n, coeffs, norms), with the `LevelNorms` that push forms from the
arrays it already holds: the squared mass and elastic norms of the level,
which also give the damping coefficient of the next step, the squared norm
of the memory row it hands over and that of the increment.  Without an
observer the history records the whole trajectory through the `Trajectory`
observer.

The step size is fixed for the whole run, so one modal basis and one weight
table serve every step.  The history binds both when it is built, and
`step` and `taylor_start` take only what is not stored: the damping and the
problem.  The history always steps at its own last level n = n_last.

The memory sum of step n weights the whole velocity history.  For a
KernelSpec, `_Memory` forms it from the initial velocity, an exact window
of recent rows and a few exponential modes that hold all older ones, in
storage that does not grow with the run; its docstring says how.  A table
whose weights are all 0, as the zero kernel hook's are, gets a memory that
keeps nothing and sums to 0; a history refuses any other kernel hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .fem import DiscreteOperators, Mesh, assemble, interpolate, load_vector
from .kernel import KernelLike, KernelSpec, QuadratureError, exponential_modes
from .quadweights import WeightTable, build_weight_table, hat_weights

__all__ = [
    "DampingSpec",
    "LevelNorms",
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

# L0: the steps whose memory sums the GEMMs of one block form together, and
# the lags below which the memory sum weights rows with the table's weights
_MEMORY_BLOCK = 32
# mode weights may differ from the table's by this much of tau*exp(-sigma*(j-1)*tau)
_MODE_TOL = 1.0e-12


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


class LevelNorms(NamedTuple):
    """Squared norms of the level U^k, formed by `SimulationHistory.push`
    from arrays it holds anyway, in the modal basis where ||v||_M^2 =
    sum(v^2) and ||v||_A^2 = sum(eigenvalues * v^2).

    mass      : ||U^k||_M^2
    elastic   : ||U^k||_A^2
    velocity  : ||d_{k-1}||_M^2 of the memory row handed over with U^k, the
                initial velocity at k = 1 and (U^k - U^{k-2}) / (2 tau)
                after, so it lags the level by one; nan at k = 0
    increment : ||U^k - U^{k-1}||_M^2; nan at k = 0
    """

    mass: float
    elastic: float
    velocity: float
    increment: float


def _state_norms(eigenvalues: np.ndarray, coeffs: np.ndarray) -> tuple[float, float]:
    """||u||_M^2 and ||u||_A^2 of the modal coefficients of u."""
    return float(coeffs @ coeffs), float((eigenvalues * coeffs) @ coeffs)


def damping_value(spec: DampingSpec, norms: LevelNorms) -> float:
    """q = G(mu1 * ||u||_M^2 + mu2 * ||u||_A^2) for a state whose squared
    norms are norms.mass and norms.elastic."""
    z = spec.mu1 * norms.mass + spec.mu2 * norms.elastic
    q = spec.value(z)
    if not q >= spec.g0:
        raise StepError(
            f"damping coefficient q = {q} at argument z = {z} is not >= g0 = {spec.g0}"
        )
    return q


# observe(n, coeffs, norms) receives the modal coefficients of U^n, which the
# stepper goes on reading (an observer copies what it keeps and writes
# nothing), and their LevelNorms
Observer = Callable[[int, np.ndarray, LevelNorms], None]


class Trajectory:
    """Observer that records every level U^0..U^{n_steps} as modal coefficients."""

    def __init__(self, n_steps: int, ndof: int):
        self.coefficients = np.zeros((int(n_steps) + 1, ndof))

    def __call__(self, n: int, coeffs: np.ndarray, norms: LevelNorms) -> None:
        self.coefficients[n] = coeffs


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
        w_nn = table.edge_right
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


class _Memory:
    """The memory sum of one run: sum over p < n of w(n, p) * d_p for step n.

    d_0 is the initial velocity the memory is built with, and d_p for
    p >= 1 the row that push(p, row) hands over, in order of p.  Steps are
    taken in blocks of L0 = _MEMORY_BLOCK, aligned to multiples of L0; step
    n = s + i of the block starting at s weights d_0 with edge_left[n], and
    the rows p > max(0, s - L0), at lags below L0 + i, with the table's
    exact body weights.  Every older row p >= 1 lives on in 2K real state
    rows, the real and imaginary parts of the K complex modes
    H_k = sum_{1 <= p <= s - L0} a_k c_k rho_k**(s - p) d_p, with
    rho_k = exp(-w_k tau), K(t) = Re sum_k a_k exp(-w_k t) as
    `kernel.exponential_modes` gives it and c_k the full-hat weight of
    `hat_weights`.  Step n adds Re sum_k rho_k**i H_k for them, so the
    storage does not grow with the run.  For alpha = 1/2 the modes are
    compressed to the tail's numerical rank: K = 18 on the 2d benchmark
    and 27 on the 1d one, where the quadrature alone gives 54 and 68, and
    every cost of a block below scales with K.

    Both buffers hold [d_0 | states | ring]: d_0, the 2K state rows, then
    the rows s - 31 .. s - 1 of the previous block and the L0 slots of the
    current block, where push writes row p to slot p - s.  Two GEMMs and a
    copy, the turn, serve each block s' in `_back`: once when the memory
    is built, for s' = 0, and then when the last row of the block
    s = s' - L0 arrives.  They are the advance states <- `_advance` @
    [states; rows s - 31 .. s], which absorbs the rows leaving the window
    and turns each mode by rho**L0; a copy of rows s + 1 .. s + 31; and
    the far and near sums of all steps of the block, [edge_left[s' + i] |
    Re rho**i | -Im rho**i | body[31 + i - c]] @ [d_0; states; those 31
    rows], parked in the slots, which push overwrites only after step
    s' + i has read slot i; then the buffers swap.  Step s' + i adds its
    rows p >= s' with one short GEMV.  The first turn finds no rows,
    and push never writes slot 0 of the first block, as d_0 has its own
    row: that slot keeps the parked sum of step 0, edge_left[0] d_0 = 0,
    which the GEMVs and the next advance read as a zero row.  So a block
    costs a (2K) x (2K + 32) and a 32 x (2K + 64) GEMM against buffers of
    (2K + 64) x ndof.

    Building the memory raises QuadratureError naming the mode if a rate
    is not finite with Re w > 0, since that mode would not decay.  It
    then checks the mode weights against table.body at every lag j >= L0
    the run reaches, and raises QuadratureError naming the first lag off
    by more than _MODE_TOL * tau * exp(-sigma (j - 1) tau).  The sum then
    differs from the direct one by the rounding of its terms and that
    mismatch.  The memory needs the modes of a KernelSpec table.
    """

    def __init__(self, table: WeightTable, n_steps: int, initial_velocity: np.ndarray):
        tau, self._last, self._table = table.tau, n_steps - 1, table
        block = _MEMORY_BLOCK
        amplitudes, rates = exponential_modes(table.kernel, (block - 1) * tau,
                                              max(n_steps, block) * tau)
        decays = np.isfinite(rates) & (rates.real > 0.0)
        if not decays.all():
            k = int(np.argmin(decays))
            raise QuadratureError(f"exponential mode {k} has rate w = {rates[k]:.6g}; "
                                  f"every mode must decay, with finite Re w > 0")
        body = amplitudes * hat_weights(rates, tau)
        rho = np.exp(-np.outer(rates * tau, np.arange(2 * block)))  # rho_k**j, j < 2 L0
        _check_modes(table, body, rates, rho[:, :block], self._last)
        # column r of absorb takes the leaving row s' - 2 L0 + 1 + r at lag 2 L0 - 1 - r
        absorb, turn = body[:, None] * rho[:, :block - 1:-1], np.diag(rho[:, block])
        self._advance = np.block([[turn.real, -turn.imag, absorb.real],
                                  [turn.imag, turn.real, absorb.imag]])
        # lags beyond the table appear only in rows of steps past the run;
        # column 0, the weights of d_0, is filled by each turn
        lags = np.clip(block - 1 + np.arange(block)[:, None] - np.arange(2 * block - 1),
                       0, table.n_max)
        self._weights = np.hstack([np.zeros((block, 1)), rho[:, :block].real.T,
                                   -rho[:, :block].imag.T, table.body[lags]])
        self._offset = 2 * rates.size + block
        self._front, self._back = np.zeros((2, self._offset + block, initial_velocity.size))
        self._front[0] = self._back[0] = initial_velocity
        self._turn(0)

    def push(self, p: int, row: np.ndarray) -> None:
        """Take row p >= 1, once rows 1..p-1 are in."""
        self._front[self._offset + p % _MEMORY_BLOCK] = row
        if p % _MEMORY_BLOCK == _MEMORY_BLOCK - 1 and p < self._last:
            self._turn(p + 1)

    def _turn(self, start: int) -> None:
        front, back, o, k2 = self._front, self._back, self._offset, self._advance.shape[0]
        np.matmul(self._advance, front[1:o + 1], out=back[1:k2 + 1])
        back[k2 + 1:o] = front[o + 1:]
        stop = min(_MEMORY_BLOCK, self._last + 1 - start)
        self._weights[:stop, 0] = self._table.edge_left[start:start + stop]
        np.matmul(self._weights[:stop, :o], back[:o], out=back[o:o + stop])
        self._front, self._back = back, front

    def __call__(self, n: int) -> np.ndarray:
        """The memory sum of step n, once rows 1..n-1 are pushed."""
        front, o, i = self._front, self._offset, n % _MEMORY_BLOCK
        return front[o + i] + self._weights[i, o:o + i] @ front[o:o + i]


def _check_modes(table: WeightTable, body: np.ndarray, rates: np.ndarray,
                 inner: np.ndarray, last: int) -> None:
    """Raise QuadratureError unless Re sum_k body_k rho_k**j matches
    table.body[j] within _MODE_TOL * tau * exp(-sigma (j - 1) tau) at
    every lag L0 <= j <= last.  rho**j is formed by its factors
    rho**(L0 q) and inner = rho**r, j = L0 q + r."""
    tau, block = table.tau, _MEMORY_BLOCK
    lags = np.arange(block, last + 1)
    outer = np.exp(-np.outer(np.arange(1, last // block + 1) * (block * tau), rates))
    bound = _MODE_TOL * tau * np.exp(-table.kernel.sigma * tau * (lags - 1))
    off = np.abs(((outer * body) @ inner).real.ravel()[:lags.size] - table.body[lags])
    ratio = off / np.maximum(bound, np.finfo(float).tiny)
    if lags.size and not ratio.max() <= 1.0:
        raise QuadratureError(
            f"exponential modes miss the weight at lag {lags[ratio.argmax()]} by "
            f"{ratio.max():.3g} times {_MODE_TOL:g} * tau * exp(-sigma * (lag - 1) * tau)"
        )


class _NoMemory:
    """The memory of a table whose body and edge_left weights are all 0,
    as the zero kernel hook's are: it keeps no rows, and every sum is 0."""

    def __init__(self, ndof: int):
        self._zero = np.zeros(ndof)
        self._zero.flags.writeable = False

    def push(self, p: int, row: np.ndarray) -> None:
        """Take row p and keep nothing of it."""

    def __call__(self, n: int) -> np.ndarray:
        """The memory sum of step n: 0."""
        return self._zero


class SimulationHistory:
    """What the next step reads: U^0, U^{n-1}, U^n and the memory sum.

    ops and table are the run's modal basis and weight table; tau and mu0
    are the table's.  The table must reach step n_steps - 1, the last step
    taken.  initial, previous and current hold U^0, U^{n-1} and U^n as modal
    coefficients, and initial_velocity the discrete initial velocity.  The
    memory sum weights the rows d_0 = initial_velocity and, for p >= 1, the
    centered differences d_p = (U^{p+1} - U^{p-1}) / (2 tau), also modal,
    and the step scales the result by the eigenvalues.  The run's memory
    is built with d_0, and push hands it each new d_p; it keeps what later
    sums need: none (`_NoMemory`) when the table's memory weights are all
    0, as the zero kernel hook's are, and otherwise a `_Memory` of O(ndof)
    rows, which needs a KernelSpec table.  A table of any other kernel
    hook raises ValueError.  The nodal initial data u0 and u1h are kept as
    given.

    observe(n, coeffs, norms) is called with U^0 here and with every pushed
    level; `norms` holds the `LevelNorms` of U^n_last, which the next step
    reads for its damping coefficient.  Without an observer the history
    records the whole trajectory, which `coefficients`, `states` and
    `state` then read.

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
        self.n_steps = int(n_steps)
        self.u0 = np.asarray(u0, dtype=float)
        self.u1h = np.asarray(u1h, dtype=float)
        self.initial = ops.to_modal(self.u0)
        self.initial_velocity = ops.to_modal(self.u1h)
        self.previous = self.current = self.initial
        self.norms = LevelNorms(*_state_norms(ops.eigenvalues, self.initial), math.nan, math.nan)
        self.constants = _StepConstants.build(ops, table, self.initial)
        self._count = 1
        if not (table.body.any() or table.edge_left.any()):
            self._memory = _NoMemory(self.u0.size)
        elif isinstance(table.kernel, KernelSpec):
            self._memory = _Memory(table, self.n_steps, self.initial_velocity)
        else:
            raise ValueError("the memory of a kernel hook with nonzero weights has no "
                             "exponential modes; give a KernelSpec")
        self._trajectory = Trajectory(n_steps, self.u0.size) if observe is None else None
        self._observe = self._trajectory if observe is None else observe
        self._observe(0, self.initial, self.norms)

    @property
    def n_last(self) -> int:
        """Largest stored step index."""
        return self._count - 1

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the history holds: its own, its constants',
        its memory's and, without an observer, the recorded trajectory; an
        array held under two names counts once."""
        held = (self, self.constants, self._memory, self._trajectory)
        return sum({id(value): value.nbytes for owner in held if owner is not None
                    for value in vars(owner).values() if isinstance(value, np.ndarray)}.values())

    @property
    def coefficients(self) -> np.ndarray:
        """View of the recorded modal coefficients of U^0..U^n, shape (n+1, ndof)."""
        if self._trajectory is None:
            raise ValueError("an observed history keeps only U^0, U^{n-1} and U^n")
        return self._trajectory.coefficients[: self._count]

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
        """Sum over p < n of w(n, p) * d_p for the next step, n = n_last."""
        return self._memory(self.n_last)

    def push(self, coeffs: np.ndarray) -> None:
        """Append the modal coefficients of U^{n+1}, hand its memory-sum row
        d_n to the memory and pass the level with its `LevelNorms` to the
        observer.  The history keeps `coeffs` itself as U^{n+1}, not a copy;
        a level that is not finite raises StepError before anything is
        written.  The check reads the squared norm: only when that is not
        finite are the entries themselves tested, so a finite level whose
        squared norm overflows is let through, and its step raises
        SolverError."""
        k = self._count
        if k > self.n_steps:
            raise IndexError(f"the history was sized for {self.n_steps} steps")
        mass, elastic = _state_norms(self.ops.eigenvalues, coeffs)
        if not math.isfinite(mass) and not np.isfinite(coeffs).all():
            raise StepError(f"state U^{k} computed at step {k - 1} is not finite")
        if k >= 2:
            row = (coeffs - self.previous) / (2.0 * self.tau)
            self._memory.push(k - 1, row)
        else:
            row = self.initial_velocity
        increment = coeffs - self.current
        self.norms = LevelNorms(mass, elastic, float(row @ row), float(increment @ increment))
        self.previous, self.current = self.current, coeffs
        self._count = k + 1
        self._observe(k, coeffs, self.norms)


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
    q0 = damping_value(damping, history.norms)
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
    changes from step to step, formed from the history's `norms` of U^n;
    the rest is the history's `constants`.
    """
    n = history.n_last
    if n < 1:
        raise ValueError("stepping starts at n = 1; use taylor_start first")
    if n >= history.n_steps:
        raise IndexError(f"step {n} would pass the {history.n_steps} steps "
                         f"the history was sized for")

    ops, tau, consts = history.ops, history.tau, history.constants
    c_n, c_nm1 = history.current, history.previous

    half_q = damping_value(damping, history.norms) / (2.0 * tau)
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
    """Step U^0..U^{n_steps}, passing each level to observe(n, coeffs, norms).

    observe sees the modal coefficients of U^n for n = 0..n_steps in order,
    with their `LevelNorms`; without it the returned history records the
    whole trajectory.
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

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

A run streams: a step reads U^{n-1}, U^n and the history term, the memory
sum over the velocity differences plus K(t_n) U^0, and the history keeps
only those and what the history term needs, beside one table of four
squared norms per level, `SimulationHistory.norms`, that push fills from
the arrays it already holds: the mass and elastic norms of the level,
which also give the damping coefficient of the next step, the norm of the
memory row it writes and that of the increment.  Every new level goes to
an observer, a callable observe(history), which reads the level from the
history.  Without an observer the history records the whole trajectory
through the `Trajectory` observer.

The step size is fixed for the whole run, so one modal basis and one weight
table serve every step.  The history binds both when it is built, and
`step` and `taylor_start` take only what is not stored: the damping and the
problem.  The history always steps at its own last level n = n_last.

The history term of step n weights the whole velocity history and the
initial state.  `_Memory` forms it from the initial velocity, U^0, the
rows of the current and the previous block of 32 steps with the exact
weights, and a few exponential modes that hold all older rows and serve
the lags 33 and more.  They share one buffer that does not grow with the
run, a ring of two block regions around the fixed rows: a block turn
copies only the modes' 2K state rows, and a step's own GEMV reads at most
8 rows beside the sum parked for it; its docstring says how.  A kernel
hook has no modes, so its weights must vanish from lag 32 on, as the
zero hook's do; building the history checks that for every kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._blas import one_thread
from .fem import DiscreteOperators, Mesh, assemble, interpolate, load_vector
from .kernel import KernelLike, KernelSpec, QuadratureError, exponential_modes
from .quadweights import WeightTable, build_weight_table, hat_weights

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

# L0: the steps whose memory sums the GEMMs of one block form together, and
# the lags below which the memory sum weights rows with the table's weights
_MEMORY_BLOCK = 32
# the rows of a block that one refresh folds into the parked sums of the
# block's later steps, so that a step's GEMV reads at most this many rows
_MEMORY_SUBBLOCK = 8
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

    g0 = G(0) is the least value G takes.  The Lipschitz bounds are the
    theory's constants; no run reads them.

    mu1 weights the L2 norm, mu2 the gradient norm; they are nonnegative and
    not both zero.
    """

    kind: str
    mu1: float = 1.0
    mu2: float = 1.0
    constant: float = 1.0
    g0: float = field(init=False)

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
        if self.kind == "constant" and not self.constant > 0.0:
            raise ValueError(f"constant damping must be positive, got {self.constant}")
        object.__setattr__(self, "g0", self.constant if self.kind == "constant" else 1.0)

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

    The coordinates are numpy arrays.  In 2d they are open per-axis arrays,
    such as x of shape (M-1, 1) and y of shape (1, M-1), and the value must
    broadcast to the grid they span; a scalar value is broadcast too.
    """

    u0: Callable
    u1: Callable
    f: Optional[Callable] = None


def _state_norms(eigenvalues: np.ndarray, coeffs: np.ndarray) -> tuple[float, float]:
    """||u||_M^2 and ||u||_A^2 of the modal coefficients of u."""
    return float(coeffs @ coeffs), float((eigenvalues * coeffs) @ coeffs)


def damping_value(spec: DampingSpec, row: np.ndarray) -> float:
    """q = G(mu1 * ||u||_M^2 + mu2 * ||u||_A^2) for a state whose squared
    norms lead `row`, a row of `SimulationHistory.norms`: row[0] = ||u||_M^2
    and row[1] = ||u||_A^2."""
    z = spec.mu1 * row.item(0) + spec.mu2 * row.item(1)
    q = spec.value(z)
    if not q >= spec.g0:
        raise StepError(
            f"damping coefficient q = {q} at argument z = {z} is not >= g0 = {spec.g0}"
        )
    return q


# observe(history) reads the new level U^n, n = history.n_last, from the
# history: its modal coefficients `current`, which the stepper goes on
# reading, and row n of `norms`; an observer copies what it keeps and
# writes nothing
Observer = Callable[["SimulationHistory"], None]


class Trajectory:
    """Observer that records every level U^0..U^{n_steps} as modal coefficients."""

    def __init__(self, n_steps: int, ndof: int):
        self.coefficients = np.zeros((int(n_steps) + 1, ndof))

    def __call__(self, history: SimulationHistory) -> None:
        self.coefficients[history.n_last] = history.current


@dataclass(frozen=True, eq=False)
class _StepConstants:
    """The terms of the step system that are the same at every step n >= 1.

    With e = mu0/2 + w(n,n)/(2 tau), the system diagonal of step n is
    `diagonal` + q_n/(2 tau), `smallest` is the least entry of `diagonal`,
    U^n enters the right-hand side with the factor `inertia` and U^{n-1}
    with q_n/(2 tau) - `previous`.  A step size whose square underflows to
    0 raises SolverError naming tau.
    """

    diagonal: np.ndarray  # 1/tau^2 + e * lambda
    smallest: float
    previous: np.ndarray  # 1/tau^2 + (mu0/2 - w(n,n)/(2 tau)) * lambda
    inertia: float        # 2/tau^2
    two_tau: float

    @classmethod
    def build(cls, ops: DiscreteOperators, table: WeightTable) -> "_StepConstants":
        lam, tau, mu0 = ops.eigenvalues, table.tau, table.mu0
        if not tau**2 > 0.0:
            raise SolverError(f"step size tau = {tau!r}: tau^2 underflows to {tau**2!r}, so "
                              f"the system diagonal 1/tau^2 + e * lambda is not finite")
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
        return cls(diagonal, smallest, previous, 2.0 / tau**2, 2.0 * tau)


class _Memory:
    """The history term of one run: sum over p < n of w(n, p) * d_p, plus
    K(t_n) U^0, for step n.

    d_0 is the initial velocity the memory is built with, and d_p for
    p >= 1 the row written into row(p) before push(p), in order of p.
    Steps are taken in blocks of L0 = _MEMORY_BLOCK, aligned to multiples
    of L0; step n = s + i of the block starting at s weights d_0 with
    edge_left[n], U^0 with k_values[n] = K(t_n), and the rows
    p >= s - L0 of this block and the one before it, at lags below
    L0 + i + 1, with the table's exact body weights.  Every older row
    p >= 1 lives on in 2K real state rows, the real and imaginary parts of
    the K complex modes
    H_k = sum_{1 <= p < s - L0} a_k c_k rho_k**(s - p) d_p, with
    rho_k = exp(-w_k tau), K(t) = Re sum_k a_k exp(-w_k t) as
    `kernel.exponential_modes` gives it and c_k the full-hat weight of
    `hat_weights`.  Step n adds Re sum_k rho_k**i H_k for them, so the
    modes serve the lags L0 + 1 and more, and the storage does not grow
    with the run.  For alpha = 1/2 the modes are compressed to the tail's
    numerical rank: K = 18 on the 2d benchmark and 27 on the 1d one, where
    the quadrature alone gives 54 and 68, and every cost of a block below
    scales with K.  A callable kernel hook has no modes, K = 0, so the sum
    drops every row older than the previous block, and the check below
    holds the hook's weights to 0 from lag L0 on.

    One buffer holds [X | d_0 | U^0 | states | Y]: two regions of L0 rows
    around the fixed rows d_0 and U^0 and the 2K state rows.  Block b
    writes its rows into X when b is even and into Y when it is odd, row
    p into slot p - s of its region.  A turn serves each block s': once
    when the memory is built, for s' = 0, and then when the last row of
    the block s = s' - L0 arrives.  The advance GEMM
    states <- rho**L0 states + the region of the block s - L0, each row c
    of it weighted with a_k c_k rho_k**(2 L0 - c), reads [states | Y] or
    [X | d_0 | U^0 | states], whose d_0 and U^0 columns are 0, forms the
    new states in a scratch and copies them into the state rows, the only
    copy of the turn.  The parked GEMM then forms the far and near sums of
    all steps of the block, [edge_left[s' + i] | k_values[s' + i] |
    Re rho**i | -Im rho**i | body[L0 + i - c]] @ [d_0; U^0; states; the
    rows of the block s], into the region just absorbed, where block s'
    writes its rows; it reads [X | d_0 | U^0 | states] or
    [d_0 | U^0 | states | Y].
    `_advance` and `_parked` are laid out as the buffer, with the region
    columns of both regions filled, so each GEMM takes one column slice.
    Slot i holds the parked sum of step s' + i until row s' + i overwrites
    it, after that step has read it.  The block's own rows join the parked
    sums by sub-blocks of L1 = _MEMORY_SUBBLOCK = 8 slots, the refresh:
    when the last row of a sub-block arrives, at i = 7, 15 or 23, one
    small GEMM weights those 8 rows c with body[j - c] for each later step
    j of the block that the run reaches, into the scratch, and adds the
    result to their parked sums.  So step s' + i adds to its parked sum
    the rows s' + L1 floor(i / L1) .. s' + i - 1 of its own sub-block in
    one GEMV, at most 8 rows; the GEMV and the refresh read the block's
    region through `_own`, whose row i holds a 1 at lag 0, the column of
    slot i, and body[i - c] before it.  The first turn finds no rows, and
    no row is written to slot 0 of the first block, as d_0 has its own
    row: the turn parks K(0) U^0 there, the sum of step 0, which no step
    reads, and the memory sets that slot to 0 so that the GEMVs of steps
    1 .. 7, the first refresh, the parked GEMM of the second block and
    the advance of the third read it as a zero row.  So a block costs a
    (2K) x (2K + L0) GEMM, two zero columns more when it absorbs X, and an
    L0 x (2K + L0 + 2) GEMM against a buffer of
    (2K + 2 L0 + 2) x ndof and a scratch of max(2K, L0 - L1) x ndof, a
    copy of 2K rows and three (<= 24) x 8 GEMMs.

    Building the memory raises QuadratureError naming the mode if a rate
    is not finite with Re w > 0, since that mode would not decay.  It
    then checks the mode weights against table.body at every lag j >= L0
    the run reaches, and raises QuadratureError naming the first lag off
    by more than _MODE_TOL * tau * exp(-sigma (j - 1) tau), with
    sigma = 0 for a hook.  The sum then differs from the direct one by
    the rounding of its terms and that mismatch.
    """

    def __init__(self, table: WeightTable, n_steps: int, initial_velocity: np.ndarray,
                 initial: np.ndarray):
        tau, self._last, self._table = table.tau, n_steps - 1, table
        block = _MEMORY_BLOCK
        if isinstance(table.kernel, KernelSpec):
            amplitudes, rates = exponential_modes(table.kernel, (block - 1) * tau,
                                                  max(n_steps, block) * tau)
            sigma = table.kernel.sigma
        else:
            amplitudes = rates = np.zeros(0, dtype=complex)
            sigma = 0.0
        decays = np.isfinite(rates) & (rates.real > 0.0)
        if not decays.all():
            k = int(np.argmin(decays))
            raise QuadratureError(f"exponential mode {k} has rate w = {rates[k]:.6g}; "
                                  f"every mode must decay, with finite Re w > 0")
        body = amplitudes * hat_weights(rates, tau)
        rho = np.exp(-np.outer(rates * tau, np.arange(2 * block + 1)))  # rho_k**j, j <= 2 L0
        _check_modes(table, body, rates, sigma, rho[:, :block], self._last)
        k2 = 2 * rates.size
        # the rows of the buffer: X, then d_0, U^0 and the states, then Y
        width = 2 * block + 2 + k2
        # row c of an absorbed region is at lag 2 L0 - c from the new block's start
        absorb, turn = body[:, None] * rho[:, 2 * block:block:-1], np.diag(rho[:, block])
        self._advance = np.zeros((k2, width))
        self._advance[:, :block] = self._advance[:, -block:] = np.vstack([absorb.real,
                                                                          absorb.imag])
        self._advance[:, block + 2:block + 2 + k2] = np.block([[turn.real, -turn.imag],
                                                              [turn.imag, turn.real]])
        # lags beyond the table appear only in rows of steps past the run;
        # columns block and block + 1, the weights of d_0 and U^0, are
        # filled by each turn
        previous = table.body[np.minimum(block + np.arange(block)[:, None] - np.arange(block),
                                         table.n_max)]
        self._parked = np.hstack([previous, np.zeros((block, 2)), rho[:, :block].real.T,
                                  -rho[:, :block].imag.T, previous])
        lags = np.arange(block)[:, None] - np.arange(block)
        self._own = np.where(lags == 0, 1.0, table.body[np.clip(lags, 0, table.n_max)])
        self._rows = np.zeros((width, initial_velocity.size))
        self._rows[block], self._rows[block + 1] = initial_velocity, initial
        self._scratch = np.zeros((max(k2, block - _MEMORY_SUBBLOCK), initial_velocity.size))
        self._regions = (self._rows[:block], self._rows[-block:])
        self._turn(0)
        self._rows[0] = 0.0  # slot 0 of the first block holds no row

    def row(self, p: int) -> np.ndarray:
        """The slot that row p >= 1 is written into, before push(p)."""
        return self._regions[p // _MEMORY_BLOCK % 2][p % _MEMORY_BLOCK]

    def push(self, p: int) -> None:
        """Take row p >= 1, written into row(p), once rows 1..p-1 are in."""
        i = p % _MEMORY_BLOCK
        if i % _MEMORY_SUBBLOCK == _MEMORY_SUBBLOCK - 1 and p < self._last:
            if i == _MEMORY_BLOCK - 1:
                self._turn(p + 1)
            else:
                self._refresh(self._regions[p // _MEMORY_BLOCK % 2], i,
                              min(_MEMORY_BLOCK, self._last + 1 + i - p))

    def _refresh(self, region: np.ndarray, i: int, stop: int) -> None:
        """Add the rows of slots i - 7 .. i of `region`, the sub-block that
        slot i closes, to the parked sums of slots i + 1 .. stop - 1."""
        lo, hi = i + 1 - _MEMORY_SUBBLOCK, i + 1
        scratch = self._scratch[:stop - hi]
        np.matmul(self._own[hi:stop, lo:hi], region[lo:hi], out=scratch)
        region[hi:stop] += scratch

    def _turn(self, start: int) -> None:
        """Serve the block starting at `start`: absorb the region of the
        block before the last into the states, then park the block's sums
        in that region."""
        rows, block, k2 = self._rows, _MEMORY_BLOCK, self._advance.shape[0]
        odd = start // block % 2
        region = self._regions[odd]
        if odd:  # [states | Y] is absorbed, [X | d_0 | U^0 | states] read
            absorbed, kept = slice(block + 2, None), slice(None, -block)
        else:    # [X | d_0 | U^0 | states] is absorbed, [d_0 | U^0 | states | Y] read
            absorbed, kept = slice(None, -block), slice(block, None)
        np.matmul(self._advance[:, absorbed], rows[absorbed], out=self._scratch[:k2])
        rows[block + 2:block + 2 + k2] = self._scratch[:k2]
        stop = min(block, self._last + 1 - start)
        self._parked[:stop, block] = self._table.edge_left[start:start + stop]
        self._parked[:stop, block + 1] = self._table.k_values[start:start + stop]
        np.matmul(self._parked[:stop, kept], rows[kept], out=region[:stop])

    def __call__(self, n: int) -> np.ndarray:
        """The history term of step n, once rows 1..n-1 are pushed."""
        i = n % _MEMORY_BLOCK
        lo = i - i % _MEMORY_SUBBLOCK
        return self._own[i, lo:i + 1] @ self._regions[n // _MEMORY_BLOCK % 2][lo:i + 1]


@one_thread()
def _check_modes(table: WeightTable, body: np.ndarray, rates: np.ndarray, sigma: float,
                 inner: np.ndarray, last: int) -> None:
    """Raise QuadratureError unless Re sum_k body_k rho_k**j matches
    table.body[j] within _MODE_TOL * tau * exp(-sigma (j - 1) tau) at
    every lag L0 <= j <= last; the message names the mode count and sigma,
    0 modes and sigma = 0 for a kernel hook.  rho**j is formed by its
    factors rho**(L0 q) and inner = rho**r, j = L0 q + r, in one complex
    product, which runs on one BLAS thread (`one_thread`)."""
    tau, block = table.tau, _MEMORY_BLOCK
    lags = np.arange(block, last + 1)
    outer = np.exp(-np.outer(np.arange(1, last // block + 1) * (block * tau), rates))
    bound = _MODE_TOL * tau * np.exp(-sigma * tau * (lags - 1))
    off = np.abs(((outer * body) @ inner).real.ravel()[:lags.size] - table.body[lags])
    ratio = off / np.maximum(bound, np.finfo(float).tiny)
    if lags.size and not ratio.max() <= 1.0:
        raise QuadratureError(
            f"{rates.size} exponential modes (sigma = {sigma:g}) miss the weight at lag "
            f"{lags[ratio.argmax()]} by {ratio.max():.3g} times "
            f"{_MODE_TOL:g} * tau * exp(-sigma * (lag - 1) * tau)"
        )


class SimulationHistory:
    """What the next step reads: U^{n-1}, U^n and the history term.

    ops and table are the run's modal basis and weight table; tau and mu0
    are the table's.  The table must reach step n_steps - 1, the last step
    taken.  initial, previous and current hold U^0, U^{n-1} and U^n as modal
    coefficients, and initial_velocity the discrete initial velocity.  The
    memory sum weights the rows d_0 = initial_velocity and, for p >= 1, the
    centered differences d_p = (U^{p+1} - U^{p-1}) / (2 tau), also modal;
    the history term adds K(t_n) U^0 to that sum, and the step scales the
    result by the eigenvalues.  The run's memory, a `_Memory` of O(ndof)
    rows, is built with d_0 and U^0, and push writes each new d_p into it;
    building it raises QuadratureError when its modes miss the table's
    weights, as they do for a kernel hook whose weights do not vanish
    from lag 32 on.  The nodal initial data u0 and u1h are
    kept as given.  n_last, the largest stored step index, is the level
    the next step is taken from, and push advances it.

    `norms`, of shape (n_steps + 1, 4), holds in row k the squared norms of
    the level U^k, in the modal basis where ||v||_M^2 = sum(v^2) and
    ||v||_A^2 = sum(eigenvalues * v^2): ||U^k||_M^2, ||U^k||_A^2, the norm
    ||d_{k-1}||_M^2 of the memory row handed over with U^k (the initial
    velocity at k = 1, so it lags the level by one) and ||U^k - U^{k-1}||_M^2.
    Row 0 is filled here, with nan in the last two columns, and push fills
    each next row; rows not reached yet are nan.  The next step reads its
    damping coefficient from row n_last.

    observe(history) is called with the history once U^0 is set here and
    after every push.  Without an observer the history records the whole
    trajectory, which `coefficients`, `states` and `state` then read.

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
        self.constants = _StepConstants.build(ops, table)
        self.n_last = 0
        self._memory = _Memory(table, self.n_steps, self.initial_velocity, self.initial)
        # allocated after the memory, so that the table is not resident
        # through the mode fit and check, the peak of the build
        self.norms = np.full((self.n_steps + 1, 4), math.nan)
        self.norms[0, :2] = _state_norms(ops.eigenvalues, self.initial)
        self._trajectory = Trajectory(n_steps, self.u0.size) if observe is None else None
        self._observe = self._trajectory if observe is None else observe
        self._observe(self)

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
        return self._trajectory.coefficients[: self.n_last + 1]

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

    def history_term(self) -> np.ndarray:
        """Sum over p < n of w(n, p) * d_p, plus K(t_n) U^0, for the next
        step, n = n_last, as a new array."""
        return self._memory(self.n_last)

    def push(self, coeffs: np.ndarray) -> None:
        """Append the modal coefficients of U^{n+1}, write its memory row d_n
        into the memory, store the level's row of `norms` in one write and
        call the observer.  The velocity norm is read from the row's slot
        before the memory takes the row, since taking it may turn the block.
        The history keeps `coeffs` itself as U^{n+1}, not a copy;
        a level that is not finite raises StepError before anything is
        written.  The check reads the squared norm: only when that is not
        finite are the entries themselves tested, so a finite level whose
        squared norm overflows is let through, and its step raises
        SolverError."""
        k = self.n_last + 1
        if k > self.n_steps:
            raise IndexError(f"the history was sized for {self.n_steps} steps")
        mass, elastic = _state_norms(self.ops.eigenvalues, coeffs)
        if not math.isfinite(mass) and not np.isfinite(coeffs).all():
            raise StepError(f"state U^{k} computed at step {k - 1} is not finite")
        if k >= 2:
            row = self._memory.row(k - 1)
            np.subtract(coeffs, self.previous, out=row)
            row /= self.constants.two_tau
            velocity = row @ row
            self._memory.push(k - 1)
        else:
            velocity = self.initial_velocity @ self.initial_velocity
        increment = coeffs - self.current
        self.norms[k] = mass, elastic, velocity, increment @ increment
        self.previous, self.current = self.current, coeffs
        self.n_last = k
        self._observe(self)


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
    q0 = damping_value(damping, history.norms[0])
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
    and the right-hand side collects the two known levels, the history
    term (the accumulated memory sum and the initial state weighted by
    K(t_n)) and the forcing.  In the modal basis S is diagonal.  Only q_n
    changes from step to step, formed from row n of the history's `norms`;
    the rest is the history's `constants`.  The right-hand side is summed
    in place, in the order of the terms above, and divided in place.
    """
    n = history.n_last
    if n < 1:
        raise ValueError("stepping starts at n = 1; use taylor_start first")
    if n >= history.n_steps:
        raise IndexError(f"step {n} would pass the {history.n_steps} steps "
                         f"the history was sized for")

    ops, consts = history.ops, history.constants

    half_q = damping_value(damping, history.norms[n]) / consts.two_tau
    smallest = consts.smallest + half_q
    if not (smallest > 0.0 and math.isfinite(smallest)):
        raise SolverError(
            f"system diagonal at step {n} is not positive and finite: smallest entry {smallest}"
        )

    rhs = consts.inertia * history.current
    scratch = half_q - consts.previous
    scratch *= history.previous
    rhs += scratch
    np.multiply(ops.eigenvalues, history.history_term(), out=scratch)
    rhs -= scratch
    if problem.f is not None:
        rhs += ops.project(load_vector(history.mesh, problem.f, n * history.tau))
    np.add(consts.diagonal, half_q, out=scratch)
    rhs /= scratch
    history.push(rhs)
    return rhs


def run(problem: Problem, mesh: Mesh, tau: float, n_steps: int,
        kernel: Optional[KernelLike] = None, *, damping: DampingSpec,
        ops: Optional[DiscreteOperators] = None,
        table: Optional[WeightTable] = None,
        observe: Optional[Observer] = None) -> SimulationHistory:
    """Step U^0..U^{n_steps}, calling observe(history) as each level arrives.

    observe sees the history at n_last = 0..n_steps in order; without it the
    returned history records the whole trajectory.
    A prebuilt modal basis or weight table may be passed in, so that one
    serves several runs of its mesh or its step size; otherwise they are
    built here (the table then requires a kernel).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if table is None:
        if kernel is None:
            raise ValueError("either a kernel or a prebuilt weight table is required")
        table = build_weight_table(kernel, tau, max(1, n_steps - 1))
    if ops is None:
        # after the table, the order `cli.run_single` keeps: with the
        # operators first, `long_1d` read 0.4-0.9 % more wall time in
        # paired runs (2-core x86), at the same peak RSS
        ops = assemble(mesh)
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

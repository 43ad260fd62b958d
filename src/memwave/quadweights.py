"""Interpolatory quadrature weights for the memory convolution.

The time stepper approximates int_0^{t_n} K(t_n - s) * phi(s) ds by
integrating K against the piecewise-linear interpolant of phi on the uniform
grid t_p = p*tau.  That turns the integral into a discrete convolution

    Q_n(phi) = sum_{p=0..n} w(n, p) * phi(t_p)

where w(n, p) is the exact integral of K(t_n - s) against the hat function
centered at t_p, restricted to [0, t_n].  On a uniform grid the interior
weights depend only on the lag n - p (Toeplitz structure), the weight at
p = n is one number for every n, and only the p = 0 column genuinely varies
with n.  The table stores exactly those two arrays and that number, plus
the kernel samples K(t_n), the derived coefficients the stepper needs and
the kernel itself, so a built table fully describes the memory term for one
step size.
It is plain data: how a run lays the weights out for its memory sum is the
stepper's business, and no run writes into a table, so one table may serve
many runs.

For one exponential K(t) = exp(-w t) the interior weights are an exact
geometric sequence, body[j] = c_b exp(-w j tau); `hat_weights` gives c_b,
which the stepper's mode memory uses for the lags its exact window does not
hold.  The memory weights the p = 0 column from the table itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import KernelLike, KernelSpec, QuadratureError, kernel_transform

__all__ = ["WeightTable", "build_weight_table", "convolve", "hat_weights", "QuadratureError"]

#: absolute accuracy target for every stored weight
WEIGHT_TOL = 1.0e-12

#: bound on the running sum of the p = 0 weights: 1, with room for rounding
RUNNING_SUM_BOUND = 1.0 + 1.0e-12


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Quadrature weights and kernel samples for one step size.

    body[j], j = 1..n_max : interior weight at lag j = n - p (full hat)
    edge_left[n]          : weight of the p = 0 sample (half hat at 0)
    edge_right            : weight of the p = n sample (half hat at t_n),
                            one number: it is the same for every n >= 1 on
                            a uniform grid
    k_values[n]           : K(t_n) for n = 0..n_max
    k0, mu0               : K(0) and 1 - K(0)
    kernel                : the kernel the weights integrate

    Index 0 of body/edge_left is unused padding, 0, so that index n means
    step n throughout.  The table holds these arrays and nothing derived
    from them; no run writes into them.
    """

    tau: float
    n_max: int
    body: np.ndarray
    edge_left: np.ndarray
    edge_right: float
    k_values: np.ndarray
    k0: float
    mu0: float
    kernel: KernelLike

    def weight(self, n: int, p: int) -> float:
        """The quadrature weight multiplying phi(t_p) in Q_n."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n must be in [1, {self.n_max}], got {n}")
        if not 0 <= p <= n:
            raise IndexError(f"p must be in [0, {n}], got {p}")
        if p == 0:
            return float(self.edge_left[n])
        if p == n:
            return self.edge_right
        return float(self.body[n - p])

    def coefficients(self, n: int) -> np.ndarray:
        """All weights of Q_n as a length n+1 vector, index p."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n must be in [1, {self.n_max}], got {n}")
        out = np.empty(n + 1)
        out[0] = self.edge_left[n]
        out[1:n] = self.body[n - 1:0:-1]
        out[n] = self.edge_right
        return out


def _interval_moments(kernel: KernelLike, tau: float, n_intervals: int, order: int):
    """Per-interval integrals of K(u)*{1, (u - t_{i-1})/tau} on [t_{i-1}, t_i].

    Returns (flat, rise), each indexed 1..n_intervals with a zero pad at 0.
    For the weakly singular kernel the first interval is integrated in
    w = sqrt(u), where K(w**2) is analytic, so plain Gauss points converge
    spectrally there too.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    singular_first = isinstance(kernel, KernelSpec) and kernel.alpha == 0.5

    starts = tau * np.arange(n_intervals, dtype=float)  # t_{i-1}
    nodes = starts[:, None] + tau * 0.5 * (x[None, :] + 1.0)
    aweights = np.full((n_intervals, order), tau * 0.5) * w[None, :]
    if singular_first:
        wroot = np.sqrt(tau) * 0.5 * (x + 1.0)
        nodes[0] = wroot * wroot
        aweights[0] = np.sqrt(tau) * 0.5 * w * 2.0 * wroot

    kvals = kernel_transform(kernel, nodes)
    flat = np.zeros(n_intervals + 1)
    rise = np.zeros(n_intervals + 1)
    flat[1:] = np.sum(aweights * kvals, axis=1)
    rise[1:] = np.sum(aweights * kvals * (nodes - starts[:, None]) / tau, axis=1)
    return flat, rise


def _assemble(kernel: KernelLike, tau: float, n_max: int, order: int):
    flat, rise = _interval_moments(kernel, tau, n_max + 1, order)
    fall = flat - rise  # integral of K against the falling half-hat
    body = rise[:-1] + fall[1:]
    body[0] = 0.0
    return body, rise[:-1], float(fall[1])


def build_weight_table(kernel: KernelLike, tau: float, n_max: int) -> WeightTable:
    """Build the weight table for step size tau up to step index n_max.

    Each weight is the exact hat-function integral of K to absolute accuracy
    WEIGHT_TOL; the Gauss order is raised, from 10, until two successive
    computations agree.  Kernel-class invariants (positive weight at the diagonal, the
    running bound on the p = 0 column) are checked for KernelSpec kernels;
    bare-callable test hooks skip them.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")

    prev = _assemble(kernel, tau, n_max, 10)
    for order in (14, 20, 28, 40, 56):
        cur = _assemble(kernel, tau, n_max, order)
        deltas = [np.abs(a - b) for a, b in zip(cur, prev)]
        if max(float(d.max()) for d in deltas) <= WEIGHT_TOL:
            break
        prev = cur
    else:
        which = int(np.argmax([float(d.max()) for d in deltas]))
        idx = int(np.argmax(deltas[which]))
        n, p = (idx + 1, 1) if which == 0 else ((idx, 0) if which == 1 else (1, 1))
        raise QuadratureError(
            f"weight quadrature did not reach {WEIGHT_TOL} at (n, p) = ({n}, {p})"
        )

    body, edge_left, edge_right = cur
    k_values = kernel_transform(kernel, tau * np.arange(n_max + 1, dtype=float))
    k0 = float(k_values[0])

    if isinstance(kernel, KernelSpec):
        if not 0.0 < k0 < 1.0:
            raise ArithmeticError(f"K(0) = {k0} is outside (0, 1)")
        if edge_right <= 0.0:
            raise ArithmeticError(
                f"diagonal weight {edge_right} is not positive; "
                f"tau = {tau} is too large for this kernel"
            )
        running = np.cumsum(edge_left[1:])
        if running.size and running.max() > RUNNING_SUM_BOUND:
            raise ArithmeticError(
                f"running sum of the p = 0 column reaches {running.max()} > 1"
            )

    return WeightTable(
        tau=float(tau),
        n_max=int(n_max),
        body=body,
        edge_left=edge_left,
        edge_right=edge_right,
        k_values=k_values,
        k0=k0,
        mu0=1.0 - k0,
        kernel=kernel,
    )


def hat_weights(rates: np.ndarray, tau: float) -> np.ndarray:
    """The full-hat integral c_b of K(t) = exp(-w t) for each complex rate w.

    For that K the interior weights of the table are body[j] =
    c_b exp(-w j tau), with c_b = tau (sinh(w tau/2) / (w tau/2))**2; w
    must not be 0.
    """
    y = np.asarray(rates) * tau
    return tau * (np.sinh(0.5 * y) / (0.5 * y)) ** 2


def convolve(table: WeightTable, n: int, samples) -> np.ndarray:
    """Discrete memory convolution Q_n = sum_p w(n, p) * samples[p].

    `samples` holds phi(t_p) for p = 0..n; entries may be scalars or equally
    sized vectors.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.shape[0] != n + 1:
        raise ValueError(
            f"expected {n + 1} samples for step {n}, got {arr.shape[0]}"
        )
    coeff = table.coefficients(n)
    out = coeff @ arr
    return float(out) if np.ndim(out) == 0 else out

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
Every weight is a sum of integrals of K against half hats, one per grid
interval, formed in Gauss passes whose orders follow from tau |z| by the
Bernstein-ellipse bound (`_gauss_passes`): on both benchmark workloads 10
points on the first 19-21 intervals and 4 on the rest, within 1e-13 tau
e^(-sigma (j-1) tau) of order 56.
It is plain data: how a run lays the weights out for its memory sum is the
stepper's business, and no run writes into a table, so one table may serve
many runs.

For one exponential K(t) = exp(-w t) the interior weights are an exact
geometric sequence, body[j] = c_b exp(-w j tau); `hat_weights` gives c_b,
which the stepper's mode memory uses for the lags its exact window does not
hold.  The memory weights the p = 0 column from the table itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelLike, KernelSpec, QuadratureError, kernel_transform

__all__ = ["WeightTable", "build_weight_table", "hat_weights", "QuadratureError"]

#: absolute accuracy target for every stored weight
WEIGHT_TOL = 1.0e-12

# each half-hat moment is held to this much of tau e^(-sigma t) at its
# interval's start t; a weight sums two moments, so it is within 1e-13 of that
_MOMENT_TOL = 0.5e-13
# the largest tau |z| whose Gauss orders are checked against order 56
_MAX_TAU_Z = 6.0
# Gauss points per interval for a bare-callable kernel hook
_HOOK_ORDER = 14
# the most intervals an alpha = 1/2 table integrates at its near order
_MAX_NEAR = 64

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
    step n throughout.  Beside the arrays the table holds only k0 and mu0,
    read off k_values[0]; no run writes into any of them.
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
        """All weights of Q_n as a length n+1 vector, index p, so that
        Q_n(phi) is coefficients(n) @ samples for samples[p] = phi(t_p)
        (scalars, or equally sized vectors as rows)."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n must be in [1, {self.n_max}], got {n}")
        out = np.empty(n + 1)
        out[0] = self.edge_left[n]
        out[1:n] = self.body[n - 1:0:-1]
        out[n] = self.edge_right
        return out


def _interval_moments(kernel: KernelLike, tau: float, n_intervals: int, order: int,
                      start: int = 0):
    """Per-interval integrals of K(u)*{1, (u - t_{i-1})/tau} on [t_{i-1}, t_i].

    Covers intervals i = start+1..n_intervals and returns (flat, rise), each
    indexed by i - start - 1.  For the weakly singular kernel the first
    interval is integrated in w = sqrt(u), where K(w**2) is analytic, so
    plain Gauss points converge spectrally there too.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    singular_first = start == 0 and isinstance(kernel, KernelSpec) and kernel.alpha == 0.5

    starts = tau * np.arange(start, n_intervals, dtype=float)  # t_{i-1}
    nodes = starts[:, None] + tau * 0.5 * (x[None, :] + 1.0)
    aweights = np.full((n_intervals - start, order), tau * 0.5) * w[None, :]
    if singular_first:
        wroot = np.sqrt(tau) * 0.5 * (x + 1.0)
        nodes[0] = wroot * wroot
        aweights[0] = np.sqrt(tau) * 0.5 * w * 2.0 * wroot

    kvals = kernel_transform(kernel, nodes)
    flat = np.sum(aweights * kvals, axis=1)
    rise = np.sum(aweights * kvals * (nodes - starts[:, None]) / tau, axis=1)
    return flat, rise


def _gauss_passes(kernel: KernelLike, tau: float, n_intervals: int) -> list:
    """The moment passes over intervals 1..n_intervals, as (start, stop, order).

    Pass (start, stop, order) integrates intervals start+1..stop with order
    Gauss points each.  A bare-callable hook's smoothness is unknown, so it
    gets one pass at _HOOK_ORDER.  For a KernelSpec let z = sigma - i gamma,
    a = tau |z|, and map each interval [t_{i-1}, t_i] to x in [-1, 1].
    Inside the Bernstein ellipse E_rho, |x + 1|/2 and |1 - x|/2 are at most
    s = (rho + 1/rho + 2)/4, and |K(u)| <= |z|^(-alpha) |e^(-z u)| <=
    e^(-sigma t_{i-1}) e^(a s) (for alpha = 1/2 because |erfcx| <= 1 on the
    right half plane).  m Gauss points miss the integral of a function
    bounded by M in E_rho by at most (64/15) M rho^(2-2m) / (rho^2 - 1)
    (Trefethen, Approximation Theory and Approximation Practice, Thm 19.3),
    so each moment is off by at most

        tau e^(-sigma t_{i-1}) (32/15) s e^(a s) rho^(2-2m) / (rho^2 - 1),

    for any rho when alpha = 1: one pass.  For alpha = 1/2 the branch point
    u = 0 sits at x = -(2j + 1) from interval j + 1 (j >= 1), so there rho <
    (2j + 1) + sqrt((2j + 1)^2 - 1), and the far intervals need fewer points
    than the second.  The first interval is integrated in w = sqrt(u),
    where the integrand is entire and at most 4 s^3 (2 + e^(a s^2)), so its
    moments are off by at most tau (128/15) s^3 (2 + e^(a s^2)) rho^(2-2m) /
    (rho^2 - 1).  So alpha = 1/2 takes two passes: intervals 1..k at the
    order the first two intervals need, and the rest at the order interval
    k + 1 needs, with k <= _MAX_NEAR the split that evaluates K at the
    fewest nodes.  Each order is the fewest m whose bound reaches
    _MOMENT_TOL at some rho on a grid.  Orders past a = _MAX_TAU_Z are not
    checked against order 56, so such a step raises QuadratureError.
    """
    if not isinstance(kernel, KernelSpec):
        return [(0, n_intervals, _HOOK_ORDER)]
    a = tau * abs(complex(kernel.sigma, -kernel.gamma))
    if a > _MAX_TAU_Z:
        raise QuadratureError(
            f"tau |z| = {a!r} exceeds {_MAX_TAU_Z}, the largest step the "
            f"weight quadrature is verified for"
        )
    rho = np.geomspace(1.01, 1.0e3, 600)
    s = 0.25 * (rho + 1.0 / rho + 2.0)[:, None]
    orders = np.arange(2, 41)

    def fewest(log_scale):
        """Per rho on the grid, the fewest points whose bound reaches
        _MOMENT_TOL at that rho or a smaller one."""
        log_bound = (log_scale + (2.0 - 2.0 * orders) * np.log(rho)[:, None]
                     - np.log(rho * rho - 1.0)[:, None])
        met = np.logical_or.accumulate(log_bound <= math.log(_MOMENT_TOL), axis=0)
        return orders[np.argmax(met, axis=1)]

    later = fewest(math.log(32.0 / 15.0) + np.log(s) + a * s)
    if kernel.alpha == 1.0:
        return [(0, n_intervals, int(later[-1]))]
    first = fewest(math.log(128.0 / 15.0) + 3.0 * np.log(s)
                   + np.logaddexp(math.log(2.0), a * s * s))
    j = np.arange(1, min(_MAX_NEAR, n_intervals - 1) + 1)
    far = later[np.searchsorted(rho, 2 * j + 1 + np.sqrt((2 * j + 1) ** 2 - 1.0)) - 1]
    near = max(int(first[-1]), int(far[0]))
    k = int(j[np.argmin(j * near + (n_intervals - j) * far)])
    return [(0, k, near), (k, n_intervals, int(far[k - 1]))]


def build_weight_table(kernel: KernelLike, tau: float, n_max: int) -> WeightTable:
    """Build the weight table for step size tau up to step index n_max.

    The `_interval_moments` passes at the Gauss orders `_gauss_passes`
    derives from tau |z| (one pass, or two for alpha = 1/2) integrate K
    against every half hat; each lag's weight sums two of those moments,
    so body and edge_left stay within 1e-13 tau e^(-sigma (j-1) tau) of the
    exact integrals and edge_right within 1e-13 tau, which is below
    WEIGHT_TOL for tau |z| <= _MAX_TAU_Z.  A larger tau |z| raises
    QuadratureError.  Kernel-class invariants
    (positive weight at the diagonal, the running bound on the p = 0
    column) are checked for KernelSpec kernels; bare-callable test hooks
    skip them.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")

    flat, rise = np.zeros(n_max + 2), np.zeros(n_max + 2)
    for start, stop, order in _gauss_passes(kernel, tau, n_max + 1):
        flat[start + 1:stop + 1], rise[start + 1:stop + 1] = _interval_moments(
            kernel, tau, stop, order, start)
    fall = flat - rise  # integral of K against the falling half-hat
    body = rise[:-1] + fall[1:]
    body[0] = 0.0
    edge_left, edge_right = rise[:-1], float(fall[1])
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

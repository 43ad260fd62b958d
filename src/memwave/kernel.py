"""Variable-sign memory kernels and their positive-type tail transform.

The kernel family is

    beta(t) = exp(-sigma*t) * t**(alpha - 1) * cos(gamma*t) / Gamma(alpha)

with exponent alpha = 1 (smooth) or alpha = 1/2 (weakly singular at t = 0).
beta itself changes sign, so the quantity the discrete scheme actually
consumes is the tail integral

    K(t) = int_t^inf beta(s) ds,

which is of positive type, satisfies 0 < K(0) < 1, and decays like
exp(-sigma*t).  For alpha = 1 the tail integral has a closed form.  For
alpha = 1/2 the primary evaluation is composite Gauss quadrature with the
square-root singularity removed by the substitution s = r**2, and an
identity in terms of the complex-argument complementary error function
serves as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "KernelSpec",
    "KernelLike",
    "QuadratureError",
    "TRANSFORM_TOL",
    "beta",
    "kernel_transform",
    "transform_by_quadrature",
    "transform_by_erfc",
    "transform_grid",
    "k_zero",
    "mu_zero",
    "constant_transform",
]

#: absolute accuracy target for tail-transform values; the quadrature
#: weights built on top of them inherit this tolerance
TRANSFORM_TOL = 1.0e-12

# dropping the integral beyond t_cut contributes less than this
_TAIL_TOL = 1.0e-14

# break point below which weakly singular integrands are mapped to r = sqrt(s)
_KNEE = 1.0

_BOUND_SLACK = 1.0 + 1.0e-9

# increments integrated per batch on a refined grid; bounds the batch's
# (increments x Gauss points) temporaries to a few MB
_INCREMENT_CHUNK = 1 << 14


class QuadratureError(RuntimeError):
    """An adaptive quadrature failed to reach its accuracy target."""


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the memory kernel.

    alpha : singularity exponent, 1.0 (smooth) or 0.5 (weakly singular)
    sigma : exponential decay rate, must exceed 1
    gamma : oscillation frequency, 0 <= gamma <= sqrt(3)*sigma

    The bound gamma <= sqrt(3)*sigma keeps K(0) inside (0, 1) for both
    exponents.  The smooth case is classically stated with the tighter bound
    gamma <= sigma, but ratios up to sqrt(3) are accepted here because the
    energy-decay experiments run the smooth kernel at gamma/sigma = sqrt(3);
    positive-type behaviour is only guaranteed under the tighter bound.
    """

    alpha: float
    sigma: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha not in (1.0, 0.5):
            raise ValueError(f"alpha must be 1 or 0.5, got {self.alpha}")
        if not self.sigma > 1.0:
            raise ValueError(f"sigma must exceed 1, got {self.sigma}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        bound = math.sqrt(3.0) * self.sigma
        if self.gamma > bound * _BOUND_SLACK:
            raise ValueError(
                f"gamma = {self.gamma} exceeds sqrt(3)*sigma = {bound}"
            )


#: anything accepted where a kernel is expected: a validated KernelSpec, or a
#: bare callable t -> K(t) (vectorized over ndarrays) used as a test hook
KernelLike = Union[KernelSpec, Callable[[np.ndarray], np.ndarray]]


def beta(spec: KernelSpec, t):
    """Pointwise kernel value; `t` may be a scalar or ndarray.

    The weakly singular exponent requires t > 0; the smooth exponent admits
    t = 0 with beta(0) = 1.
    """
    arr = np.asarray(t, dtype=float)
    if spec.alpha == 1.0:
        if np.any(arr < 0.0):
            raise ValueError("beta requires t >= 0 for alpha = 1")
        out = np.exp(-spec.sigma * arr) * np.cos(spec.gamma * arr)
    else:
        if np.any(arr <= 0.0):
            raise ValueError("beta requires t > 0 for alpha = 1/2")
        out = (
            np.exp(-spec.sigma * arr)
            * np.cos(spec.gamma * arr)
            / np.sqrt(np.pi * arr)
        )
    return out if arr.ndim else float(out)


# ---------------------------------------------------------------------------
# composite Gauss-Legendre machinery
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _composite_gl(f, a: float, b: float, panels: int, order: int = 20) -> float:
    x, w = _gauss_rule(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return float(np.sum(half * w[None, :] * f(mid + half * x[None, :])))


def _adaptive_gl(f, a: float, b: float, tol: float, panels0: int = 8) -> float:
    """Double the panel count until two successive composite rules agree."""
    if b <= a:
        return 0.0
    panels = max(2, panels0)
    prev = _composite_gl(f, a, b, panels)
    for _ in range(12):
        panels *= 2
        cur = _composite_gl(f, a, b, panels)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"composite quadrature on [{a}, {b}] did not converge to {tol}"
    )


def _tail_cut(sigma: float, t: float) -> float:
    # exp(-sigma*s) tail beyond the cut is below _TAIL_TOL
    return t + (-math.log(_TAIL_TOL)) / sigma + 1.0


def _closed_form_smooth(sigma: float, gamma: float, t):
    return (
        np.exp(-sigma * t)
        * (sigma * np.cos(gamma * t) - gamma * np.sin(gamma * t))
        / (sigma**2 + gamma**2)
    )


def transform_by_quadrature(spec: KernelSpec, t: float) -> float:
    """Tail integral K(t) by adaptive composite Gauss quadrature.

    This is the primary evaluation path for alpha = 1/2 and the independent
    cross-check of the closed form for alpha = 1.  The integration range is
    truncated where the exponential tail drops below the accuracy target;
    for alpha = 1/2 the portion below t = 1 is integrated in r = sqrt(s) so
    the integrand is analytic all the way to t = 0.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("transform requires t >= 0")
    sigma, gamma = spec.sigma, spec.gamma
    t_cut = _tail_cut(sigma, t)
    scale = sigma + gamma + 1.0
    tol = TRANSFORM_TOL / 4.0
    if spec.alpha == 1.0:
        def f(s):
            return np.exp(-sigma * s) * np.cos(gamma * s)

        panels0 = max(4, int((t_cut - t) * scale / 4.0) + 1)
        return _adaptive_gl(f, t, t_cut, tol, panels0)

    knee = min(_KNEE, t_cut)
    total = 0.0
    if t < knee:
        def g(r):
            rr = r * r
            return 2.0 * np.exp(-sigma * rr) * np.cos(gamma * rr) / math.sqrt(math.pi)

        a, b = math.sqrt(t), math.sqrt(knee)
        total += _adaptive_gl(g, a, b, tol, max(4, int((b - a) * scale) + 1))
    lo = max(t, knee)
    if lo < t_cut:
        def f(s):
            return np.exp(-sigma * s) * np.cos(gamma * s) / np.sqrt(np.pi * s)

        panels0 = max(4, int((t_cut - lo) * scale / 4.0) + 1)
        total += _adaptive_gl(f, lo, t_cut, tol, panels0)
    return total


def transform_by_erfc(spec: KernelSpec, t):
    """Tail integral for alpha = 1/2 via the complementary error function.

    Writing cos as the real part of a complex exponential gives

        K(t) = Re[ z**(-1/2) * erfc(sqrt(z*t)) ],   z = sigma - i*gamma.

    Entirely independent of the quadrature path; used as its oracle.
    """
    if spec.alpha != 0.5:
        raise ValueError("the erfc identity applies to alpha = 1/2 only")
    from scipy.special import erfc

    z = complex(spec.sigma, -spec.gamma)
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("transform requires t >= 0")
    val = np.sqrt(1.0 / z) * erfc(np.sqrt(z * arr.astype(complex)))
    out = val.real
    return out if arr.ndim else float(out)


def kernel_transform(spec: KernelSpec, t):
    """Tail integral K(t) = int_t^inf beta(s) ds for t >= 0.

    Closed form for alpha = 1; adaptive quadrature for alpha = 1/2.  Accepts
    scalars or ndarrays (arrays are evaluated through `transform_grid`).
    """
    if spec.alpha == 1.0:
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("transform requires t >= 0")
        out = _closed_form_smooth(spec.sigma, spec.gamma, arr)
        return out if arr.ndim else float(out)
    if np.ndim(t) == 0:
        return transform_by_quadrature(spec, float(t))
    arr = np.asarray(t, dtype=float)
    flat = arr.ravel()
    order = np.argsort(flat, kind="stable")
    vals = transform_grid(spec, flat[order])
    out = np.empty_like(vals)
    out[order] = vals
    return out.reshape(arr.shape)


def k_zero(spec: KernelSpec) -> float:
    """K(0), guaranteed to lie strictly inside (0, 1) for a valid spec."""
    k0 = float(kernel_transform(spec, 0.0))
    if not 0.0 < k0 < 1.0:
        raise ArithmeticError(
            f"K(0) = {k0} is outside (0, 1); kernel spec or quadrature bug"
        )
    return k0


def mu_zero(spec: KernelSpec) -> float:
    """1 - K(0): the coefficient of the instantaneous elastic term."""
    return 1.0 - k_zero(spec)


def constant_transform(value: float) -> Callable[[np.ndarray], np.ndarray]:
    """A transform that is identically `value`.

    Test hook: value 0.0 switches the memory term off entirely so the scheme
    reduces to a plain damped wave equation; value 1.0 makes every quadrature
    weight a hat-function area.
    """

    def k(t):
        return np.full_like(np.asarray(t, dtype=float), value)

    return k


# ---------------------------------------------------------------------------
# batch evaluation on ascending grids
# ---------------------------------------------------------------------------


def _beta_increments(spec: KernelSpec, lo: np.ndarray, hi: np.ndarray, order: int = 24) -> np.ndarray:
    """Elementwise int_lo^hi beta(s) ds for short increments.

    Pieces below the knee are integrated in r = sqrt(s) where the integrand
    is analytic; pieces above stay in s.  Increments straddling the knee get
    both contributions.
    """
    x, w = _gauss_rule(order)
    out = np.zeros(lo.shape)
    sigma, gamma = spec.sigma, spec.gamma

    a_r = np.sqrt(lo)
    b_r = np.sqrt(np.minimum(hi, _KNEE))
    mask = b_r > a_r
    if np.any(mask):
        mid = 0.5 * (a_r[mask] + b_r[mask])[:, None]
        half = 0.5 * (b_r[mask] - a_r[mask])[:, None]
        r = mid + half * x[None, :]
        rr = r * r
        vals = 2.0 * np.exp(-sigma * rr) * np.cos(gamma * rr) / math.sqrt(math.pi)
        out[mask] = np.sum(half * w[None, :] * vals, axis=1)

    a_s = np.maximum(lo, _KNEE)
    mask = hi > a_s
    if np.any(mask):
        mid = 0.5 * (a_s[mask] + hi[mask])[:, None]
        half = 0.5 * (hi[mask] - a_s[mask])[:, None]
        s = mid + half * x[None, :]
        vals = np.exp(-sigma * s) * np.cos(gamma * s) / np.sqrt(np.pi * s)
        out[mask] += np.sum(half * w[None, :] * vals, axis=1)
    return out


def _refine_ascending(times: np.ndarray, max_gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Insert points so adjacent gaps stay below max_gap.

    Returns the refined grid and the positions of the original entries.
    """
    gaps = np.diff(times)
    counts = np.maximum(1, np.ceil(gaps / max_gap).astype(int))
    if np.all(counts == 1):
        return times, np.arange(times.size)
    pieces = []
    index = np.empty(times.size, dtype=int)
    pos = 0
    for k in range(times.size - 1):
        index[k] = pos
        seg = np.linspace(times[k], times[k + 1], counts[k] + 1)[:-1]
        pieces.append(seg)
        pos += seg.size
    index[-1] = pos
    pieces.append(times[-1:])
    return np.concatenate(pieces), index


def transform_grid(kernel: KernelLike, times) -> np.ndarray:
    """Evaluate the tail transform on an ascending grid of times.

    For the weakly singular exponent this walks the grid downward from its
    largest entry, accumulating short between-node integrals of beta, so the
    cost is a single adaptive evaluation plus O(len(times)) vectorized work.
    The accumulation runs in extended precision to keep the result within
    the module accuracy target on grids with tens of thousands of nodes.
    """
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if np.any(np.diff(arr) < 0.0):
        raise ValueError("times must be ascending")
    if callable(kernel):
        return np.asarray(kernel(arr), dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("transform requires t >= 0")
    if kernel.alpha == 1.0:
        return np.asarray(_closed_form_smooth(kernel.sigma, kernel.gamma, arr), dtype=float)

    grid, index = _refine_ascending(arr, max_gap=0.25)
    lo, hi = grid[:-1], grid[1:]
    incs = np.empty(lo.size)
    for k in range(0, lo.size, _INCREMENT_CHUNK):
        chunk = slice(k, k + _INCREMENT_CHUNK)
        incs[chunk] = _beta_increments(kernel, lo[chunk], hi[chunk])
    top = transform_by_quadrature(kernel, float(grid[-1]))
    acc = np.empty(grid.size, dtype=np.longdouble)
    acc[-1] = top
    acc[:-1] = top + np.cumsum(incs[::-1].astype(np.longdouble))[::-1]
    return acc[index].astype(float)

"""Variable-sign memory kernels and their positive-type tail transform.

The kernel family is

    beta(t) = exp(-sigma*t) * t**(alpha - 1) * cos(gamma*t) / Gamma(alpha)

with exponent alpha = 1 (smooth) or alpha = 1/2 (weakly singular at t = 0).
beta itself changes sign, so the quantity the discrete scheme actually
consumes is the tail integral

    K(t) = int_t^inf beta(s) ds,

which is of positive type, satisfies 0 < K(0) < 1, and decays like
exp(-sigma*t).  Both exponents have closed forms, which `kernel_transform`
evaluates: an exponential for alpha = 1, and for alpha = 1/2 an identity in
terms of the complex-argument complementary error function.  Both are also
sums of complex exponentials, which `exponential_modes` returns, as few as
the memory tail's numerical rank allows.  Adaptive
composite Gauss quadrature, with the square-root singularity removed by the
substitution s = r**2, is kept as the independent oracle for both.
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
    "k_zero",
    "mu_zero",
    "constant_transform",
    "exponential_modes",
]

#: absolute accuracy target for tail-transform values; the quadrature
#: weights built on top of them inherit this tolerance
TRANSFORM_TOL = 1.0e-12

# dropping the integral beyond t_cut contributes less than this
_TAIL_TOL = 1.0e-14

# break point below which weakly singular integrands are mapped to r = sqrt(s)
_KNEE = 1.0

_BOUND_SLACK = 1.0 + 1.0e-9

# the compressed exponential modes are fitted at this many geometric times
_FIT_POINTS = 600
# relative cut on the singular values of the mode compression's Hankel core
# and of its amplitude fit
_RANK_TOL = 1.0e-15
# the compressed modes fit the quadrature's within this much of the envelope
_FIT_TOL = 1.0e-13


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
        for name in ("sigma", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def transform_by_quadrature(spec: KernelSpec, t: float) -> float:
    """Tail integral K(t) by adaptive composite Gauss quadrature.

    The independent oracle for both closed forms in `kernel_transform`; it
    shares nothing with them but the kernel itself.  The integration range is
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


def kernel_transform(kernel: KernelLike, t):
    """Tail integral K(t) = int_t^inf beta(s) ds for t >= 0, in closed form.

        alpha = 1   : K(t) = exp(-sigma*t) * (sigma*cos(gamma*t) - gamma*sin(gamma*t))
                             / (sigma**2 + gamma**2)
        alpha = 1/2 : K(t) = Re[ z**(-1/2) * erfc(sqrt(z*t)) ],   z = sigma - i*gamma

    the second from writing cos as the real part of a complex exponential.
    Accepts a scalar or an ndarray of any shape and order; each entry is
    evaluated on its own, so scalar and array calls agree bit for bit.  A bare
    callable test hook is evaluated as given.
    """
    arr = np.asarray(t, dtype=float)
    if callable(kernel):
        out = np.asarray(kernel(arr), dtype=float)
        return out if arr.ndim else float(out)
    if np.any(arr < 0.0):
        raise ValueError("transform requires t >= 0")
    sigma, gamma = kernel.sigma, kernel.gamma
    if kernel.alpha == 1.0:
        out = (
            np.exp(-sigma * arr)
            * (sigma * np.cos(gamma * arr) - gamma * np.sin(gamma * arr))
            / (sigma**2 + gamma**2)
        )
    else:
        # imported here: scipy.special would add ~240 ms to CLI start-up,
        # more than all of `import memwave.cli` (2-core x86 machine)
        from scipy.special import erfc

        z = complex(sigma, -gamma)
        # the weight table evaluates K at millions of nodes, so sqrt and
        # erfc work in place.  A scalar goes through the same 1-d array
        # loops: numpy rounds a complex product of two scalars differently,
        # and an in-place product of a 1-element array differently again
        work = z * arr.ravel()
        erfc(np.sqrt(work, out=work), out=work)
        out = (np.sqrt(1.0 / z) * work).real.reshape(arr.shape)
    return out if arr.ndim else float(out)


def k_zero(spec: KernelSpec) -> float:
    """K(0), guaranteed to lie strictly inside (0, 1) for a valid spec."""
    k0 = float(kernel_transform(spec, 0.0))
    if not 0.0 < k0 < 1.0:
        raise ArithmeticError(
            f"K(0) = {k0} is outside (0, 1); kernel spec or transform bug"
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


def exponential_modes(spec: KernelSpec, delta: float, t_final: float):
    """Amplitudes a_k and rates w_k with K(t) = Re sum_k a_k exp(-w_k t) on [delta, t_final].

    With z = sigma - i*gamma, alpha = 1 is the one exact mode a = 1/z, w = z.
    For alpha = 1/2 a quadrature of the Laplace form

        K(t) = Re[(1/pi) int_0^inf x**(-1/2) exp(-(z + x) t) / (z + x) dx]

    gives modes w = z + x_k, a = h_k / (pi (z + x_k)), with h_k the weight
    of the node x_k against x**(-1/2) dx.  Below x0 = min(1/t_final, |z|)
    it takes 12 Gauss points in u = sqrt(x), where the integrand is smooth
    and its pole x = -z stays away; above, 14-point Gauss-Legendre panels
    at most 2.5 wide in ln x, up to 30/delta, beyond which exp(-x t) <
    exp(-30) for t >= delta.  That is 40 to 68 modes, within 2.5e-13 of
    the envelope exp(-sigma t) |z|**(-1/2) min(1, (pi |z| t)**(-1/2)).
    Their sum has a far lower numerical rank on [delta, t_final], and
    `_compress` reduces them to it (sum-of-exponentials reduction, as in
    Beylkin & Monzon, Appl. Comput. Harmon. Anal. 28, 2010): 54 -> 18
    modes for the 2d benchmark (tau = 1/1024, T = 1) and 68 -> 27 for the
    1d one (tau = 100/16384, T = 100).  On 500 random admissible kernels,
    1 < sigma < 10, gamma/sigma <= sqrt(3), with delta = 31 tau,
    tau |z| <= 0.2 and 40 to 5000 steps of tau, the compressed modes
    numbered 7 to 23, stayed within 2.1e-13 of the envelope, passed the
    memory's check of the weights, and all had Re w > 1.04.
    """
    z = complex(spec.sigma, -spec.gamma)
    if spec.alpha == 1.0:
        return np.array([1.0 / z]), np.array([z])
    x0 = min(1.0 / t_final, abs(z))
    lo, hi = math.log(x0), math.log(30.0 / delta)
    panels = max(1, math.ceil((hi - lo) / 2.5))
    (u, u_w), (g, g_w) = _gauss_rule(12), _gauss_rule(14)
    half = 0.5 * (hi - lo) / panels
    y = (np.linspace(lo + half, hi - half, panels)[:, None] + half * g).ravel()  # y = ln x
    x = np.concatenate([0.25 * x0 * (u + 1.0) ** 2, np.exp(y)])
    h = np.concatenate([math.sqrt(x0) * u_w, np.tile(half * g_w, panels) * np.exp(0.5 * y)])
    return _compress(spec, h / (math.pi * (z + x)), x, delta, t_final)


def _compress(spec: KernelSpec, amplitudes: np.ndarray, x: np.ndarray,
              delta: float, t_final: float):
    """Fewer modes for f(t) = sum_k amplitudes_k exp(-x_k t), and so for
    K(t) = Re exp(-z t) f(t), on [delta, t_final], by ESPRIT on a Hankel
    sampled at _FIT_POINTS geometric times t_i.

    The Hankel f(t_i + t_j - delta) factors as V diag(amplitudes) W^T,
    V = exp(-x t_i) and W = exp(-x (t_j - delta)), so its range is read
    from the K x K core R diag(amplitudes) R_W^T of the QR factors, and no
    matrix grows with the run.  V is weighted by exp(-sigma t)/envelope and
    stacked over t_i and t_i + delta/4.  For rank r, the core's first r
    left singular vectors span the range, and the matrix that shifts that
    basis from the first block of rows to the second has the eigenvalues
    rho = exp(-y delta/4) of r new rates z + y; their amplitudes are fitted
    jointly by least squares on the same times, weighted by
    exp(-sigma t)/envelope.  r starts at the count of singular values above
    _RANK_TOL of the largest and grows until the fit is within _FIT_TOL of
    the envelope at every t_i; if no rank gets there, the closest fit is
    returned, for the memory's own check of the weights to judge.  The
    cost is O(K**2) per sample and O(K**3) per rank tried.
    """
    z = complex(spec.sigma, -spec.gamma)
    t = np.geomspace(delta, t_final, _FIT_POINTS)
    # exp(-sigma t) / envelope
    weight = math.sqrt(abs(z)) * np.maximum(1.0, np.sqrt(math.pi * abs(z) * t))
    shift = 0.25 * delta
    q, r = np.linalg.qr(np.exp(-np.outer(np.concatenate([t, t + shift]), x))
                        * np.tile(weight, 2)[:, None])
    core = (r * amplitudes) @ np.linalg.qr(np.exp(-np.outer(t - delta, x)), mode="r").T
    u, s, _ = np.linalg.svd(core)
    target = (amplitudes * np.exp(np.outer(t, 1j * spec.gamma - x))).sum(axis=1).real * weight
    best = (math.inf,)
    for rank in range(np.count_nonzero(s > _RANK_TOL * s[0]), s.size + 1):
        basis = q @ u[:, :rank]
        turn = np.linalg.lstsq(basis[:_FIT_POINTS], basis[_FIT_POINTS:], rcond=None)[0]
        rates = z - np.log(np.linalg.eigvals(turn).astype(complex)) / shift
        # weighted exp(-(w - sigma) t), for the real and imaginary part of each amplitude
        modes = np.exp(-np.outer(t, rates - spec.sigma)) * weight[:, None]
        modes = np.hstack([modes.real, -modes.imag])
        fit = np.linalg.lstsq(modes, target, rcond=_RANK_TOL)[0]
        best = min(best, (np.abs(modes @ fit - target).max(), fit[:rank] + 1j * fit[rank:], rates),
                   key=lambda trial: trial[0])
        if best[0] <= _FIT_TOL:
            break
    return best[1:]

"""Variable-sign memory kernels and their positive-type tail transform.

The kernel family is

    beta(t) = exp(-sigma*t) * t**(alpha - 1) * cos(gamma*t) / Gamma(alpha)

with exponent alpha = 1 (smooth) or alpha = 1/2 (weakly singular at t = 0).
beta itself changes sign, so the quantity the discrete scheme actually
consumes is the tail integral

    K(t) = int_t^inf beta(s) ds,

which is of positive type, satisfies 0 < K(0) < 1, and decays like
exp(-sigma*t).  Both exponents have closed forms, which `kernel_transform`
evaluates in numpy alone: an exponential for alpha = 1, and for alpha = 1/2
an identity in terms of the complex-argument complementary error function,
summed by Weideman's rational series for the Faddeeva function.  Both are also
sums of complex exponentials, which `exponential_modes` returns, compressed
to the numerical rank of the memory tail.  `transform_by_quadrature`
integrates beta by QUADPACK (`scipy.integrate.quad`), with the square-root
singularity removed by the substitution s = r**2; it is the independent
oracle for both closed forms, and no run calls it, so a run loads no scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Union

import numpy as np

from ._blas import one_thread

__all__ = [
    "KernelSpec",
    "KernelLike",
    "QuadratureError",
    "TRANSFORM_TOL",
    "beta",
    "kernel_transform",
    "transform_by_quadrature",
    "k_zero",
    "constant_transform",
    "exponential_modes",
]

#: absolute accuracy target of the quadrature oracle's tail-transform values
#: (the weight table holds its own targets, quadweights.WEIGHT_TOL and
#: _MOMENT_TOL)
TRANSFORM_TOL = 1.0e-12

# the oracle integrates in r = sqrt(s) below this break point
_KNEE = 1.0

_BOUND_SLACK = 1.0 + 1.0e-9

# the compressed exponential modes are fitted at this many geometric times
_FIT_POINTS = 600
# relative cut on the singular values of the mode compression's Hankel core
# and of its amplitude fit
_RANK_TOL = 1.0e-15
# terms of the Faddeeva series behind the alpha = 1/2 transform, and the
# entries it evaluates at a time
_SERIES_TERMS = 40
_BLOCK = 8192


class QuadratureError(RuntimeError):
    """A quadrature of the memory cannot be trusted: the weight table's step
    has tau |z| past the verified range, or an exponential mode of the
    memory does not decay or misses the table's weights."""


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


def transform_by_quadrature(spec: KernelSpec, t: float) -> float:
    """Tail integral K(t) by QUADPACK (`scipy.integrate.quad`).

    The independent oracle for both closed forms in `kernel_transform`; it
    shares nothing with them but `beta`.  Below the knee max(t, 1) the
    integral is taken in r = sqrt(s), where 2 r beta(r**2) is analytic for
    alpha = 1/2 down to t = 0; beyond it, in s up to infinity.  Each part
    is held to TRANSFORM_TOL / 4 absolute.
    """
    from scipy.integrate import quad

    t = float(t)
    if t < 0.0:
        raise ValueError("transform requires t >= 0")
    knee = max(t, _KNEE)
    tol = dict(epsabs=TRANSFORM_TOL / 4.0, epsrel=0.0)
    near = quad(lambda r: 2.0 * r * beta(spec, r * r), math.sqrt(t), math.sqrt(knee), **tol)[0]
    return near + quad(partial(beta, spec), knee, math.inf, **tol)[0]


def kernel_transform(kernel: KernelLike, t):
    """Tail integral K(t) = int_t^inf beta(s) ds for t >= 0, in closed form.

        alpha = 1   : K(t) = exp(-sigma*t) * (sigma*cos(gamma*t) - gamma*sin(gamma*t))
                             / (sigma**2 + gamma**2)
        alpha = 1/2 : K(t) = Re[ z**(-1/2) * erfc(sqrt(z*t)) ],   z = sigma - i*gamma

    the second from writing cos as the real part of a complex exponential,
    and evaluated as Re[z**(-1/2) exp(-z t) w(i sqrt(z t))] with the Faddeeva
    function w(x) = exp(-x**2) erfc(-i x) summed by Weideman's series in
    numpy alone (`_erfc_transform`).  Accepts a scalar or an ndarray of any
    shape and order; each entry is evaluated on its own, so scalar and array
    calls agree bit for bit.  A bare callable test hook is evaluated as given.
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
        # by blocks, which keep the transform's work arrays in cache: the
        # weight table evaluates K at about 4 nodes per step, 66k for the
        # long 1d benchmark run (N = 16384)
        flat = arr.ravel()
        out = np.empty_like(flat)
        for lo in range(0, flat.size, _BLOCK):
            out[lo:lo + _BLOCK] = _erfc_transform(sigma, gamma, flat[lo:lo + _BLOCK])
        out = out.reshape(arr.shape)
    return out if arr.ndim else float(out)


@cache
def _faddeeva_series() -> tuple[float, tuple[float, ...]]:
    """(L, c): the Faddeeva function w(i s) = exp(s**2) erfc(s) is
    sum_n c_n Z**n, Z = (L - s)/(L + s), for Re s >= 0.

    This is Weideman's N-term rational series (SIAM J. Numer. Anal. 31,
    1994), w = 2 p(Z)/(L + s)**2 + 1/(sqrt(pi) (L + s)) with L = sqrt(N/sqrt(2))
    and p's coefficients the cosine transform of exp(-x**2) (L**2 + x**2),
    x = L tan(theta/2), on 4N - 1 points; by 1/(L + s) = (1 + Z)/(2 L) both
    terms fold into one polynomial of degree N + 1.  Formed on first use.
    """
    n = _SERIES_TERMS
    scale = math.sqrt(n / math.sqrt(2.0))
    theta = np.arange(1 - 2 * n, 2 * n) * (math.pi / (2 * n))
    x = scale * np.tan(0.5 * theta)
    a = np.cos(np.outer(np.arange(1, n + 1), theta)) @ (np.exp(-x * x) * (scale**2 + x * x))
    inner = np.convolve(a / (8 * n * scale**2), [1.0, 1.0])
    inner[0] += 0.5 / (scale * math.sqrt(math.pi))
    return scale, tuple(np.convolve(inner, [1.0, 1.0]).tolist())


def _erfc_transform(sigma: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """Re[z**(-1/2) exp(-z t) w(i s)], s = sqrt(z t), z = sigma - i gamma, on
    a 1-d array t >= 0, with w by `_faddeeva_series`.

    Everything runs in real float64 arrays, in place, so a scalar and an
    array entry round alike.  The series sum_n c_n Z**n is Goertzel's
    recurrence b_k = c_k + 2 Re Z b_{k+1} - |Z|**2 b_{k+2} in Reinsch's
    differences d_k = b_k - b_{k+1}:

        d_k = c_k + |Z|**2 d_{k+1} - |1 - Z|**2 b_{k+1},   b_k = b_{k+1} + d_k,

    five passes per term, with sum = d_0 + (1 - conj Z) b_1.  Plain
    Goertzel takes four, but its rounding grows with the term count where
    Z nears 1 (t -> 0); Horner's scheme in real parts takes seven.  With
    A = L**2 + |z| t and B = 2 L Re sqrt(z) sqrt(t), every factor is free
    of cancellation: |Z|**2 = (A - B)/(A + B), |1 - Z|**2 = 4 |z| t/(A + B),
    1 - Re Z = (2 |z| t + B)/(A + B), Im Z = -2 L Im sqrt(z) sqrt(t)/(A + B).
    """
    scale, coeffs = _faddeeva_series()
    z = complex(sigma, -gamma)
    root_z = cmath.sqrt(z)
    inv_root_z = cmath.sqrt(1.0 / z)  # so K(0) = Re sqrt(1/z), below 1 for sigma > 1
    imag = np.sqrt(t)
    dist2 = np.multiply(abs(z), t)
    real = np.multiply(imag, 2.0 * scale * root_z.real)  # B
    inv = np.add(dist2, scale**2)                        # A
    abs2 = np.subtract(inv, real)
    inv += real
    np.divide(1.0, inv, out=inv)                         # 1/(A + B)
    abs2 *= inv                                          # |Z|**2
    real += dist2
    real += dist2
    real *= inv                                          # 1 - Re Z
    dist2 *= 4.0
    dist2 *= inv                                         # |1 - Z|**2
    imag *= -2.0 * scale * root_z.imag
    imag *= inv                                          # Im Z
    tmp, b, d = inv, np.full_like(t, coeffs[-1]), np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        d *= abs2
        np.multiply(dist2, b, out=tmp)
        d -= tmp
        d += c
        b += d
    b -= d                                               # b_1
    real *= b
    real += d                                            # Re w
    imag *= b                                            # Im w
    # K = exp(-sigma t) Re[exp(i gamma t) v], v = w / sqrt(z)
    np.multiply(real, inv_root_z.real, out=b)
    np.multiply(imag, inv_root_z.imag, out=d)
    b -= d                                               # Re v
    real *= inv_root_z.imag
    imag *= inv_root_z.real
    imag += real                                         # Im v
    np.multiply(gamma, t, out=tmp)
    b *= np.cos(tmp, out=d)
    imag *= np.sin(tmp, out=d)
    b -= imag
    np.multiply(-sigma, t, out=tmp)
    b *= np.exp(tmp, out=tmp)
    return b


def k_zero(spec: KernelSpec) -> float:
    """K(0), guaranteed to lie strictly inside (0, 1) for a valid spec."""
    k0 = float(kernel_transform(spec, 0.0))
    if not 0.0 < k0 < 1.0:
        raise ArithmeticError(
            f"K(0) = {k0} is outside (0, 1); kernel spec or transform bug"
        )
    return k0


def constant_transform(value: float) -> Callable[[np.ndarray], np.ndarray]:
    """A transform that is identically `value`.

    Test hook: value 0.0 switches the memory term off entirely so the scheme
    reduces to a plain damped wave equation; value 1.0 makes every quadrature
    weight a hat-function area.  A hook has no exponential modes, so a
    run's memory holds its weights to 0 from lag 32 on: with a nonzero
    value, building a history that reaches lag 32 raises QuadratureError.
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
    modes for the 2d benchmark (tau = 1/1024, T = 1), 68 -> 27 for the 1d
    one (tau = 100/16384, T = 100) and 68 -> 28 for that kernel at
    tau = 1000/16384, T = 1000.  On 500 random admissible kernels,
    1 < sigma < 10, gamma/sigma <= sqrt(3), with delta = 31 tau,
    tau |z| <= 0.2 and 40 to 5000 steps of tau, the compressed modes
    numbered 7 to 24, stayed within 5.7e-13 of the envelope, passed the
    memory's check of the weights, and all had Re w > 1.002.
    """
    z = complex(spec.sigma, -spec.gamma)
    if spec.alpha == 1.0:
        return np.array([1.0 / z]), np.array([z])
    x0 = min(1.0 / t_final, abs(z))
    lo, hi = math.log(x0), math.log(30.0 / delta)
    panels = max(1, math.ceil((hi - lo) / 2.5))
    u, u_w = np.polynomial.legendre.leggauss(12)
    g, g_w = np.polynomial.legendre.leggauss(14)
    half = 0.5 * (hi - lo) / panels
    y = (np.linspace(lo + half, hi - half, panels)[:, None] + half * g).ravel()  # y = ln x
    x = np.concatenate([0.25 * x0 * (u + 1.0) ** 2, np.exp(y)])
    h = np.concatenate([math.sqrt(x0) * u_w, np.tile(half * g_w, panels) * np.exp(0.5 * y)])
    return _compress(spec, h / (math.pi * (z + x)), x, delta, t_final)


@one_thread()
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
    exp(-sigma t)/envelope.  r is the count of singular values above
    _RANK_TOL of the largest, and the modes are judged where the run uses
    them: the memory's check of every weight (`stepper._check_modes`).
    The cost is O(K**2) per sample and O(K**3) once.  The QR, SVD,
    least-squares and eigenvalue calls run on one BLAS thread
    (`one_thread`), so the modes' bits do not depend on the thread count.
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
    rank = np.count_nonzero(s > _RANK_TOL * s[0])
    basis = q @ u[:, :rank]
    turn = np.linalg.lstsq(basis[:_FIT_POINTS], basis[_FIT_POINTS:], rcond=None)[0]
    rates = z - np.log(np.linalg.eigvals(turn).astype(complex)) / shift
    # weighted exp(-(w - sigma) t), for the real and imaginary part of each amplitude
    modes = np.exp(-np.outer(t, rates - spec.sigma)) * weight[:, None]
    fit = np.linalg.lstsq(np.hstack([modes.real, -modes.imag]), target, rcond=_RANK_TOL)[0]
    return fit[:rank] + 1j * fit[rank:], rates

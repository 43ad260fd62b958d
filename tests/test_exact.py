"""Runs with memory against an exact solution of the equation itself.

u = e^{-t} sin(pi x) on (0, 1), and u = e^{-t} sin(pi x) sin(pi y) on the
unit square, solve

    u'' + q(t) u' - Laplace u + int_0^t beta(t - s) Laplace u(s) ds = f

for f = [T'' + q T' + d pi^2 T - d pi^2 (beta * T)] times the sines,
T = e^{-t}, in dimension d, with the damping
q(t) = G(mu1 ||u||^2 + mu2 ||grad u||^2) = G((mu1 + mu2 d pi^2) T^2 / 2^d)
of a `DampingSpec`.  With w = sigma - 1 - i gamma, Re w > 0, the memory
term has the closed forms

    alpha = 1   : (beta * T)(t) = e^{-t} Re[(1 - e^{-wt}) / w]
    alpha = 1/2 : (beta * T)(t) = e^{-t} Re[erf(sqrt(w t)) / sqrt(w)]

with the complex erf of scipy.special.  Self-convergence cannot tell a
scheme that converges to the wrong limit; this can: a run that drops the
K(t_n) U^0 term of the memory plateaus instead of converging.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from memwave.fem import Mesh, assemble, gradient_array
from memwave.kernel import KernelSpec
from memwave.quadweights import build_weight_table
from memwave.stepper import DampingSpec, Problem, run

SIGMA, GAMMA = 3.0, 3.0 * math.sqrt(3.0)


def _memory_term(alpha, t):
    """(beta * T)(t) for T = e^{-t}, in closed form."""
    w = complex(SIGMA - 1.0, -GAMMA)
    if alpha == 1.0:
        return math.exp(-t) * ((1.0 - np.exp(-w * t)) / w).real
    return math.exp(-t) * (erf(np.sqrt(w * t)) / np.sqrt(w)).real


def _g(damping, z):
    """G(z) of the damping's kind, in closed form: the forcing does not read
    `DampingSpec.value`, so a wrong G in the scheme shows as an error."""
    if damping.kind == "affine":
        return 1.0 + z
    if damping.kind == "sqrt":
        return math.sqrt(1.0 + z)
    return damping.constant


def _sines(*coords):
    """sin(pi x), or sin(pi x) sin(pi y)."""
    out = np.sin(np.pi * coords[0])
    for x in coords[1:]:
        out = out * np.sin(np.pi * x)
    return out


def _exact_problem(alpha, damping, dim=1):
    laplace = dim * math.pi**2  # -Laplace of the sines, over the sines

    def forcing(*args):
        *coords, t = args
        T = math.exp(-t)
        q = _g(damping, (damping.mu1 + damping.mu2 * laplace) * T * T / 2**dim)
        amplitude = T - q * T + laplace * (T - _memory_term(alpha, t))
        return amplitude * _sines(*coords)

    return Problem(u0=_sines, u1=lambda *coords: -_sines(*coords), f=forcing)


def _error(alpha, damping, mesh, ops, n):
    """The mass-norm error of U^N at T = 1 on a 1d mesh with its operators
    `ops`, in the norm of their mass matrix."""
    hist = run(_exact_problem(alpha, damping), mesh, 1.0 / n, n,
               kernel=KernelSpec(alpha, SIGMA, GAMMA), damping=damping, ops=ops,
               observe=lambda history: None)
    diff = hist.state(n) - math.exp(-1.0) * np.sin(np.pi * mesh.interior_coords())
    return math.sqrt(float(diff @ (ops.mass @ diff)))


class TestExactSolutionWithMemory:
    """Second order in time for both kernel exponents, every damping kind
    and both mass matrices, on a mesh fine enough that the space error
    stays below a tenth of the finest time error."""

    M = 1024

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_second_order_in_time(self, alpha):
        # N = 8 .. 256 gives 4.67e-3 .. 4.84e-6 for alpha = 1 and
        # 3.61e-3 .. 3.98e-6 for alpha = 1/2, at rates 1.92 to 1.99.  Only
        # runs of more than 2 L0 = 64 steps put rows into the memory's
        # exponential modes, so N = 128 and 256 check the modes and the
        # turns that advance them, not the exact window alone
        mesh = Mesh(1, self.M)
        ops = assemble(mesh)  # shared by the runs: it is most of a short run's cost
        errors = [_error(alpha, DampingSpec("sqrt"), mesh, ops, n)
                  for n in (8, 16, 32, 64, 128, 256)]
        rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(rates) >= 1.85, rates
        # a run at N = 2048 bounds the space error, and the time error
        # there, 1/64 of the finest one, adds little: 1.6e-7 and 1.8e-7
        assert _error(alpha, DampingSpec("sqrt"), mesh, ops, 2048) < 0.1 * errors[-1]

    @pytest.mark.parametrize("kind, lumped, m, finest", [
        ("affine", False, 1024, 128),
        ("constant", False, 1024, 128),
        ("sqrt", True, 256, 256),
    ])
    def test_second_order_for_each_damping_and_mass(self, kind, lumped, m, finest):
        # alpha = 1/2 only: the test above covers the memory path for both
        # exponents.  The rates read 1.90 .. 1.97 (affine), 1.93 .. 1.99
        # (constant) and 1.93 .. 2.08 (sqrt, lumped mass), and the N = 2048
        # run stays below 0.07 of the finest error.  At m = 256 the
        # consistent-mass affine case's space error would reach 0.33 of it
        damping, mesh = DampingSpec(kind), Mesh(1, m)
        ops = assemble(mesh, lumped_mass=lumped)
        errors = [_error(0.5, damping, mesh, ops, n)
                  for n in (8, 16, 32, 64, 128, 256) if n <= finest]
        rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(rates) >= 1.85, rates
        assert _error(0.5, damping, mesh, ops, 2048) < 0.1 * errors[-1]


def _exact_gradient(mesh, t):
    """|grad u| at the interior nodes, where `gradient_array` samples it."""
    x = mesh.interior_coords()
    if mesh.dim == 1:
        return math.exp(-t) * math.pi * np.cos(np.pi * x)
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
    return math.exp(-t) * math.pi * np.hypot(np.outer(c, s), np.outer(s, c))


class TestExactSolutionInSpace:
    """First order in space, in the gradient norm of `self_error_space`,
    against the exact gradient rather than a finer run."""

    @pytest.mark.parametrize("dim, n", [(1, 4096), (2, 256)])
    def test_first_order_in_space(self, dim, n):
        # alpha = 1/2, consistent mass, sqrt damping, T = 1, m = 8 .. 64.
        # The errors read 1.59e-1 .. 2.01e-2 in 1d and 1.16e-1 .. 1.42e-2
        # in 2d, at rates 0.99 .. 1.03.  The time error is negligible: in
        # 2d the errors at N = 256 and N = 4096 differ by at most 3e-6,
        # against a finest error of 1.4e-2
        alpha, damping = 0.5, DampingSpec("sqrt")
        table = build_weight_table(KernelSpec(alpha, SIGMA, GAMMA), 1.0 / n, n - 1)
        errors = []
        for m in (8, 16, 32, 64):
            mesh = Mesh(dim, m)
            hist = run(_exact_problem(alpha, damping, dim), mesh, 1.0 / n, n, damping=damping,
                       ops=assemble(mesh), table=table, observe=lambda history: None)
            diff = gradient_array(mesh, hist.state(n)) - _exact_gradient(mesh, 1.0)
            errors.append(math.sqrt(mesh.h**dim * float(np.sum(diff * diff))))
        rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(rates) >= 0.9, rates

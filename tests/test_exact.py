"""Runs with memory against an exact solution of the equation itself.

u = e^{-t} sin(pi x) on (0, 1) solves

    u'' + q(t) u' - u_xx + int_0^t beta(t - s) u_xx(s) ds = f

for f = [T'' + q T' + pi^2 T - pi^2 (beta * T)] sin(pi x), T = e^{-t}, with
the damping q(t) = G(mu1 ||u||^2 + mu2 ||u_x||^2) = sqrt(1 + (1 + pi^2) T^2 / 2)
of `DampingSpec("sqrt")`.  With w = sigma - 1 - i gamma, Re w > 0, the
memory term has the closed forms

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

from memwave.fem import Mesh, assemble
from memwave.kernel import KernelSpec
from memwave.stepper import DampingSpec, Problem, run

SIGMA, GAMMA = 3.0, 3.0 * math.sqrt(3.0)


def _memory_term(alpha, t):
    """(beta * T)(t) for T = e^{-t}, in closed form."""
    w = complex(SIGMA - 1.0, -GAMMA)
    if alpha == 1.0:
        return math.exp(-t) * ((1.0 - np.exp(-w * t)) / w).real
    return math.exp(-t) * (erf(np.sqrt(w * t)) / np.sqrt(w)).real


def _exact_problem(alpha):
    def forcing(x, t):
        T = math.exp(-t)
        q = math.sqrt(1.0 + 0.5 * (1.0 + math.pi**2) * T * T)
        amplitude = T - q * T + math.pi**2 * (T - _memory_term(alpha, t))
        return amplitude * np.sin(np.pi * x)

    sine = lambda x: np.sin(np.pi * x)
    return Problem(u0=sine, u1=lambda x: -sine(x), f=forcing)


def _error(alpha, mesh, ops, n):
    """The mass-norm error of U^N at T = 1 on a 1d mesh with its
    consistent-mass operators `ops`."""
    hist = run(_exact_problem(alpha), mesh, 1.0 / n, n, kernel=KernelSpec(alpha, SIGMA, GAMMA),
               damping=DampingSpec("sqrt"), ops=ops, observe=lambda history: None)
    diff = hist.state(n) - math.exp(-1.0) * np.sin(np.pi * mesh.interior_coords())
    return math.sqrt(float(diff @ (ops.mass @ diff)))


class TestExactSolutionWithMemory:
    """Second order in time for both kernel exponents, on a mesh fine enough
    that the space error stays below a tenth of the finest time error."""

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
        errors = [_error(alpha, mesh, ops, n) for n in (8, 16, 32, 64, 128, 256)]
        rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(rates) >= 1.85, rates
        # a run at N = 2048 bounds the space error, and the time error
        # there, 1/64 of the finest one, adds little: 1.6e-7 and 1.8e-7
        assert _error(alpha, mesh, ops, 2048) < 0.1 * errors[-1]

"""Closed forms that more than one test module checks the program against.

The alpha = 1 weight table, coded here from the hat integrals of
e^{-zt} so that it shares neither Gauss points nor kernel evaluations with
the build, and the bound a table or its CSV dump must meet against it.
"""

import cmath
import math

import numpy as np


def _quotients(x):
    """(e^x - 1 - x)/x**2 and (x - 1 + e^-x)/x**2, summed by their series
    sum_k (+-x)**k/(k + 2)! where |x| < 1, so neither cancels."""
    if abs(x) < 1.0:
        return tuple(sum(y**k / math.factorial(k + 2) for k in range(20)) for y in (x, -x))
    return (cmath.exp(x) - 1.0 - x) / x**2, (x - 1.0 + cmath.exp(-x)) / x**2


def alpha_one_table(sigma, gamma, tau, n_max):
    """(body[1:], edge_left[1:], edge_right) of K(t) = Re[e^{-zt}/z], z = sigma
    - i gamma, in closed form: the hat integrals of e^{-zt}, with x = z tau,

        body[j]      = Re[(c_b/z) e^{-x j}],  c_b = tau (sinh(x/2)/(x/2))**2
        edge_left[n] = Re[(c_e/z) e^{-x n}],  c_e = (e^x - 1 - x)/(z**2 tau)
        edge_right   = Re[(1/z)(x - 1 + e^{-x})/(z**2 tau)]."""
    z = complex(sigma, -gamma)
    x = z * tau
    rise, fall = _quotients(x)
    decay = np.exp(-x * np.arange(1, n_max + 1)) / z
    c_b = tau * (cmath.sinh(0.5 * x) / (0.5 * x)) ** 2
    return (c_b * decay).real, (tau * rise * decay).real, (tau * fall / z).real


def assert_matches_alpha_one(body, edge_left, edge_right, sigma, gamma, tau):
    """body and edge_left at n = 1..n_max, and edge_right, against
    `alpha_one_table`: the columns within 1e-13 tau e^{-sigma (n-1) tau}
    wherever that envelope is a normal float (below it both sides are
    subnormal), and edge_right within 1e-13 tau."""
    n_max = len(body)
    exact_body, exact_left, exact_right = alpha_one_table(sigma, gamma, tau, n_max)
    envelope = tau * np.exp(-sigma * tau * np.arange(n_max))
    normal = envelope >= np.finfo(float).tiny
    bound = 1e-13 * envelope[normal]
    assert np.all(np.abs(np.asarray(body) - exact_body)[normal] <= bound)
    assert np.all(np.abs(np.asarray(edge_left) - exact_left)[normal] <= bound)
    assert np.all(np.abs(np.asarray(edge_right) - exact_right) <= 1e-13 * tau)

"""Quadrature weight table: hat-function integrals, structure, convolution,
the admissible kernel box and the exponential modes of the memory sum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

import memwave.quadweights as quadweights
from memwave.fem import Mesh, assemble
from memwave.kernel import KernelSpec, constant_transform, exponential_modes, kernel_transform
from memwave.quadweights import (
    WEIGHT_TOL,
    WeightTable,
    build_weight_table,
    convolve,
    hat_weights,
)
from memwave.stepper import SimulationHistory

ROOT3 = math.sqrt(3.0)


# independent kernel-transform formulas, coded here so the brute-force weight
# oracle shares nothing with the library paths
def _k_smooth(sigma, gamma, t):
    t = np.asarray(t, dtype=float)
    return np.exp(-sigma * t) * (sigma * np.cos(gamma * t) - gamma * np.sin(gamma * t)) / (
        sigma**2 + gamma**2
    )


def _k_singular(sigma, gamma, t):
    z = complex(sigma, -gamma)
    val = np.sqrt(1.0 / z) * erfc(np.sqrt(z * np.asarray(t, dtype=complex)))
    return val.real


def _brute_weight(kfun, tau, n, p):
    """Adaptive quadrature of K(t_n - s) * hat_p(s) over [0, t_n], one half hat
    at a time, so the kink at t_p and the end point t_n are interval ends."""
    t_n, t_p = n * tau, p * tau
    total = 0.0
    for lo, hi in ((max(t_p - tau, 0.0), t_p), (t_p, min(t_p + tau, t_n))):
        if hi > lo:
            integrand = lambda s: float(kfun(t_n - s)) * (1.0 - abs(s - t_p) / tau)
            total += quad(integrand, lo, hi, epsabs=1e-14, epsrel=0.0)[0]
    return total


def _check_against_brute_force(table, kfun):
    for n in range(1, table.n_max + 1):
        for p in range(0, n + 1):
            brute = _brute_weight(kfun, table.tau, n, p)
            assert table.weight(n, p) == pytest.approx(brute, abs=WEIGHT_TOL)


def _assert_modes_fit(spec, tau, n_max):
    """The modes fit K on [delta, T] within 1e-12 of the envelope
    exp(-sigma t) |z|^(-1/2) min(1, (pi |z| t)^(-1/2)), up to where
    exp(-sigma t) falls to e^-600, past which K underflows; returns the rates."""
    z = complex(spec.sigma, -spec.gamma)
    delta, t_final = 31 * tau, n_max * tau
    amplitudes, rates = exponential_modes(spec, delta, t_final)
    t = np.geomspace(delta, min(t_final, 600.0 / spec.sigma), 300)
    fit = (amplitudes * np.exp(-np.outer(t, rates))).sum(axis=1).real
    envelope = (np.exp(-spec.sigma * t) / math.sqrt(abs(z))
                * np.minimum(1.0, (math.pi * abs(z) * t) ** -0.5))
    assert np.all(np.abs(fit - kernel_transform(spec, t)) <= 1e-12 * envelope)
    return rates


class TestUnitHook:
    def test_hat_areas(self):
        tau = 0.05
        table = build_weight_table(constant_transform(1.0), tau, 10)
        assert np.allclose(table.body[1:], tau, atol=1e-12)
        assert np.allclose(table.edge_left[1:], tau / 2.0, atol=1e-12)
        assert np.allclose(table.edge_right[1:], tau / 2.0, atol=1e-12)

    def test_zero_hook(self):
        table = build_weight_table(constant_transform(0.0), 0.1, 5)
        assert np.all(table.body[1:] == 0.0)
        assert table.mu0 == 1.0


class TestConstruction:
    def test_partition_of_unity_first_step(self):
        # with hats summing to one on [0, tau]: w(1,0) + w(1,1) = int_0^tau K
        tau = 0.05
        table = build_weight_table(KernelSpec(1.0, 2.0, 0.0), tau, 4)
        expected = (1.0 - math.exp(-2.0 * tau)) / 4.0
        assert table.weight(1, 0) + table.weight(1, 1) == pytest.approx(expected, abs=1e-13)

    def test_validation(self):
        spec = KernelSpec(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            build_weight_table(spec, -0.1, 4)
        with pytest.raises(ValueError):
            build_weight_table(spec, 0.1, 0)

    def test_diagonal_weight_positive(self):
        for spec in (KernelSpec(1.0, 2.0, 2.0), KernelSpec(0.5, 3.0, 3.0 * ROOT3)):
            table = build_weight_table(spec, 1.0 / 64.0, 16)
            assert table.edge_right[1] > 0.0

    @pytest.mark.parametrize(
        "spec",
        [KernelSpec(1.0, 2.0, 2.0), KernelSpec(0.5, 3.0, 3.0 * ROOT3), KernelSpec(0.5, 2.0, 1.0)],
    )
    def test_edge_column_running_sum_bounded(self, spec):
        table = build_weight_table(spec, 1.0 / 128.0, 1024)
        running = np.cumsum(table.edge_left[1:])
        assert running.max() <= 1.0 + 1e-12

    def test_kernel_samples_match_transform(self):
        spec = KernelSpec(0.5, 2.0, 1.0)
        tau = 0.03
        table = build_weight_table(spec, tau, 12)
        for n in (0, 1, 7, 12):
            assert table.k_values[n] == pytest.approx(
                kernel_transform(spec, n * tau), abs=1e-12
            )
        assert table.mu0 == pytest.approx(1.0 - table.k0, abs=0.0)

    def test_far_lag_weights_keep_relative_accuracy(self):
        # the long 1d benchmark run's table: its weights fall by 130 orders
        # over the lags, so each is checked relative to its own size
        sigma, gamma, tau = 3.0, 3.0 * ROOT3, 100.0 / 16384
        table = build_weight_table(KernelSpec(0.5, sigma, gamma), tau, 16384)
        x, w = np.polynomial.legendre.leggauss(40)

        def half_hat(j, rising):
            # int of K(u) against the half hat on [(j-1)*tau, j*tau] (rising)
            # or [j*tau, (j+1)*tau] (falling), with peak 1 at u = j*tau
            lo = (j - 1 if rising else j) * tau
            u = lo + 0.5 * tau * (x + 1.0)
            hat = (u - lo) / tau if rising else 1.0 - (u - lo) / tau
            return 0.5 * tau * np.sum(w * _k_singular(sigma, gamma, u) * hat)

        for j in (2, 30, 800, 8000, 16000):
            body = half_hat(j, True) + half_hat(j, False)
            edge_left = half_hat(j, True)
            assert table.body[j] == pytest.approx(body, rel=1e-12, abs=0.0), j
            assert table.edge_left[j] == pytest.approx(edge_left, rel=1e-12, abs=0.0), j


class TestToeplitz:
    @given(n=st.integers(min_value=2, max_value=30), p=st.integers(min_value=1, max_value=29))
    @settings(max_examples=40, deadline=None)
    def test_interior_shift_invariance(self, n, p):
        table = _SHARED_TABLE
        if not (1 <= p <= n - 1 and n + 1 <= table.n_max):
            return
        assert table.weight(n, p) == table.weight(n + 1, p + 1)

    def test_index_bounds(self):
        table = _SHARED_TABLE
        with pytest.raises(IndexError):
            table.weight(0, 0)
        with pytest.raises(IndexError):
            table.weight(2, 3)
        with pytest.raises(IndexError):
            table.coefficients(table.n_max + 1)


_SHARED_TABLE = build_weight_table(KernelSpec(1.0, 2.0, 1.0), 0.04, 32)


class TestBruteForce:
    @pytest.mark.parametrize("sigma,gamma", [(2.0, 0.0), (2.0, 2.0), (1.1, 0.5)])
    def test_smooth_weights_match_flat_quadrature(self, sigma, gamma):
        rng = np.random.default_rng(ord("w") + int(10 * sigma))
        tau = float(rng.uniform(0.01, 0.5))
        table = build_weight_table(KernelSpec(1.0, sigma, gamma), tau, 8)
        kfun = lambda t: _k_smooth(sigma, gamma, t)
        _check_against_brute_force(table, kfun)

    @pytest.mark.parametrize("sigma,gamma", [(3.0, 3.0 * ROOT3), (2.0, 1.0)])
    def test_singular_weights_match_flat_quadrature(self, sigma, gamma):
        rng = np.random.default_rng(ord("s") + int(10 * sigma))
        tau = float(rng.uniform(0.01, 0.5))
        table = build_weight_table(KernelSpec(0.5, sigma, gamma), tau, 8)
        kfun = lambda t: _k_singular(sigma, gamma, t)
        _check_against_brute_force(table, kfun)

    def test_coarse_step_escalates_the_gauss_order(self, monkeypatch):
        # at tau = 1 Gauss orders 10 and 14 differ by more than WEIGHT_TOL
        # (order 10 is 8e-11 off), so the build goes on to order 20
        sigma, gamma, tau = 3.0, 3.0 * ROOT3, 1.0
        orders = []
        assemble = quadweights._assemble

        def recorded(kernel, tau, n_max, order):
            orders.append(order)
            return assemble(kernel, tau, n_max, order)

        monkeypatch.setattr(quadweights, "_assemble", recorded)
        table = build_weight_table(KernelSpec(0.5, sigma, gamma), tau, 8)
        assert orders == [10, 14, 20]
        kfun = lambda t: _k_singular(sigma, gamma, t)
        _check_against_brute_force(table, kfun)


class TestAdmissibleBox:
    """The kernel-class invariants over the admissible box: alpha 1 or 1/2,
    1 < sigma <= 10, 0 <= gamma/sigma <= sqrt(3), with tau small against
    1/|z|, z = sigma - i gamma, so that the diagonal weight is positive."""

    @given(alpha=st.sampled_from([1.0, 0.5]),
           sigma=st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
           ratio=st.floats(min_value=0.0, max_value=ROOT3),
           step=st.floats(min_value=1e-3, max_value=0.2),
           n_max=st.integers(min_value=40, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_table_invariants_and_mode_fit(self, alpha, sigma, ratio, step, n_max):
        spec = KernelSpec(alpha, sigma, ratio * sigma)
        z = complex(sigma, -ratio * sigma)
        tau = step / abs(z)
        table = build_weight_table(spec, tau, n_max)
        assert 0.0 < table.k0 < 1.0
        assert table.edge_right[1] > 0.0
        assert np.cumsum(table.edge_left[1:]).max() <= 1.0 + 1e-12
        # a history on the table checks the memory's mode weights against
        # body and edge_left at every lag from L0 on, and raises if one is off
        mesh = Mesh(1, 4)
        SimulationHistory(mesh, assemble(mesh), table, np.zeros(3), np.zeros(3), n_max + 1)
        if alpha == 0.5:
            _assert_modes_fit(spec, tau, n_max)

    @given(sigma=st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
           ratio=st.floats(min_value=0.0, max_value=ROOT3),
           step=st.floats(min_value=1e-3, max_value=0.2),
           n_max=st.integers(min_value=400, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_compressed_modes_of_long_runs(self, sigma, ratio, step, n_max):
        # runs of up to 5000 steps: the compressed alpha = 1/2 modes pass the
        # history's check of the weights, fit K within 1e-12 of the envelope
        # and all decay
        spec = KernelSpec(0.5, sigma, ratio * sigma)
        tau = step / abs(complex(sigma, -ratio * sigma))
        table = build_weight_table(spec, tau, n_max)
        mesh = Mesh(1, 4)
        SimulationHistory(mesh, assemble(mesh), table, np.zeros(3), np.zeros(3), n_max + 1)
        rates = _assert_modes_fit(spec, tau, n_max)
        assert np.all(rates.real > 0.0)


class TestExponentialModes:
    def test_alpha_one_is_one_exact_mode(self):
        sigma, gamma = 3.0, 3.0 * ROOT3
        amplitudes, rates = exponential_modes(KernelSpec(1.0, sigma, gamma), 0.1, 10.0)
        t = np.linspace(0.0, 10.0, 101)
        fit = (amplitudes * np.exp(-np.outer(t, rates))).sum(axis=1).real
        assert rates.size == 1
        assert np.allclose(fit, _k_smooth(sigma, gamma, t), rtol=1e-14, atol=1e-17)

    @pytest.mark.parametrize("t_final, count, most", [(1.0, 54, 20), (100.0, 68, 30)],
                             ids=["1.0-54", "100.0-68"])
    def test_mode_counts_of_the_benchmark_steps(self, monkeypatch, t_final, count, most):
        # the quadrature's 12 points below min(1/T, |z|), then 14 per panel of
        # ln x up to 30/delta, compress to 18 and 27 modes
        tau = t_final / (1024 if t_final == 1.0 else 16384)
        spec = KernelSpec(0.5, 3.0, 3.0 * ROOT3)
        amplitudes, rates = exponential_modes(spec, 31 * tau, t_final)
        assert amplitudes.size == rates.size <= most
        monkeypatch.setattr("memwave.kernel._compress",
                            lambda spec, amplitudes, x, *_: (amplitudes, x))
        assert exponential_modes(spec, 31 * tau, t_final)[0].size == count

    def test_rank_grows_until_the_fit_holds(self):
        # here the 12 modes above the singular-value cut miss K by 1.04e-12 of
        # the envelope at t = delta, so the compression keeps more (14)
        assert _assert_modes_fit(KernelSpec(0.5, 2.0, 0.0), 0.0625, 149).size > 12

    @pytest.mark.parametrize("rate", [2.0 - 1.5j, 0.05 + 0.0j, 40.0 + 20.0j, 1e-4 - 1e-4j])
    def test_hat_weights_of_one_exponential(self, rate):
        # c_b and c_e against 30-point Gauss on each half hat of exp(-w (tau - s)):
        # a full hat at lag 1 and the half hat at p = 0, n = 1; the series
        # (|w tau| < 1) and the closed form both
        tau = 0.1
        x, w = np.polynomial.legendre.leggauss(30)
        s = 0.5 * tau * (x + 1.0)  # nodes on [0, tau]
        falling = 0.5 * tau * np.sum(w * np.exp(-rate * (tau - s)) * (1.0 - s / tau))
        rising = 0.5 * tau * np.sum(w * np.exp(-rate * (tau - s + tau)) * (s / tau))
        body, edge = hat_weights(np.array([rate]), tau)
        scale = tau * abs(np.exp(-rate * tau))
        assert abs(body[0] * np.exp(-rate * tau) - (falling + rising)) <= 1e-14 * scale
        assert abs(edge[0] * np.exp(-rate * tau) - falling) <= 1e-14 * scale


class TestConvolve:
    def test_zero_samples(self):
        table = _SHARED_TABLE
        assert convolve(table, 5, np.zeros(6)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            convolve(_SHARED_TABLE, 4, np.zeros(4))

    def test_constant_samples_integrate_kernel(self):
        # hats partition unity: Q_n(1) = int_0^{t_n} K(s) ds
        spec = KernelSpec(1.0, 2.0, 1.0)
        tau = 0.04
        table = _SHARED_TABLE
        for n in (1, 5, 20, 32):
            expected, _ = quad(
                lambda s: _k_smooth(2.0, 1.0, s), 0.0, n * tau, epsabs=1e-13, limit=200
            )
            assert convolve(table, n, np.ones(n + 1)) == pytest.approx(expected, abs=1e-9)

    def test_unit_hook_is_trapezoid_rule(self):
        # with K = 1 the convolution is the composite trapezoid rule
        tau = 0.07
        table = build_weight_table(constant_transform(1.0), tau, 12)
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(13)
        expected = np.trapezoid(phi, dx=tau)
        assert convolve(table, 12, phi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_interpolatory_exactness_on_linear_signal(self, n):
        # a globally linear signal equals its own interpolant
        sigma, gamma, tau = 2.0, 1.0, 0.04
        table = _SHARED_TABLE
        a, b = 0.7, -0.4
        phi = a + b * tau * np.arange(n + 1)
        expected, _ = quad(
            lambda s: _k_smooth(sigma, gamma, n * tau - s) * (a + b * s),
            0.0, n * tau, epsabs=1e-13, limit=400,
        )
        bound = 1e-9 * (1.0 + np.abs(phi).max() * n * tau)
        assert abs(convolve(table, n, phi) - expected) <= bound

    def test_vector_samples(self):
        table = _SHARED_TABLE
        samples = np.outer(np.arange(4.0), np.array([1.0, -2.0]))
        out = convolve(table, 3, samples)
        coeff = table.coefficients(3)
        assert np.allclose(out, coeff @ samples, atol=0.0)

"""Quadrature weight table: hat-function integrals, structure, convolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from memwave import kernel
from memwave.kernel import KernelSpec, constant_transform, kernel_transform
from memwave.quadweights import WeightTable, build_weight_table, convolve

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


def _brute_weight(kfun, tau, n, p, points=200001):
    """Flat trapezoid quadrature of K(t_n - s) * hat_p(s) over [0, t_n]."""
    s = np.linspace(0.0, n * tau, points)
    hat = np.maximum(1.0 - np.abs(s - p * tau) / tau, 0.0)
    return np.trapezoid(kfun(n * tau - s) * hat, s)


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

    def test_chunked_increments_leave_the_table_unchanged(self, monkeypatch):
        # the long 1d benchmark run's table: its refined grid spans many
        # chunks, and one chunk larger than the grid is the unchunked path
        spec, tau, n_max = KernelSpec(0.5, 3.0, 3.0 * ROOT3), 100.0 / 16384, 16383
        chunked = build_weight_table(spec, tau, n_max)
        monkeypatch.setattr(kernel, "_INCREMENT_CHUNK", 1 << 21)
        whole = build_weight_table(spec, tau, n_max)
        for name in ("body", "edge_left", "edge_right", "k_values"):
            assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name


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
        for n in range(1, 9):
            for p in range(0, n + 1):
                brute = _brute_weight(kfun, tau, n, p)
                assert table.weight(n, p) == pytest.approx(brute, abs=1e-8)

    @pytest.mark.parametrize("sigma,gamma", [(3.0, 3.0 * ROOT3), (2.0, 1.0)])
    def test_singular_weights_match_flat_quadrature(self, sigma, gamma):
        rng = np.random.default_rng(ord("s") + int(10 * sigma))
        tau = float(rng.uniform(0.01, 0.5))
        table = build_weight_table(KernelSpec(0.5, sigma, gamma), tau, 8)
        kfun = lambda t: _k_singular(sigma, gamma, t)
        for n in range(1, 9):
            for p in range(0, n + 1):
                brute = _brute_weight(kfun, tau, n, p)
                assert table.weight(n, p) == pytest.approx(brute, abs=1e-8)


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

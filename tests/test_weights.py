"""Quadrature weight table: hat-function integrals, structure, convolution,
the admissible kernel box and the exponential modes of the memory sum."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

import memwave.quadweights as quadweights
from memwave.fem import Mesh, assemble
from memwave.kernel import (
    _RANK_TOL,
    KernelSpec,
    constant_transform,
    exponential_modes,
    kernel_transform,
)
from memwave.quadweights import (
    WEIGHT_TOL,
    WeightTable,
    build_weight_table,
    hat_weights,
)
from memwave.stepper import SimulationHistory

from closed_forms import alpha_one_table, assert_matches_alpha_one

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


class TestUnitHook:
    def test_hat_areas(self):
        tau = 0.05
        table = build_weight_table(constant_transform(1.0), tau, 10)
        assert np.allclose(table.body[1:], tau, atol=1e-12)
        assert np.allclose(table.edge_left[1:], tau / 2.0, atol=1e-12)
        assert table.edge_right == pytest.approx(tau / 2.0, abs=1e-12)

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
            assert table.edge_right > 0.0

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


def _order_56_table(spec, tau, n_max):
    """(body, edge_left, edge_right) from 56 Gauss points per interval."""
    flat, rise = (np.concatenate(([0.0], m))
                  for m in quadweights._interval_moments(spec, tau, n_max + 1, 56))
    fall = flat - rise
    return rise[:-1] + fall[1:], rise[:-1], fall[1]


def _needed_points(a, j):
    """The fewest Gauss points whose bound in `_gauss_passes` holds one
    interval's moments to _MOMENT_TOL at tau |z| = a, read one rho at a time:
    j = None for alpha = 1, j = 0 for the sqrt(u)-mapped first interval of
    alpha = 1/2, and j >= 1 for its interval j + 1, whose branch point sits
    at x = -(2j + 1)."""
    for m in range(2, 41):
        for rho in np.geomspace(1.01, 1.0e3, 600):
            s = (rho + 1.0 / rho + 2.0) / 4.0
            if j == 0:
                log_scale = math.log(128.0 / 15.0 * s**3) + np.logaddexp(math.log(2.0), a * s * s)
            elif j is None or rho < 2 * j + 1 + math.sqrt((2 * j + 1) ** 2 - 1):
                log_scale = math.log(32.0 / 15.0 * s) + a * s
            else:
                break
            if (log_scale + (2 - 2 * m) * math.log(rho) - math.log(rho * rho - 1.0)
                    <= math.log(quadweights._MOMENT_TOL)):
                return m
    raise AssertionError(f"no order up to 40 holds the bound at tau |z| = {a}")


def _tau_at(sigma, gamma, step):
    """The step tau with tau |z| = step, z = sigma - i gamma, rounded down
    into the verified range: step / |z| * |z| can round above step."""
    z = abs(complex(sigma, -gamma))
    tau = step / z
    while tau * z > quadweights._MAX_TAU_Z:
        tau = np.nextafter(tau, 0.0)
    return tau


class TestGaussPasses:
    """Gauss passes at the orders the Bernstein-ellipse bound gives for tau |z|."""

    @given(alpha=st.sampled_from([1.0, 0.5]),
           sigma=st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
           ratio=st.floats(min_value=0.0, max_value=ROOT3),
           step=st.floats(min_value=1e-3, max_value=quadweights._MAX_TAU_Z))
    @example(alpha=1.0, sigma=1.03125, ratio=1.0, step=6.0)
    @settings(max_examples=80, deadline=None)
    def test_matches_order_56(self, alpha, sigma, ratio, step):
        spec = KernelSpec(alpha, sigma, ratio * sigma)
        tau = _tau_at(sigma, ratio * sigma, step)
        n_max = 40
        body, edge_left, edge_right = _order_56_table(spec, tau, n_max)
        if edge_right <= 0.0:
            # a coarse step can turn an oscillating kernel's diagonal weight
            # negative, and then the build refuses
            with pytest.raises(ArithmeticError, match="diagonal weight"):
                build_weight_table(spec, tau, n_max)
            return
        table = build_weight_table(spec, tau, n_max)
        envelope = tau * np.exp(-sigma * tau * np.arange(n_max))  # tau e^(-sigma (j-1) tau)
        assert np.all(np.abs(table.body[1:] - body[1:]) <= 1e-13 * envelope)
        assert np.all(np.abs(table.edge_left[1:] - edge_left[1:]) <= 1e-13 * envelope)
        assert abs(table.edge_right - edge_right) <= 1e-13 * tau

    @pytest.mark.parametrize("kernel,n_passes",
                             [(KernelSpec(0.5, 3.0, 3.0 * ROOT3), 2), (KernelSpec(1.0, 2.0, 1.0), 1),
                              (constant_transform(1.0), 1)],
                             ids=["alpha=0.5", "alpha=1", "hook"])
    def test_moment_passes_per_build(self, monkeypatch, kernel, n_passes):
        passes = []
        moments = quadweights._interval_moments

        def counted(kernel, tau, n_intervals, order, start=0):
            passes.append((start, n_intervals, order))
            return moments(kernel, tau, n_intervals, order, start)

        monkeypatch.setattr(quadweights, "_interval_moments", counted)
        build_weight_table(kernel, 100.0 / 16384, 64)
        assert len(passes) == n_passes
        # the passes cover intervals 1..65 once each, in order
        assert [start for start, _, _ in passes] == [0] + [stop for _, stop, _ in passes[:-1]]
        assert passes[-1][1] == 65
        if n_passes == 2:
            # alpha = 1/2 at long_1d's tau |z|: the far intervals take fewer points
            assert passes[1][2] < passes[0][2]

    @pytest.mark.parametrize("step", [100.0 * 6.0 / 16384, 0.6, 3.0, 6.0])
    def test_pass_orders_follow_the_bound(self, step):
        # |z| = 6, so tau |z| = step
        tau = step / 6.0
        (start, k, near), (far_start, stop, far) = quadweights._gauss_passes(
            KernelSpec(0.5, 3.0, 3.0 * ROOT3), tau, 200)
        assert (start, far_start, stop) == (0, k, 200)
        assert near == max(_needed_points(step, 0), _needed_points(step, 1))
        assert far == _needed_points(step, k)
        assert quadweights._gauss_passes(KernelSpec(1.0, 3.0, 3.0 * ROOT3), tau, 200) == [
            (0, 200, _needed_points(step, None))]

    def test_step_past_the_verified_range_raises(self):
        # |z| = 6, so tau |z| is 1.01 times the largest verified step
        spec = KernelSpec(0.5, 3.0, 3.0 * ROOT3)
        tau = 1.01 * quadweights._MAX_TAU_Z / 6.0
        # the message shows tau |z| in full, so that an excess in the last bit shows
        with pytest.raises(quadweights.QuadratureError,
                           match=r"tau \|z\| = 6\.0600000000000005 exceeds 6\.0,"):
            build_weight_table(spec, tau, 8)


class TestAlphaOneClosedForms:
    """alpha = 1 tables against their closed forms, an oracle that shares
    neither Gauss points nor kernel evaluations with the build."""

    @given(sigma=st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
           ratio=st.floats(min_value=0.0, max_value=ROOT3),
           step=st.floats(min_value=1e-3, max_value=quadweights._MAX_TAU_Z))
    @example(sigma=2.0, ratio=1.0, step=0.5)
    @example(sigma=3.0, ratio=ROOT3, step=2.0)
    @settings(max_examples=80, deadline=None)
    def test_matches_closed_forms(self, sigma, ratio, step):
        spec = KernelSpec(1.0, sigma, ratio * sigma)
        tau = _tau_at(sigma, ratio * sigma, step)
        n_max = 200
        if alpha_one_table(sigma, ratio * sigma, tau, n_max)[2] <= 0.0:
            with pytest.raises(ArithmeticError, match="diagonal weight"):
                build_weight_table(spec, tau, n_max)
            return
        table = build_weight_table(spec, tau, n_max)
        assert_matches_alpha_one(table.body[1:], table.edge_left[1:], table.edge_right,
                                 sigma, ratio * sigma, tau)


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
        assert table.edge_right > 0.0
        assert np.cumsum(table.edge_left[1:]).max() <= 1.0 + 1e-12
        # a history on the table checks the memory's mode weights against
        # body at every lag from L0 on, and raises if one is off: that check
        # is the modes' contract
        mesh = Mesh(1, 4)
        SimulationHistory(mesh, assemble(mesh), table, np.zeros(3), np.zeros(3), n_max + 1)

    @given(sigma=st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
           ratio=st.floats(min_value=0.0, max_value=ROOT3),
           step=st.floats(min_value=1e-3, max_value=0.2),
           n_max=st.integers(min_value=400, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_compressed_modes_of_long_runs(self, sigma, ratio, step, n_max):
        # runs of up to 5000 steps: the compressed alpha = 1/2 modes pass the
        # history's check of the weights and all decay
        spec = KernelSpec(0.5, sigma, ratio * sigma)
        tau = step / abs(complex(sigma, -ratio * sigma))
        table = build_weight_table(spec, tau, n_max)
        mesh = Mesh(1, 4)
        SimulationHistory(mesh, assemble(mesh), table, np.zeros(3), np.zeros(3), n_max + 1)
        rates = exponential_modes(spec, 31 * tau, n_max * tau)[1]
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

    def test_modes_number_the_first_rank(self, monkeypatch):
        # the compression keeps as many modes as its core has singular values
        # above _RANK_TOL, 12 here, although they fit K only to 1.04e-12 of
        # the envelope at t = delta: the history's check of every weight is
        # what they must pass
        singular, svd = [], np.linalg.svd

        def spy(a):
            result = svd(a)
            singular.append(result.S)
            return result

        monkeypatch.setattr(np.linalg, "svd", spy)
        spec, tau = KernelSpec(0.5, 2.0, 0.0), 0.0625
        amplitudes, _ = exponential_modes(spec, 31 * tau, 149 * tau)
        monkeypatch.undo()
        (s,) = singular
        assert amplitudes.size == np.count_nonzero(s > _RANK_TOL * s[0]) == 12
        mesh = Mesh(1, 4)
        SimulationHistory(mesh, assemble(mesh), build_weight_table(spec, tau, 149),
                          np.zeros(3), np.zeros(3), 150)

    def test_first_rank_at_long_horizons(self):
        # the 1d benchmark's kernel to T = 1000 in 16384 steps: the first rank
        # is 28 modes, and the history's check of every weight passes on them
        spec, tau = KernelSpec(0.5, 3.0, 3.0 * ROOT3), 1000.0 / 16384
        amplitudes, _ = exponential_modes(spec, 31 * tau, 1000.0)
        assert amplitudes.size <= 30
        mesh = Mesh(1, 4)
        SimulationHistory(mesh, assemble(mesh), build_weight_table(spec, tau, 16384),
                          np.zeros(3), np.zeros(3), 16385)

    @pytest.mark.parametrize("rate", [2.0 - 1.5j, 0.05 + 0.0j, 40.0 + 20.0j, 1e-4 - 1e-4j])
    def test_hat_weights_of_one_exponential(self, rate):
        # c_b against 30-point Gauss on each half of the full hat at lag 1
        # of exp(-w (tau - s))
        tau = 0.1
        x, w = np.polynomial.legendre.leggauss(30)
        s = 0.5 * tau * (x + 1.0)  # nodes on [0, tau]
        falling = 0.5 * tau * np.sum(w * np.exp(-rate * (tau - s)) * (1.0 - s / tau))
        rising = 0.5 * tau * np.sum(w * np.exp(-rate * (tau - s + tau)) * (s / tau))
        body = hat_weights(np.array([rate]), tau)
        scale = tau * abs(np.exp(-rate * tau))
        assert abs(body[0] * np.exp(-rate * tau) - (falling + rising)) <= 1e-14 * scale


class TestConvolve:
    def test_zero_samples(self):
        table = _SHARED_TABLE
        assert table.coefficients(5) @ np.zeros(6) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            _SHARED_TABLE.coefficients(4) @ np.zeros(4)

    def test_constant_samples_integrate_kernel(self):
        # hats partition unity: Q_n(1) = int_0^{t_n} K(s) ds
        spec = KernelSpec(1.0, 2.0, 1.0)
        tau = 0.04
        table = _SHARED_TABLE
        for n in (1, 5, 20, 32):
            expected, _ = quad(
                lambda s: _k_smooth(2.0, 1.0, s), 0.0, n * tau, epsabs=1e-13, limit=200
            )
            assert table.coefficients(n) @ np.ones(n + 1) == pytest.approx(expected, abs=1e-9)

    def test_unit_hook_is_trapezoid_rule(self):
        # with K = 1 the convolution is the composite trapezoid rule
        tau = 0.07
        table = build_weight_table(constant_transform(1.0), tau, 12)
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(13)
        expected = np.trapezoid(phi, dx=tau)
        assert table.coefficients(12) @ phi == pytest.approx(expected, abs=1e-12)

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
        assert abs(table.coefficients(n) @ phi - expected) <= bound

    def test_vector_samples(self):
        # vector samples are rows: each component is its own scalar convolution
        coeff = _SHARED_TABLE.coefficients(3)
        samples = np.outer(np.arange(4.0), np.array([1.0, -2.0]))
        scalar = [coeff @ samples[:, k] for k in range(2)]
        assert (coeff @ samples).tolist() == pytest.approx(scalar, rel=1e-15, abs=0.0)

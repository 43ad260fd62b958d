"""Kernel evaluation, tail transform, and cross-path agreement."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memwave.kernel import (
    _BLOCK,
    KernelSpec,
    beta,
    constant_transform,
    k_zero,
    kernel_transform,
    transform_by_quadrature,
)

ROOT3 = math.sqrt(3.0)

SMOOTH_SPECS = [
    KernelSpec(1.0, 3.0, 3.0 * ROOT3),
    KernelSpec(1.0, 2.0, 2.0),
    KernelSpec(1.0, 1.1, 0.5),
]
SINGULAR_SPECS = [
    KernelSpec(0.5, 3.0, 3.0 * ROOT3),
    KernelSpec(0.5, 2.0, 1.0),
    KernelSpec(0.5, 1.5, 0.0),
]


class TestValidation:
    def test_alpha_restricted(self):
        with pytest.raises(ValueError, match="alpha"):
            KernelSpec(0.75, 2.0, 0.0)

    def test_sigma_must_exceed_one(self):
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec(1.0, 1.0, 0.0)

    def test_gamma_nonnegative(self):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(1.0, 2.0, -0.1)

    def test_gamma_bound(self):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(0.5, 2.0, 2.0 * ROOT3 + 0.01)

    @pytest.mark.parametrize("field", ["sigma", "gamma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        args = {"alpha": 0.5, "sigma": 3.0, "gamma": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            KernelSpec(**args)

    def test_boundary_gamma_accepted(self):
        KernelSpec(0.5, 3.0, 3.0 * ROOT3)
        KernelSpec(1.0, 3.0, 3.0 * ROOT3)


class TestBeta:
    def test_value_at_zero_smooth(self):
        assert beta(KernelSpec(1.0, 3.0, 3.0 * ROOT3), 0.0) == 1.0

    def test_cosine_zero(self):
        val = beta(KernelSpec(1.0, 2.0, 2.0), math.pi / 4.0)
        assert abs(val) < 1.0e-15

    def test_singular_point_value(self):
        # exp(-3) / sqrt(pi) at t = 1 for the weakly singular exponent
        val = beta(KernelSpec(0.5, 3.0, 0.0), 1.0)
        assert val == pytest.approx(math.exp(-3.0) / math.sqrt(math.pi), abs=1e-16)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta(KernelSpec(0.5, 2.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            beta(KernelSpec(1.0, 2.0, 0.0), -1.0)

    def test_vectorized(self):
        spec = KernelSpec(1.0, 2.0, 1.0)
        ts = np.array([0.0, 0.5, 2.0])
        vals = beta(spec, ts)
        assert vals.shape == (3,)
        assert vals[0] == 1.0


class TestTransform:
    def test_closed_form_value(self):
        # sigma / (sigma^2 + gamma^2) at t = 0
        spec = KernelSpec(1.0, 3.0, 3.0 * ROOT3)
        assert kernel_transform(spec, 0.0) == pytest.approx(1.0 / 12.0, abs=1e-15)

    @pytest.mark.parametrize("sigma", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
    def test_no_oscillation_elementary_integral(self, sigma, t):
        spec = KernelSpec(1.0, sigma, 0.0)
        assert kernel_transform(spec, t) == pytest.approx(
            math.exp(-sigma * t) / sigma, rel=1e-14
        )

    @pytest.mark.parametrize("spec", SMOOTH_SPECS)
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_closed_form_vs_quadrature(self, spec, t):
        assert kernel_transform(spec, t) == pytest.approx(
            transform_by_quadrature(spec, t), abs=1e-10
        )

    @pytest.mark.parametrize("spec", SINGULAR_SPECS)
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_quadrature_vs_erfc_identity(self, spec, t):
        # for alpha = 1/2 kernel_transform is the erfc identity
        assert kernel_transform(spec, t) == pytest.approx(
            transform_by_quadrature(spec, t), abs=1e-12
        )

    @pytest.mark.parametrize(
        "sigma,gamma",
        [(3.0, 3.0 * ROOT3), (2.0, 1.0), (1.01, 1.01 * ROOT3), (50.0, 50.0 * ROOT3), (1.5, 0.0)],
    )
    def test_erfc_identity_matches_quadrature_oracle(self, sigma, gamma):
        spec = KernelSpec(0.5, sigma, gamma)
        times = np.concatenate(([0.0], np.geomspace(1e-4, 40.0, 60)))
        vals = kernel_transform(spec, times)
        ref = np.array([transform_by_quadrature(spec, t) for t in times])
        assert np.abs(vals - ref).max() <= 1e-12

    @pytest.mark.parametrize("spec", SMOOTH_SPECS + SINGULAR_SPECS)
    def test_magnitude_bound(self, spec):
        # |K(t)| <= integral of |beta| <= sigma**(-alpha)
        bound = spec.sigma ** (-spec.alpha)
        ts = np.linspace(0.0, 8.0, 33)
        vals = kernel_transform(spec, ts)
        assert np.all(np.abs(vals) <= bound + 1e-12)

    @pytest.mark.parametrize("spec", SMOOTH_SPECS + SINGULAR_SPECS)
    def test_decay_at_infinity(self, spec):
        assert abs(kernel_transform(spec, 200.0 / spec.sigma)) < 1e-6

    def test_negative_time_rejected(self):
        for spec in (SMOOTH_SPECS[1], SINGULAR_SPECS[1]):
            with pytest.raises(ValueError):
                kernel_transform(spec, -0.5)
            with pytest.raises(ValueError):
                kernel_transform(spec, np.array([0.0, 1.0, -1e-9]))
            with pytest.raises(ValueError, match="t >= 0"):
                transform_by_quadrature(spec, -1e-9)


class TestQuadratureOracle:
    """`transform_by_quadrature` (QUADPACK) over the admissible box."""

    @given(alpha=st.sampled_from([1.0, 0.5]),
           sigma=st.floats(min_value=1.0, max_value=50.0, exclude_min=True),
           ratio=st.floats(min_value=0.0, max_value=ROOT3),
           t=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=40.0)))
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_forms(self, alpha, sigma, ratio, t):
        # pytest turns warnings into errors, so this also pins that QUADPACK
        # raises no IntegrationWarning inside the box
        spec = KernelSpec(alpha, sigma, ratio * sigma)
        assert abs(transform_by_quadrature(spec, t) - kernel_transform(spec, t)) <= 1e-12


class TestSeriesAccuracy:
    """The alpha = 1/2 transform against mpmath's erfc at 30 digits."""

    @pytest.mark.parametrize("sigma", [math.nextafter(1.0, 2.0), 1.7, 4.0, 10.0])
    @pytest.mark.parametrize("ratio", [0.0, 0.6, 1.2, ROOT3])
    def test_within_5e_15_of_the_envelope(self, sigma, ratio):
        # the envelope exp(-sigma t) |z|**(-1/2) bounds |K(t)|
        spec = KernelSpec(0.5, sigma, ratio * sigma)
        times = np.concatenate(([0.0], np.geomspace(1e-9 / sigma, 30.0 / sigma, 48)))
        with mpmath.workdps(30):
            z = mpmath.mpc(spec.sigma, -spec.gamma)
            exact = [float(mpmath.re(mpmath.erfc(mpmath.sqrt(z * float(t))) / mpmath.sqrt(z)))
                     for t in times]
        envelope = np.exp(-sigma * times) / math.sqrt(abs(complex(spec.sigma, spec.gamma)))
        assert np.all(np.abs(kernel_transform(spec, times) - exact) <= 5e-15 * envelope)
        # far out exp(-sigma t) underflows and the Faddeeva sum stays bounded
        assert kernel_transform(spec, 1000.0) == 0.0


class TestKZero:
    def test_closed_form_k_zero(self):
        spec = KernelSpec(1.0, 3.0, 3.0 * ROOT3)
        assert k_zero(spec) == pytest.approx(1.0 / 12.0, abs=1e-14)
        assert 1.0 - k_zero(spec) == pytest.approx(11.0 / 12.0, abs=1e-14)

    def test_elementary_k_zero(self):
        spec = KernelSpec(1.0, 2.0, 0.0)
        assert k_zero(spec) == pytest.approx(0.5, abs=1e-14)
        assert 1.0 - k_zero(spec) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("spec", SMOOTH_SPECS + SINGULAR_SPECS)
    def test_k_zero_in_unit_interval(self, spec):
        k0 = k_zero(spec)
        assert 0.0 < k0 < 1.0

    def test_singular_k_zero_against_oracle(self):
        spec = KernelSpec(0.5, 3.0, 3.0 * ROOT3)
        assert k_zero(spec) == pytest.approx(transform_by_quadrature(spec, 0.0), abs=1e-12)


class TestGridEvaluation:
    """Arrays of times: any shape and order, each entry evaluated on its own."""

    @pytest.mark.parametrize("spec", [SMOOTH_SPECS[1], SINGULAR_SPECS[0], SINGULAR_SPECS[2]])
    def test_grid_matches_scalar_path(self, spec):
        rng = np.random.default_rng(7)
        times = np.sort(np.concatenate(([0.0], rng.uniform(0.0, 5.0, 40))))
        grid_vals = kernel_transform(spec, times)
        scalar_vals = np.array([kernel_transform(spec, t) for t in times])
        assert np.array_equal(grid_vals, scalar_vals)

    def test_blocks_match_scalar_path(self):
        # an array of more than one block: the entries on both sides of each seam
        spec = SINGULAR_SPECS[0]
        times = np.linspace(0.0, 5.0, 2 * _BLOCK + 3)
        vals = kernel_transform(spec, times)
        for i in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, times.size - 1):
            assert vals[i] == kernel_transform(spec, times[i])

    def test_callable_hook_passthrough(self):
        def hook(t):
            return 2.0 * t + 1.0

        times = np.array([[0.0, 1.0], [2.0, 0.5]])
        assert np.array_equal(kernel_transform(hook, times), hook(times))
        assert kernel_transform(constant_transform(1.0), 3.0) == 1.0

    def test_array_transform_unsorted_input(self):
        times = np.linspace(0.0, 6.0, 24).reshape(4, 6)
        reversed_2d = times[::-1, ::-1]
        for spec in (SMOOTH_SPECS[0], SINGULAR_SPECS[0]):
            vals = kernel_transform(spec, reversed_2d)
            assert vals.shape == (4, 6)
            scalar_vals = [[kernel_transform(spec, t) for t in row] for row in reversed_2d]
            assert np.array_equal(vals, scalar_vals)
            assert np.array_equal(vals[::-1, ::-1], kernel_transform(spec, times))


class TestPositiveType:
    """Numerical witness that the transform is of positive type.

    Checked with random vectors on uniform grids for specs inside the
    classical parameter region (gamma <= sigma for the smooth exponent).
    """

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(1.0, 2.0, 2.0),
            KernelSpec(1.0, 1.1, 0.5),
            KernelSpec(0.5, 3.0, 3.0 * ROOT3),
            KernelSpec(0.5, 2.0, 1.0),
        ],
    )
    def test_quadratic_form_nonnegative(self, spec):
        rng = np.random.default_rng(42)
        for m, tau in ((16, 0.05), (64, 0.02), (33, 0.11)):
            times = tau * np.arange(m)
            gram = kernel_transform(spec, np.abs(times[:, None] - times[None, :]))
            for _ in range(5):
                v = rng.standard_normal(m)
                q = tau * tau * float(v @ gram @ v)
                assert q >= -1e-8

import math

import numpy as np
import pytest

import _frozen
from conftest import rel_err
from weberorr.errors import DivergenceError, DomainError
from weberorr.kernels import KernelParams, weber_kernel
from weberorr.quadrature import (ORIGIN_CUTOFF, QuadratureConfig,
                                 integrate_improper, integrate_oscillatory_tail,
                                 integrate_semiinfinite_from_a, raw_tail_sum,
                                 truncation_remainders)


class TestConfig:
    def test_defaults_valid(self):
        QuadratureConfig()

    def test_invariants(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=2.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_half_periods=4)
        with pytest.raises(DomainError):
            QuadratureConfig(acceleration_depth=13)


class TestOscillatoryTail:
    def test_algebraic_cosine_reference(self):
        out = integrate_oscillatory_tail(
            lambda t: t ** -1.5 * np.cos(t), 1.0, 1.0, QuadratureConfig())
        assert abs(complex(out.value) - _frozen.TAIL_T32_COS_FROM_1) <= 1e-8
        assert out.converged

    def test_half_period_spacing_diagnostic(self):
        cfg = QuadratureConfig()
        out1 = integrate_oscillatory_tail(lambda t: t ** -2.0 * np.cos(t),
                                          1.0, 1.0, cfg)
        out2 = integrate_oscillatory_tail(lambda t: t ** -2.0 * np.cos(2 * t),
                                          2.0, 1.0, cfg)
        h1 = out1.diagnostic("half_period_length")
        h2 = out2.diagnostic("half_period_length")
        assert rel_err(h2, h1 / 2.0) <= 1e-12

    def test_even_panel_reflection(self):
        # an even amplitude about a chunk midpoint integrates symmetrically:
        # reversing the variable leaves each half-period panel sum unchanged
        from weberorr.quadrature import _panel_values
        f = lambda t: (t - 4.0) ** 2
        edges = np.array([3.0, 4.0, 5.0])
        vals = _panel_values(f, edges[:-1], edges[1:], 12)
        assert rel_err(vals[0], vals[1]) <= 1e-13

    def test_degenerate_frequency(self):
        with pytest.raises(DomainError):
            integrate_oscillatory_tail(lambda t: 1.0 / t, 0.0, 1.0,
                                       QuadratureConfig())


class TestImproper:
    def test_exponential(self):
        out = integrate_improper(lambda x: np.exp(-x), 0.0, 0.0,
                                 QuadratureConfig())
        assert abs(complex(out.value) - 1.0) <= 1e-10
        assert out.converged

    def test_inverse_square(self):
        cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11)
        out = integrate_semiinfinite_from_a(lambda t: t ** -2.0, 1.0, 0.0, cfg)
        assert abs(complex(out.value) - 1.0) <= 1e-10

    def test_zero_integrand(self):
        out = integrate_semiinfinite_from_a(
            lambda t: np.zeros_like(np.asarray(t)), 1.0, 3.0,
            QuadratureConfig())
        assert out.value == 0.0
        assert out.converged

    def test_endpoint_singularity_gamma(self):
        # int_0^inf x^{-0.8} e^{-x} = Gamma(0.2)
        out = integrate_improper(lambda x: x ** -0.8 * np.exp(-x), 0.0, 0.0,
                                 QuadratureConfig())
        assert rel_err(out.value, math.gamma(0.2)) <= 1e-9

    def test_fresnel_cosine(self):
        # int_0^inf x^{-1/2} cos x = sqrt(pi/2): singular endpoint and a
        # conditionally convergent oscillatory tail in one example
        out = integrate_improper(lambda x: x ** -0.5 * np.cos(x), 0.0, 1.0,
                                 QuadratureConfig(), asymptotic_start=2.0)
        assert abs(complex(out.value) - _frozen.FRESNEL_COS_HALF) <= 1e-8

    def test_log_divergence_detected(self):
        # |integrand| ~ 1/x at the origin: not integrable
        with pytest.raises(DivergenceError):
            integrate_improper(lambda x: np.cos(x) / x, 0.0, 1.0,
                               QuadratureConfig(), asymptotic_start=2.0)

    def test_growth_divergence_detected(self):
        with pytest.raises(DivergenceError):
            integrate_improper(lambda x: 1.0 / x, 1.0, 0.0, QuadratureConfig())

    def test_nonfinite_integrand_rejected(self):
        def bad(x):
            x = np.asarray(x)
            return np.where(x > 3.0, np.nan, 1.0) * np.exp(-x)
        with pytest.raises(DomainError):
            integrate_improper(bad, 0.0, 0.0, QuadratureConfig())

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate_improper(lambda x: x, -1.0, 0.0, QuadratureConfig())
        with pytest.raises(DomainError):
            integrate_semiinfinite_from_a(lambda x: x, 0.0, 1.0,
                                          QuadratureConfig())


class TestTruncationLaw:
    def test_weber_integrand_exponent(self):
        # raw remainder after cutting at N scales like N^{-mu-1}
        p = KernelParams(-0.75, 1.0)
        x, s = 2.0, complex(-0.5, 0.0)
        cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10)

        def integrand(lam):
            lam = np.asarray(lam, dtype=np.float64)
            return np.exp(-s * np.log(lam)) * weber_kernel(p, x, lam)

        start = max(ORIGIN_CUTOFF, 10.0 / min(x, p.a))
        full = integrate_improper(integrand, 0.0, x - p.a, cfg,
                                  asymptotic_start=start)
        head = complex(full.value) - complex(
            integrate_oscillatory_tail(integrand, x - p.a, start, cfg).value)
        # reference value of int_start^inf, then remainders at cut points
        tail_ref = complex(full.value) - head
        ns, rems = truncation_remainders(integrand, x - p.a, start,
                                         [8, 16, 32, 64, 128], tail_ref)
        slope = np.polyfit(np.log(ns), np.log(rems), 1)[0]
        assert abs(slope - (-s.real - 1.0)) <= 0.1, slope

    def test_acceleration_gain(self):
        # accelerated 32 half-periods beats raw 4096 half-periods
        p = KernelParams(-0.75, 1.0)
        x, s = 2.0, complex(-0.5, 0.0)

        def integrand(lam):
            lam = np.asarray(lam, dtype=np.float64)
            return np.exp(-s * np.log(lam)) * weber_kernel(p, x, lam)

        start = 10.0
        ref_cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12,
                                   max_half_periods=2048,
                                   acceleration_depth=12)
        ref = complex(integrate_oscillatory_tail(integrand, x - p.a, start,
                                                 ref_cfg).value)
        accel = complex(integrate_oscillatory_tail(
            integrand, x - p.a, start,
            QuadratureConfig(max_half_periods=32, acceleration_depth=10)).value)
        raw = raw_tail_sum(integrand, x - p.a, start, 4096)
        assert abs(accel - ref) < abs(raw - ref)


class TestToleranceHonesty:
    def test_random_suite(self, rng):
        # estimates bound the doubled-precision rerun error in >= 95% of
        # cases and never under-estimate by more than 10x
        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)
        tight = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12,
                                 max_half_periods=1024, acceleration_depth=12)
        n_cover = 0
        n_total = 200
        for _ in range(n_total):
            alpha = rng.uniform(1.1, 2.5)
            omega = rng.uniform(0.3, 5.0)
            phase = rng.uniform(0.0, 2 * math.pi)
            scale = 10.0 ** rng.uniform(-2, 2)

            def f(t, alpha=alpha, omega=omega, phase=phase, scale=scale):
                t = np.asarray(t, dtype=np.float64)
                return scale * t ** (-alpha) * np.cos(omega * t + phase)

            start = rng.uniform(0.5, 3.0)
            got = integrate_oscillatory_tail(f, omega, start, cfg)
            ref = integrate_oscillatory_tail(f, omega, start, tight)
            actual = abs(complex(got.value) - complex(ref.value))
            est = got.abs_error_estimate
            if actual <= est:
                n_cover += 1
            assert actual <= 10.0 * max(est, 1e-300), \
                (alpha, omega, phase, scale, actual, est)
        assert n_cover >= 0.95 * n_total, n_cover

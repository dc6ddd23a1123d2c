import math

import numpy as np
import pytest

import _expansions
import _frozen
from conftest import rel_err
from weberorr import specfun as sf
from weberorr.errors import DomainError, MembershipError
from weberorr.closedform import fnu_matrix
from weberorr.kernels import KernelParams
from weberorr.mellin import ContourSpec, MellinRepresentation, contour_integral
from weberorr.quadrature import QuadratureConfig
from weberorr.solver import (SolveResult, default_contour,
                             expansion_titchmarsh, expansion_weber_orr,
                             forward_contour, forward_contour_profile,
                             forward_direct, inverse_solve,
                             inverse_solve_derivative_form,
                             make_forward_derivative_function,
                             make_forward_function, reduced_equation_check,
                             solve_grid)
from weberorr.solver import TestFunctionFamily as BetaFamily

P75 = KernelParams(-0.75, 1.0)
FAM21 = BetaFamily(2, 1.0)


def _rep(params=P75, fam=FAM21):
    return fam.representation(default_contour(params))


@pytest.fixture(scope="module")
def f75():
    return make_forward_function(_rep(), P75)


@pytest.fixture(scope="module")
def fp75():
    return make_forward_derivative_function(_rep(), P75)


class TestFamily:
    def test_validation(self):
        with pytest.raises(DomainError):
            BetaFamily(0, 1.0)
        with pytest.raises(DomainError):
            BetaFamily(1, -1.0)

    def test_phi_closed_form(self):
        assert rel_err(FAM21.phi(1.0), 0.25) <= 1e-14

    def test_symbol_strip(self):
        from weberorr.errors import StripError
        with pytest.raises(StripError):
            FAM21.representation(ContourSpec(1.5, 30.0, 32))

    def test_shifted_symbol(self):
        s = complex(-0.8, 1.0)
        got = FAM21.shifted_symbol(np.array([s]))[0]
        want = FAM21.symbol(np.array([s + 1.0]))[0]
        assert rel_err(got, want) <= 1e-14


class TestForward:
    def test_cross_method(self):
        rep = _rep()
        for x in (2.0, 4.0):
            fd = forward_direct(FAM21.phi, P75, x)
            fc = forward_contour(rep, P75, x)
            assert rel_err(fd.value, fc.value) <= 1e-5
            assert fd.converged and fc.converged

    def test_zero_input(self):
        out = forward_direct(lambda lam: np.zeros_like(np.asarray(lam)),
                             P75, 2.0)
        assert out.value == 0.0

    def test_contour_result_real(self):
        # real symbol, conjugate-symmetric contour: imaginary part ~ 0
        rep = _rep()
        out = forward_contour(rep, P75, 2.0)
        v = complex(out.value)
        assert abs(v.imag) <= 1e-8 * abs(v)

    def test_decay(self, f75):
        vals = np.abs(f75(np.array([2.0, 8.0])))
        assert vals[1] < vals[0]

    def test_decay_envelope_calibrate_holdout(self, f75):
        # |f(x)| <= C x^{mu - nu}: f oscillates inside its envelope, so C is
        # calibrated over a neighbourhood of x = 2 wide enough to catch a
        # crest (a single point may sit in a trough), then held out upward
        mu = _rep().contour.mu
        probe = np.linspace(2.0, 3.5, 7)
        c_cal = float(np.max(np.abs(f75(probe)) / probe ** (mu - P75.nu)))
        for x in (4.0, 8.0, 16.0):
            bound = c_cal * x ** (mu - P75.nu)
            assert abs(complex(f75(np.array([x]))[0])) <= 1.05 * bound

    def test_membership_and_strip_enforcement(self):
        bad = MellinRepresentation(
            lambda s: 1.0 / (1.0 + np.asarray(s) ** 2),
            ContourSpec(-0.875, 30.0, 32))
        with pytest.raises(MembershipError):
            forward_contour(bad, P75, 2.0)
        # mu must sit left of nu
        rep_right = FAM21.representation(ContourSpec(-0.6, 30.0, 32))
        with pytest.raises(DomainError):
            forward_contour(rep_right, P75, 2.0)
        with pytest.raises(DomainError):
            forward_contour(_rep(), P75, 0.5)  # x <= a

    def test_solver_order_enforced(self):
        p_bad = KernelParams(0.25, 1.0)
        with pytest.raises(DomainError):
            forward_direct(FAM21.phi, p_bad, 2.0)


class TestInverse:
    def test_zero_f(self):
        zero = lambda ts: np.zeros_like(np.asarray(ts, dtype=np.float64),
                                        dtype=np.complex128)
        out = inverse_solve(zero, P75, 1.0)
        assert out.value == 0.0
        out = inverse_solve_derivative_form(zero, zero, P75, 1.0)
        assert out.value == 0.0

    def test_round_trip_subset(self, f75):
        # full grid in test_acceptance; this is the smoke version
        for lam in (0.25, 1.0, 4.0):
            out = inverse_solve(f75, P75, lam)
            assert rel_err(out.value, FAM21.phi(lam)) <= 1e-4, lam
            assert out.converged

    def test_cross_form_subset(self, f75, fp75):
        for lam in (0.25, 1.0, 4.0):
            r1 = inverse_solve(f75, P75, lam)
            r2 = inverse_solve_derivative_form(f75, fp75, P75, lam)
            assert rel_err(r1.value, r2.value) <= 1e-6, lam

    def test_linearity(self):
        rep1 = _rep()
        fam2 = BetaFamily(1, 2.0)
        rep2 = fam2.representation(default_contour(P75))
        f1 = make_forward_function(rep1, P75)
        f2 = make_forward_function(rep2, P75)
        alpha, beta_c = 2.5, -0.75
        combo = lambda ts: alpha * f1(ts) + beta_c * f2(ts)
        lam = 1.5
        got = complex(inverse_solve(combo, P75, lam).value)
        want = alpha * complex(inverse_solve(f1, P75, lam).value) \
            + beta_c * complex(inverse_solve(f2, P75, lam).value)
        assert rel_err(got, want) <= 1e-7

    def test_constant_scaled_power_contributes_zero(self):
        # f = c t^{nu}: d/dt[t^{-nu} f] = 0, so the derivative form returns 0
        c = 0.37
        f = lambda ts: c * np.asarray(ts, dtype=np.float64) ** P75.nu + 0.0j
        fp = lambda ts: c * P75.nu * np.asarray(ts, dtype=np.float64) ** (P75.nu - 1.0) + 0.0j
        out = inverse_solve_derivative_form(f, fp, P75, 1.0)
        assert abs(complex(out.value)) <= 1e-12

    def test_lambda_validation(self):
        f = lambda ts: np.zeros_like(np.asarray(ts), dtype=np.complex128)
        with pytest.raises(DomainError):
            inverse_solve(f, P75, 0.0)

    def test_solve_grid(self, f75):
        res = solve_grid(f75, P75, [0.5, 1.0, 2.0])
        assert isinstance(res, SolveResult)
        assert [row[0] for row in res.phi_values] == [0.5, 1.0, 2.0]
        for lam, val, err in res.phi_values:
            assert rel_err(val, FAM21.phi(lam)) <= 1e-4
            assert err >= 0.0
        assert res.converged

    def test_solve_grid_reports_nonconvergence(self):
        # half-period budget too small for the tolerance: every lambda misses
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_half_periods=8)
        f = lambda ts: 1.0 / np.asarray(ts, dtype=np.float64) ** 2
        assert not inverse_solve(f, P75, 0.5, cfg).converged
        res = solve_grid(f, P75, [0.5, 2.0], cfg)
        assert res.converged is False
        assert len(res.phi_values) == 2

    def test_solve_result_validation(self):
        with pytest.raises(DomainError):
            SolveResult([(1.0, 0j, 0.0), (0.5, 0j, 0.0)], QuadratureConfig())
        with pytest.raises(DomainError):
            SolveResult([(1.0, 0j, -1.0)], QuadratureConfig())


class TestForwardProfileCost:
    def test_unsettled_profile_has_bounded_cost(self, monkeypatch):
        # tolerances no refinement can meet: the first call stops at the
        # doubling cap and later calls stay at that level, on the half line
        # t >= 0 of the conjugate-symmetric integrand
        import weberorr.solver as solver_mod
        spec = ContourSpec(mu=default_contour(P75).mu, t_max=8.0, n_panels=8)
        cap = 4 * spec.n_panels * 16 + 1  # whole-line nodes after four halvings
        rows = []

        def counting(params, svals, xs):
            rows.append(np.size(svals))
            # fail before a runaway refinement allocates its matrices
            assert rows[-1] <= cap
            return fnu_matrix(params, svals, xs)

        monkeypatch.setattr(solver_mod, "fnu_matrix", counting)
        f = make_forward_function(FAM21.representation(spec), P75,
                                  abs_tol=1e-15, rel_tol=1e-15)
        ts = np.array([1.001, 2.0])  # x near a keeps the increment up
        f(ts)
        per_call = []
        for _ in range(3):
            rows.clear()
            f(ts)
            per_call.append(sum(rows))
        assert per_call == [2 * spec.n_panels * 16 + 1] * 3


class TestForwardProfileReport:
    def test_unsettled_first_call_is_reported(self):
        # family (1, 2) at nu = -0.95: the symbol's pole at s = -1 lies 0.025
        # from the default contour; the flag passes, the contour rule cannot
        # resolve the pole, and the round trip is off by about 4e-3
        params = KernelParams(-0.95, 1.0)
        rep = BetaFamily(1, 2.0).representation(default_contour(params))
        assert rep.is_member()
        assert not forward_contour_profile(rep, params, [1.001, 2.0]).converged
        f = make_forward_function(rep, params)
        assert f.report.converged  # no call made yet
        res = solve_grid(f, params, [0.5, 2.0])
        assert not f.report.converged
        assert f.report.abs_error_estimate > 1e-6
        assert res.converged is False
        settled = make_forward_function(_rep(params), params)
        fp = make_forward_derivative_function(rep, params)
        assert not inverse_solve_derivative_form(settled, fp, params, 1.0).converged
        assert settled.report.converged

    def test_settled_first_call_is_kept(self, f75):
        f75(np.array([2.0]))
        assert f75.report.converged
        assert f75.report.diagnostic("refine") >= 1


class TestForwardProfileReference:
    # mpmath contour integrals of the closed form, cross-checked against the
    # defining integral for x >= 2 a (tools/gen_reference_values.py)
    @pytest.mark.parametrize("nu", (-0.95, -0.75, -0.55))
    def test_profile_matches_mpmath(self, nu):
        rows = [r for r in _frozen.FORWARD_PROFILE_21_A1 if r[0] == nu]
        assert len(rows) == 5
        xs = np.array([r[1] for r in rows])
        want = np.array([r[2] for r in rows])
        tol = 1e-9 + 1e-8 * np.abs(want)  # the profile's own tolerances
        params = KernelParams(nu, 1.0)
        prof = forward_contour_profile(_rep(params), params, xs)
        assert prof.converged
        assert np.all(np.abs(prof.value - want) <= tol)
        f = make_forward_function(_rep(params), params)
        first = f(xs)
        later = f(xs[::-1])[::-1]  # one pass at the pinned level
        assert np.all(np.abs(first - want) <= tol)
        assert np.all(np.abs(later - want) <= tol)


class TestMembershipFlags:
    def test_forward_path_flags_kept(self):
        # the (1/2, 1) flags the Gauss-Legendre truncated norm gave on the
        # cases test_linearity and the cost test run: both members
        mu = default_contour(P75).mu
        assert BetaFamily(1, 2.0).representation(default_contour(P75)).is_member()
        assert FAM21.representation(ContourSpec(mu, 8.0, 8)).is_member()


class TestReducedEquation:
    def test_family_defect(self, f75, fp75):
        def derivative_side(x):
            # x^nu d/dx [x^{-nu} f(x)] = f'(x) - nu f(x) / x
            fx = complex(f75(np.array([x]))[0])
            fpx = complex(fp75(np.array([x]))[0])
            return fpx - P75.nu * fx / x

        out = reduced_equation_check(FAM21.phi, P75, 2.0, derivative_side)
        assert float(np.real(out.value)) <= 1e-5

    def test_zero_pair(self):
        zero_phi = lambda lam: np.zeros_like(np.asarray(lam), dtype=np.complex128)
        out = reduced_equation_check(zero_phi, P75, 2.0, lambda x: 0.0)
        assert out.value == 0.0

    def test_third_path_contour_derivative(self):
        # for f given on a contour Re s = gamma > 1/2, the derivative side
        # equals -(1/2 pi i) int (s + nu) F(s) x^{-s-1} ds; here
        # F(s) = G(s+2) G(1-s) inverts to f(x) = 2 x^2 (1+x)^{-3} with an
        # elementary derivative side
        nu = P75.nu
        gamma_line = ContourSpec(0.7, 40.0, 48)

        def symbol(s):
            s = np.asarray(s, dtype=np.complex128)
            return sf.gamma_array(s + 2.0) * sf.gamma_array(1.0 - s)

        x = 2.0

        def fn(svals):
            return -(svals + nu) * symbol(svals) * np.exp(-(svals + 1.0) * math.log(x))

        third = complex(contour_integral(fn, gamma_line, 1e-10, 1e-9).value)
        # analytic: f = 2 x^2 (1+x)^{-3};
        # x^nu (x^{-nu} f)' = (2 - nu) 2 x (1+x)^{-3} - 6 x^2 (1+x)^{-4}
        want = (2.0 - nu) * 2.0 * x * (1 + x) ** -3.0 - 6.0 * x * x * (1 + x) ** -4.0
        assert rel_err(third, want) <= 1e-6


class TestEquationEquivalence:
    def test_reduced_matches_forward_derivative(self, f75, fp75):
        # the differentiated-kernel integral of lam*phi equals the
        # differentiated forward transform on the family
        for x in (2.0, 3.0):
            def derivative_side(xx):
                fx = complex(f75(np.array([xx]))[0])
                fpx = complex(fp75(np.array([xx]))[0])
                return fpx - P75.nu * fx / xx
            out = reduced_equation_check(FAM21.phi, P75, x, derivative_side)
            assert float(np.real(out.value)) <= 1e-5

    def test_derivative_side_decays(self, f75, fp75):
        # the differentiated side oscillates toward 0: compare window maxima
        # rather than pointwise values (x = 4 can land near a zero crossing)
        mags = []
        for x in (2.0, 4.0, 8.0, 16.0):
            fx = complex(f75(np.array([x]))[0])
            fpx = complex(fp75(np.array([x]))[0])
            mags.append(abs(fpx - P75.nu * fx / x))
        assert max(mags[2], mags[3]) < max(mags[0], mags[1])
        assert mags[3] < mags[0]


class BumpFunction:
    """Smooth compactly supported bump on [lo, hi] (vectorized)."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        mid = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        u = (x - mid) / half
        out = np.zeros_like(x)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out


@pytest.mark.slow
class TestExpansions:
    def test_titchmarsh_zero(self):
        p = KernelParams(0.25, 1.0)
        zero = lambda xi: np.zeros_like(np.asarray(xi), dtype=np.complex128)
        out = expansion_titchmarsh(zero, p, 2.0,
                                   QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5))
        assert out.value == 0.0

    def test_titchmarsh_family(self):
        out = _expansions.titchmarsh_family()
        assert float(np.real(out.value)) <= 1e-3
        # the estimate carries the x / (J^2 + Y^2)(a x) factor of the value
        assert out.abs_error_estimate >= float(np.real(out.value))

    def test_titchmarsh_tolerance_trend(self):
        # tighter inner tolerance does not worsen the reconstruction
        p = KernelParams(0.25, 1.0)
        loose = QuadratureConfig(abs_tol=1e-4, rel_tol=1e-3,
                                 max_half_periods=32, acceleration_depth=6)
        dev_loose = float(np.real(expansion_titchmarsh(FAM21.phi, p, 2.0,
                                                       loose).value))
        dev_tight = float(np.real(_expansions.titchmarsh_family().value))
        assert dev_tight <= dev_loose

    def test_titchmarsh_order_range(self):
        with pytest.raises(DomainError):
            expansion_titchmarsh(FAM21.phi, P75, 2.0)

    def test_weber_orr_bump(self):
        for variant in (4, 5):
            out = _expansions.weber_orr_bump(variant)
            # the converged flag may stay conservative at these relaxed
            # settings; the acceptance bar is the deviation itself
            assert float(np.real(out.value)) <= 1e-3, variant

    def test_weber_orr_zero(self):
        p = KernelParams(0.25, 1.0)
        zero = lambda xi: np.zeros_like(np.asarray(xi), dtype=np.complex128)
        for variant in (4, 5):
            out = expansion_weber_orr(zero, p, 2.0, variant,
                                      QuadratureConfig(abs_tol=1e-6, rel_tol=1e-5))
            assert out.value == 0.0

    def test_weber_orr_variant4_needs_x_above_a(self):
        p = KernelParams(0.25, 1.0)
        with pytest.raises(DomainError):
            expansion_weber_orr(BumpFunction(1.5, 3.0), p, 0.5, 4)


@pytest.mark.slow
class TestFlagViolatingRoundTrip:
    def test_gaussian_tail_input_still_inverts(self):
        # phi = lam^2 e^{-lam} has symbol G(s+2), whose exponential-weight
        # (1/2, 1) norm diverges - the membership flag rejects it and
        # forward_contour refuses - yet the pair still round-trips through
        # the direct quadrature: the class hypotheses are sufficient, not
        # necessary
        phi = lambda lam: np.asarray(lam, dtype=np.float64) ** 2 \
            * np.exp(-np.asarray(lam, dtype=np.float64))

        rep = MellinRepresentation(
            lambda s: sf.gamma_array(np.asarray(s) + 2.0),
            default_contour(P75), 0.5, 1.0)
        assert not rep.is_member()
        with pytest.raises(MembershipError):
            forward_contour(rep, P75, 2.0)

        cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6, max_half_periods=64)

        def f(ts):
            return np.array([complex(forward_direct(phi, P75, float(t), cfg).value)
                             for t in np.atleast_1d(ts)])

        lam = 1.0
        out = inverse_solve(f, P75, lam, cfg)
        assert rel_err(out.value, lam ** 2 * math.exp(-lam)) <= 1e-2

    def test_forward_of_nonvanishing_input_diverges(self):
        # phi(0) != 0 makes the defining integral log-divergent at the
        # origin (the kernel behaves like 1/lambda there) - detected
        from weberorr.errors import DivergenceError
        phi = lambda lam: np.exp(-np.asarray(lam, dtype=np.float64))
        with pytest.raises(DivergenceError):
            forward_direct(phi, P75, 2.0)

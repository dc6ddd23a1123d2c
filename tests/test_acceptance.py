"""Acceptance gate: every criterion at its stated tolerance, one line per
criterion on success.  Run with `pytest tests/test_acceptance.py -v -s`
(criterion 9 carries the `slow` marker; deselect with `-m "not slow"` for
the quick tier).
"""

import math

import numpy as np
import pytest

from weberorr import specfun as sf
from weberorr.closedform import (F_nu_bound, F_nu_closed, F_nu_oracle,
                                 calibrate_bound_constant,
                                 calibrate_hyp_constant,
                                 hyp_estimate_admissible, hyp_estimate_check,
                                 hyp_estimate_envelope, hyp_term_value)
from weberorr.kernels import (KernelParams, derivative_identity_check,
                              weber_kernel)
from weberorr.mellin import (ContourSpec, MellinRepresentation, class_norm,
                             mellin_inverse, parseval_check)
from weberorr.quadrature import (ORIGIN_CUTOFF, QuadratureConfig,
                                 integrate_improper, integrate_oscillatory_tail,
                                 truncation_remainders)
from weberorr.solver import TestFunctionFamily as BetaFamily
from weberorr.solver import (default_contour, expansion_titchmarsh,
                             expansion_weber_orr, inverse_solve,
                             inverse_solve_derivative_form,
                             make_forward_derivative_function,
                             make_forward_function)

pytestmark = pytest.mark.acceptance

NUS = (-0.95, -0.75, -0.55)


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} PASS - {name}: {detail}")


class TestAcceptance:
    def test_01_closed_form_conformance(self):
        """Closed form vs brute-force quadrature over the full grid."""
        cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
        worst_rel = 0.0
        worst_at = None
        n_cases = 0
        by_im = {}  # diagnostic: oracle-vs-closed error growth in |Im s|
        for nu in NUS:
            for a in (0.5, 1.0, 2.0):
                params = KernelParams(nu, a)
                for fx in (1.5, 2.0, 5.0):
                    x = a * fx
                    for mu in (-0.8, -0.5, -0.2):
                        for t in (0.0, 1.0, -1.0, 5.0, -5.0):
                            s = complex(mu, t)
                            closed = F_nu_closed(params, x, s).total
                            orc = complex(F_nu_oracle(params, x, s, cfg).value)
                            n_cases += 1
                            err = abs(closed - orc)
                            key = abs(t)
                            by_im[key] = max(by_im.get(key, 0.0), err)
                            if abs(closed) < 1e-2:
                                assert err <= 1e-8, (nu, a, x, s)
                            else:
                                rel = err / abs(closed)
                                if rel > worst_rel:
                                    worst_rel, worst_at = rel, (nu, a, x, s)
                                assert rel <= 1e-6, (nu, a, x, s, rel)
        growth = ", ".join(f"|Im s|={k:g}: {v:.1e}"
                           for k, v in sorted(by_im.items()))
        _report(1, "closed-form conformance",
                f"{n_cases} grid points, worst rel {worst_rel:.2e} at {worst_at}; "
                f"worst abs error by contour height: {growth}")

    def test_02_round_trip(self):
        """Contour forward then closed-form inverse recovers the family."""
        fam = BetaFamily(2, 1.0)
        lams = np.geomspace(0.1, 10.0, 20)
        cfg = QuadratureConfig()
        worst = 0.0
        worst_at = None
        for nu in NUS:
            for a in (0.5, 1.0):
                params = KernelParams(nu, a)
                rep = fam.representation(default_contour(params))
                f = make_forward_function(rep, params)
                for lam in lams:
                    got = complex(inverse_solve(f, params, lam, cfg).value)
                    exact = float(fam.phi(lam))
                    rel = abs(got - exact) / abs(exact)
                    if rel > worst:
                        worst, worst_at = rel, (nu, a, lam)
                    assert rel <= 1e-4, (nu, a, lam, rel)
        _report(2, "round trip",
                f"120 lambda evaluations, worst rel {worst:.2e} at {worst_at}")

    def test_03_cross_form_equivalence(self):
        """Derivative-form and final-form inverses agree on the family."""
        fam = BetaFamily(2, 1.0)
        cfg = QuadratureConfig()
        worst = 0.0
        for (nu, a) in ((-0.75, 1.0), (-0.95, 0.5)):
            params = KernelParams(nu, a)
            rep = fam.representation(default_contour(params))
            f = make_forward_function(rep, params)
            fp = make_forward_derivative_function(rep, params)
            for lam in (0.25, 1.0, 4.0):
                r1 = complex(inverse_solve(f, params, lam, cfg).value)
                r2 = complex(inverse_solve_derivative_form(
                    f, fp, params, lam, cfg).value)
                rel = abs(r1 - r2) / abs(r1)
                worst = max(worst, rel)
                assert rel <= 1e-6, (nu, a, lam, rel)
        _report(3, "cross-form equivalence", f"worst rel {worst:.2e}")

    def test_04_derivative_identities(self):
        """Order-shift identities on a 3 x 5 grid, defect <= 1e-7."""
        worst = 0.0
        for nu in NUS:
            for x in (0.5, 1.0, 2.0, 5.0, 10.0):
                for which in ("J", "Y"):
                    for sign in ("+", "-"):
                        d = derivative_identity_check(nu, x, which, sign)
                        worst = max(worst, d)
                        assert d <= 1e-7, (nu, x, which, sign, d)
        _report(4, "derivative identities", f"worst defect {worst:.2e}")

    def test_05_wronskian_at_inner_radius(self):
        """pi a lam K(a, lam) = -2 to 1e-10."""
        worst = 0.0
        for a in (0.5, 1.0, 2.0):
            params = KernelParams(-0.75, a)
            for lam in (0.1, 1.0, 10.0, 100.0):
                val = math.pi * a * lam * weber_kernel(params, a, lam)
                rel = abs(val + 2.0) / 2.0
                worst = max(worst, rel)
                assert rel <= 1e-10, (a, lam, rel)
        _report(5, "Wronskian at x = a", f"worst rel {worst:.2e}")

    def test_06_truncation_law(self):
        """Raw tail remainder scales like N^{-mu-1} within +-0.1."""
        params = KernelParams(-0.75, 1.0)
        x = 2.0
        cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10,
                               max_half_periods=1024, acceleration_depth=12)
        fits = []
        for mu in (-0.8, -0.5, -0.2):
            s = complex(mu, 0.0)

            def integrand(lam, s=s):
                lam = np.asarray(lam, dtype=np.float64)
                return np.exp(-s * np.log(lam)) * weber_kernel(params, x, lam)

            start = max(ORIGIN_CUTOFF, 10.0 / min(x, params.a))
            tail_ref = complex(integrate_oscillatory_tail(
                integrand, x - params.a, start, cfg).value)
            ns, rems = truncation_remainders(integrand, x - params.a, start,
                                             [8, 16, 32, 64, 128], tail_ref)
            slope = float(np.polyfit(np.log(ns), np.log(rems), 1)[0])
            fits.append((mu, slope))
            assert abs(slope - (-mu - 1.0)) <= 0.1, (mu, slope)
        detail = ", ".join(f"mu={m}: {s:.3f} (want {-m-1.0:.1f})"
                           for m, s in fits)
        _report(6, "truncation law", detail)

    def test_07_bound_structure(self):
        """Envelope inequalities calibrate-then-hold-out; blow-up exponents."""
        # (a) global envelope |F| <= C x^{mu-nu} e^{pi|s|/2} |s|^{-mu}
        for nu in NUS:
            params = KernelParams(nu, 1.0)
            c_cal = calibrate_bound_constant(
                params, np.geomspace(1.1, 8.0, 9),
                (-0.85, -0.6, -0.35, -0.15), (0.0, 1.0, -2.5, 4.0, -6.0))
            for fx in (1.25, 2.5, 6.0):
                for mu in (-0.7, -0.45, -0.2):
                    for t in (0.5, -3.0, 5.0):
                        s = complex(mu, t)
                        val = abs(F_nu_closed(params, fx, s).total)
                        env = F_nu_bound(params, fx, s)
                        assert val <= 1.05 * c_cal * env, (nu, fx, s)
        # (b) the three 2F1 estimates on their Euler-admissible regions
        params = KernelParams(-0.75, 1.0)
        for which in (1, 2, 3):
            c_cal = calibrate_hyp_constant(
                params, which, np.geomspace(1.02, 10.0, 12),
                (-0.85, -0.6, -0.35, -0.12), (0.0, 1.5, -4.0))
            for fx in (1.05, 1.4, 3.0, 7.0):
                for mu in (-0.7, -0.2):
                    for t in (0.7, -2.0):
                        s = complex(mu, t)
                        if not hyp_estimate_admissible(params, s, which):
                            continue
                        assert hyp_estimate_check(params, params.a * fx, s,
                                                  which, 1.05 * c_cal)
        # (c) x -> a+ blow-up exponent of the envelopes, within +-0.05
        # (s = -0.45: at s = -0.5 estimate 3's gamma factor hits the
        # rgamma zero on the Euler-admissibility boundary 1 + nu + s/2 = 0)
        s = complex(-0.45, 0.0)
        xs = params.a * (1.0 + np.geomspace(1e-4, 1e-2, 9))
        d2 = xs ** 2 - params.a ** 2
        slopes = {}
        wants = {1: s.real / 2 - 1.0,
                 2: params.nu + s.real / 2,
                 3: s.real / 2 - 1.0 - params.nu}
        for which in (1, 2, 3):
            env = np.array([hyp_estimate_envelope(params, x, s, which)
                            for x in xs])
            slope = float(np.polyfit(np.log(d2), np.log(env), 1)[0])
            slopes[which] = slope
            assert abs(slope - wants[which]) <= 0.05, (which, slope)
        # the actual 2F1 grows strictly milder than the envelope near x = a:
        # the held-out inequality only gains margin there
        vals = np.array([abs(hyp_term_value(params, x, s, 1)) for x in xs])
        lhs_slope = float(np.polyfit(np.log(d2), np.log(vals), 1)[0])
        assert lhs_slope > slopes[1]
        _report(7, "bound structure",
                f"envelope slopes {dict((k, round(v, 3)) for k, v in slopes.items())}, "
                f"2F1 slope {lhs_slope:.3f}")

    def test_08_mellin_machinery(self):
        """Inverse of the gamma symbol, Parseval pairs, inclusion ordering."""
        rep = MellinRepresentation(sf.gamma_array, ContourSpec(0.5, 40.0, 40))
        worst = 0.0
        for x in (0.5, 1.0, 2.0):
            out = mellin_inverse(rep, x)
            err = abs(complex(out.value) - math.exp(-x))
            worst = max(worst, err)
            assert err <= 1e-8, (x, err)
        cfg = QuadratureConfig()
        pairs = [
            (lambda x: np.exp(-x), lambda x: np.exp(-x), 1e-7),
            (lambda x: np.exp(-x), lambda x: x * np.exp(-x), 1e-7),
            (lambda x: x ** 2 * (1 + x) ** -3.0, lambda x: np.exp(-x), 1e-6),
        ]
        for f, g, tol in pairs:
            defect = float(np.real(parseval_check(f, g, 0.5, cfg).value))
            assert defect <= tol, defect
        fam = BetaFamily(2, 1.0)
        spec = ContourSpec(-0.875, 30.0, 32)
        strong = class_norm(MellinRepresentation(fam.symbol, spec, 0.5, 1.0))
        weak = class_norm(MellinRepresentation(fam.symbol, spec, 0.0, 0.0))
        assert strong.converged and weak.converged
        _report(8, "Mellin machinery",
                f"gamma-pair worst abs {worst:.2e}, Parseval pairs pass, "
                "inclusion ordering holds")

    @pytest.mark.slow
    def test_09_expansions(self):
        """Repeated-integral expansions at relaxed nested tolerance."""
        cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6,
                               max_half_periods=64)
        p = KernelParams(0.25, 1.0)
        fam = BetaFamily(2, 1.0)
        dev3 = float(np.real(expansion_titchmarsh(fam.phi, p, 2.0, cfg).value))
        assert dev3 <= 1e-3, dev3

        def bump(x):
            x = np.asarray(x, dtype=np.float64)
            u = (x - 2.25) / 0.75
            out = np.zeros_like(x)
            m = np.abs(u) < 1.0
            out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
            return out

        dev4 = float(np.real(expansion_weber_orr(bump, p, 2.0, 4, cfg).value))
        assert dev4 <= 1e-3, dev4
        dev5 = float(np.real(expansion_weber_orr(bump, p, 2.0, 5, cfg).value))
        assert dev5 <= 1e-3, dev5
        _report(9, "expansions",
                f"deviations: {dev3:.2e} (inverse-pair), {dev4:.2e} and "
                f"{dev5:.2e} (classical pair)")

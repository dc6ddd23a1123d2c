import math

import numpy as np
import pytest

import _frozen
from conftest import rel_err
from weberorr import closedform
from weberorr import specfun as sf
from weberorr.closedform import (F_nu_bound, F_nu_closed, F_nu_closed_batch,
                                 F_nu_oracle, calibrate_bound_constant,
                                 calibrate_hyp_constant, fnu_dx_matrix,
                                 fnu_matrix,
                                 hyp_estimate_admissible, hyp_estimate_check,
                                 hyp_estimate_envelope, hyp_term_value)
from weberorr.errors import DomainError, PoleProximityError, StripError
from weberorr.kernels import KernelParams
from weberorr.quadrature import QuadratureConfig

P75 = KernelParams(-0.75, 1.0)


class TestClosedForm:
    def test_oracle_spec_points(self):
        # (nu=-0.75, a=1, x=2, s=-0.5) and (nu=-0.6, a=0.5, x=5, s=-0.3+2i)
        got = F_nu_closed(P75, 2.0, -0.5).total
        orc = F_nu_oracle(P75, 2.0, -0.5)
        assert abs(got - complex(orc.value)) / abs(got) <= 1e-6
        p2 = KernelParams(-0.6, 0.5)
        got = F_nu_closed(p2, 5.0, -0.3 + 2j).total
        orc = F_nu_oracle(p2, 5.0, -0.3 + 2j)
        assert abs(got - complex(orc.value)) / abs(got) <= 1e-6

    def test_conjugate_symmetry(self, rng):
        for _ in range(100):
            nu = rng.uniform(-0.99, -0.51)
            a = rng.uniform(0.3, 2.0)
            x = a * rng.uniform(1.05, 8.0)
            s = complex(rng.uniform(-0.95, -0.06), rng.uniform(-6.0, 6.0))
            if abs(s) < 0.06:
                continue
            p = KernelParams(nu, a)
            v1 = F_nu_closed(p, x, np.conj(s)).total
            v2 = np.conj(F_nu_closed(p, x, s).total)
            assert rel_err(v1, v2) <= 1e-12

    def test_term_swap_shares_hypergeometric(self):
        # terms 1 and 3 use the same 2F1 up to swapping the upper parameters
        nu, a, x, s = -0.75, 1.0, 2.0, complex(-0.4, 1.3)
        z = (a / x) ** 2
        h1 = sf.gauss_2f1(1 - s / 2, 1 + nu - s / 2, 2 + nu, z)
        h3 = sf.gauss_2f1(1 + nu - s / 2, 1 - s / 2, 2 + nu, z)
        assert rel_err(h1, h3) <= 1e-12

    def test_term2_vanishes_at_gamma_zero(self):
        # s = -2(1+nu): 1/Gamma(1+nu+s/2) = 1/Gamma(0) = 0
        b = F_nu_closed(P75, 2.0, -0.5)
        assert b.term2 == 0.0
        assert not b.cancellation_suspect

    def test_breakdown_total(self):
        b = F_nu_closed(P75, 3.0, complex(-0.3, 0.8))
        assert b.total == b.term1 + b.term2 + b.term3

    def test_strip_edges_finite(self):
        # approaching both strip edges along Im s = 1 stays finite
        for mu in (-0.999, -0.06):
            val = F_nu_closed(P75, 2.0, complex(mu, 1.0)).total
            assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_pole_and_strip_errors(self):
        with pytest.raises(PoleProximityError):
            F_nu_closed(P75, 2.0, complex(-0.01, 0.0))
        with pytest.raises(StripError):
            F_nu_closed(P75, 2.0, complex(0.2, 0.0))
        with pytest.raises(StripError):
            F_nu_closed(P75, 2.0, complex(-1.2, 0.0))
        with pytest.raises(DomainError):
            F_nu_closed(P75, 0.9, -0.5)
        with pytest.raises(DomainError):
            F_nu_closed(KernelParams(-0.3, 1.0), 2.0, -0.5)

    def test_batch_matches_scalar(self):
        xs = np.array([1.3, 2.0, 5.5, 40.0])
        s = complex(-0.6, -2.2)
        batch = F_nu_closed_batch(P75, xs, s)
        for x, v in zip(xs, batch):
            assert rel_err(v, F_nu_closed(P75, x, s).total) <= 1e-13

    def test_matrix_matches_scalar(self):
        svals = np.array([-0.875 + 0.0j, -0.875 + 3.5j, -0.875 - 11.0j])
        xs = np.array([1.05, 2.0, 17.0, 300.0])
        mat = fnu_matrix(P75, svals, xs)
        for i, s in enumerate(svals):
            for j, x in enumerate(xs):
                assert rel_err(mat[i, j], F_nu_closed(P75, x, s).total) <= 5e-11

    def test_node_memo_keys_on_the_parameters(self, monkeypatch):
        # the node side is kept for the last (nu, a, nodes): the same nodes
        # under another a or nu must not reuse it
        svals = -0.8 + 1j * np.linspace(-16.0, 16.0, 33)
        xs = np.array([1.6, 2.5, 4.0])
        for params in (P75, KernelParams(-0.75, 1.5), KernelParams(-0.6, 1.5), P75):
            got = fnu_matrix(params, svals, xs)
            monkeypatch.setattr(closedform, "_node_memo", None)
            assert np.array_equal(got, fnu_matrix(params, svals, xs))

    def test_node_memo_under_threads(self):
        # threads on one node set with two (nu, a) evict each other's memo
        # entry, and two of them share each plan while its rows grow, its
        # connection part is built and new ladder steps get their term counts
        # and stacked rows on both routes, for the value and the derivative;
        # every result must be the lone thread's
        import sys
        import threading
        svals = -0.8 + 1j * np.linspace(-16.0, 16.0, 65)
        xs_list = [np.array([1.6, 2.5]), np.array([1.01, 1.2, 9.0]),
                   np.array([1.05, 3.0]), np.array([1.3, 1.1])]
        params = [P75, KernelParams(-0.6, 0.9)]
        fns = (fnu_matrix, fnu_dx_matrix)
        want = {(i, j, k): fn(p, svals, xs) for i, p in enumerate(params)
                for j, xs in enumerate(xs_list) for k, fn in enumerate(fns)}
        bad = []

        def work(i):
            for _ in range(6):
                for j, xs in enumerate(xs_list):
                    for k, fn in enumerate(fns):
                        try:
                            if not np.array_equal(fn(params[i % 2], svals, xs), want[i % 2, j, k]):
                                bad.append((i, j, k))
                        except Exception as err:  # a thread's exception fails the test too
                            bad.append((i, j, k, repr(err)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad

    def test_seen_ladder_step_replays_nothing(self, monkeypatch):
        # a second batch whose largest z (direct route) and largest 1 - z
        # (connection route) fall on the steps of the first takes the kept
        # term counts and stacked rows: no replay of the stop rule
        svals = -0.8 + 1j * np.linspace(-16.0, 16.0, 65)
        first, second = np.array([1.2, 1.02, 5.0]), np.array([1.21, 1.03, 2.0])
        assert len({(sf._ladder_step(xs[0] ** -2)[0], sf._ladder_step(1 - xs[1] ** -2)[0])
                    for xs in (first, second)}) == 1
        monkeypatch.setattr(closedform, "_node_memo", None)
        fnu_matrix(P75, svals, first)
        value = closedform._node_side(P75, svals)[0]
        kept = dict(value._stacked)
        replays = []
        monkeypatch.setattr(sf._SeriesRows, "replay", lambda *args: replays.append(args))
        got = fnu_matrix(P75, svals, second)
        assert not replays and value._stacked == kept
        monkeypatch.undo()
        monkeypatch.setattr(closedform, "_node_memo", None)
        assert np.array_equal(got, fnu_matrix(P75, svals, second))

    def test_non_finite_abscissa(self, monkeypatch):
        # NaN and inf abscissas are rejected before the node side is built
        monkeypatch.setattr(closedform, "_node_memo", None)
        svals = -0.8 + 1j * np.linspace(-16.0, 16.0, 65)
        for fn in (fnu_matrix, fnu_dx_matrix):
            for bad in (np.nan, np.inf):
                with pytest.raises(DomainError):
                    fn(P75, svals, [2.0, bad])
        assert closedform._node_memo is None

    def test_derivative_plans_kept_across_batches(self, monkeypatch):
        # the node side keeps the derivative's shifted plans: batch after
        # batch (rows grown by a larger z, the connection part built by the
        # first z past 0.75) must equal a fresh node side, bitwise
        svals = -0.8 + 1j * np.linspace(-16.0, 16.0, 33)
        monkeypatch.setattr(closedform, "_node_memo", None)
        for xs in (np.array([8.0, 20.0]), np.array([1.6, 3.0]),
                   np.array([1.02, 1.1, 2.0]), np.array([5.0, 1.3])):
            got = fnu_dx_matrix(P75, svals, xs)
            kept = closedform._node_memo
            monkeypatch.setattr(closedform, "_node_memo", None)
            assert np.array_equal(got, fnu_dx_matrix(P75, svals, xs))
            monkeypatch.setattr(closedform, "_node_memo", kept)

    def test_matrix_against_frozen_grid(self):
        # mpmath's closed form and x-derivative on default-contour nodes:
        # 1e-12 relative where |Im s| <= 8 and 1 - z >= 1e-3; 5e-9 where the
        # direct series cancels (|Im s| up to 16 near z = 0.75) and where the
        # rounding of z = a^2/x^2 carries into (1 - z)^s near x = a
        grid = _frozen.CLOSED_FORM_GRID
        for nu, a in sorted({entry[:2] for entry in grid}):
            entries = [e for e in grid if e[:2] == (nu, a)]
            svals = np.array(sorted({e[3] for e in entries}, key=lambda s: s.imag))
            xs = np.array(sorted({e[2] for e in entries}))
            p = KernelParams(nu, a)
            value, dx = fnu_matrix(p, svals, xs), fnu_dx_matrix(p, svals, xs)
            for _, _, x, s, f, df in entries:
                i, j = int(np.flatnonzero(svals == s)[0]), int(np.flatnonzero(xs == x)[0])
                tight = abs(s.imag) <= 8.0 and 1.0 - (a / x) ** 2 >= 1e-3
                bound = 1e-12 if tight else 5e-9
                assert rel_err(value[i, j], f) <= bound, (nu, a, x, s)
                assert rel_err(dx[i, j], df) <= bound, (nu, a, x, s)

    def test_derivative_matches_finite_difference(self):
        xs = np.array([1.7, 2.4, 6.0])
        svals = np.array([-0.45 + 0.8j, -0.875 - 3.0j, -0.2 + 6.5j])
        d_an = fnu_dx_matrix(P75, svals, xs)
        h = 1e-5
        d_fd = (fnu_matrix(P75, svals, xs + h)
                - fnu_matrix(P75, svals, xs - h)) / (2 * h)
        assert np.max(np.abs(d_an - d_fd) / np.abs(d_an)) <= 1e-8


class TestBound:
    def test_power_law_ratio(self):
        # mu < nu < 0: the envelope decays in x with exponent mu - nu
        s = complex(-0.9, 2.0)
        r = F_nu_bound(P75, 4.0, s) / F_nu_bound(P75, 2.0, s)
        assert rel_err(r, 2.0 ** (s.real - P75.nu)) <= 1e-12

    def test_conjugate_invariance(self):
        s = complex(-0.4, 3.0)
        assert F_nu_bound(P75, 2.0, s) == F_nu_bound(P75, 2.0, np.conj(s))

    def test_calibrate_then_hold_out(self):
        probe_fx = np.geomspace(1.1, 8.0, 9)
        mus = (-0.85, -0.6, -0.35, -0.15)
        ts = (0.0, 1.0, -2.5, 4.0, -6.0)
        c_cal = calibrate_bound_constant(P75, probe_fx, mus, ts)
        assert c_cal > 0.0
        holdout_fx = np.geomspace(1.2, 7.0, 5)
        for fx in holdout_fx:
            for mu in (-0.7, -0.25):
                for t in (0.5, -3.0, 5.0):
                    s = complex(mu, t)
                    val = abs(F_nu_closed(P75, P75.a * fx, s).total)
                    env = F_nu_bound(P75, P75.a * fx, s)
                    assert val <= 1.05 * c_cal * env


class TestHypEstimates:
    def test_admissibility(self):
        # estimate 3's Euler route fails when Re s <= -2(1+nu)
        p95 = KernelParams(-0.95, 1.0)
        assert not hyp_estimate_admissible(p95, complex(-0.8, 0.0), 3)
        assert hyp_estimate_admissible(p95, complex(-0.0599, 0.0), 3)
        assert hyp_estimate_admissible(P75, complex(-0.45, 1.0), 3)
        for which in (1, 2):
            assert hyp_estimate_admissible(P75, complex(-0.8, 2.0), which)

    def test_calibrate_then_hold_out(self):
        probe_fx = np.geomspace(1.02, 10.0, 12)
        mus = (-0.85, -0.6, -0.35, -0.12)
        ts = (0.0, 1.5, -4.0)
        for which in (1, 2, 3):
            c_cal = calibrate_hyp_constant(P75, which, probe_fx, mus, ts)
            for fx in (1.05, 1.4, 3.0, 7.0):
                for mu in (-0.7, -0.2):
                    for t in (0.7, -2.0):
                        s = complex(mu, t)
                        if not hyp_estimate_admissible(P75, s, which):
                            continue
                        assert hyp_estimate_check(P75, P75.a * fx, s, which,
                                                  1.05 * c_cal), (which, fx, s)

    def test_trivial_at_large_x(self):
        # z -> 0: 2F1 -> 1 while the calibrated right side stays level (the
        # x-powers of all three envelopes cancel asymptotically, leaving the
        # gamma ratios); with the probe-grid constant the check is immediate
        s = complex(-0.45, 1.0)
        probe_fx = np.geomspace(1.05, 12.0, 8)
        for which in (1, 2, 3):
            c_cal = calibrate_hyp_constant(P75, which, probe_fx,
                                           (-0.45,), (0.0, 1.0))
            assert hyp_estimate_check(P75, 50.0, s, which, c_cal)
            assert hyp_estimate_check(P75, 200.0, s, which, c_cal)

    def test_envelope_matches_spelled_out_forms(self):
        # the Euler-integral envelope against its three spelled-out forms
        def spelled_out(p, x, s, which):
            nu, mu = p.nu, s.real
            d2 = x * x - p.a * p.a
            if which == 1:
                gam = abs(sf.gamma(2 + nu) * sf.rgamma(1 + nu - s / 2)
                          * sf.rgamma(1 + s / 2))
                return x ** (2.0 - mu) * d2 ** (0.5 * mu - 1.0) * gam
            if which == 2:
                gam = abs(sf.gamma(-nu) * sf.rgamma(-s / 2)
                          * sf.rgamma(-nu + s / 2))
                return x ** (-2.0 * nu - mu) * d2 ** (nu + 0.5 * mu) * gam
            gam = abs(sf.gamma(2 + nu) * sf.rgamma(1 - s / 2)
                      * sf.rgamma(1 + nu + s / 2))
            return x ** (2.0 * (1.0 + nu) - mu) * d2 ** (0.5 * mu - 1.0 - nu) * gam

        for p in (P75, KernelParams(-0.95, 0.5), KernelParams(-0.55, 2.0)):
            for fx in (1.001, 1.01, 1.3, 4.0, 50.0):
                for s in (complex(-0.5, 0.0), complex(-0.9, 2.5),
                          complex(-0.15, -7.0), complex(-0.6, 0.3)):
                    for which in (1, 2, 3):
                        x = p.a * fx
                        got = hyp_estimate_envelope(p, x, s, which)
                        want = spelled_out(p, x, s, which)
                        assert rel_err(got, want) <= 1e-11, (p, fx, s, which)

    def test_envelope_blowup_exponent(self):
        # log-log slope of the envelope in (x^2 - a^2) as x -> a+, at fixed
        # x-power factor: which=1 must fit Re s/2 - 1 within +-0.05
        s = complex(-0.5, 0.0)
        xs = P75.a * (1.0 + np.geomspace(1e-4, 1e-2, 9))
        d2 = xs ** 2 - P75.a ** 2
        env = np.array([hyp_estimate_envelope(P75, x, s, 1) for x in xs])
        slope = np.polyfit(np.log(d2), np.log(env), 1)[0]
        assert abs(slope - (s.real / 2 - 1.0)) <= 0.05

    def test_true_growth_milder_than_envelope(self):
        # the actual 2F1 grows like (x^2-a^2)^{Re s} - strictly milder than
        # the envelope's Re s/2 - 1; the bound therefore gains margin as x->a
        s = complex(-0.5, 0.0)
        xs = P75.a * (1.0 + np.geomspace(1e-4, 1e-2, 9))
        d2 = xs ** 2 - P75.a ** 2
        vals = np.array([abs(hyp_term_value(P75, x, s, 1)) for x in xs])
        slope = np.polyfit(np.log(d2), np.log(vals), 1)[0]
        assert abs(slope - s.real) <= 0.05
        assert slope > s.real / 2 - 1.0


class TestOracleSweep:
    def test_small_grid(self):
        # a light version of the acceptance sweep (full grid in
        # test_acceptance); exercises complex s and both a < 1 and a > 1
        cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
        for (nu, a) in ((-0.95, 0.5), (-0.55, 2.0)):
            p = KernelParams(nu, a)
            for fx in (1.5, 5.0):
                for s in (complex(-0.8, 0.0), complex(-0.2, 1.0),
                          complex(-0.5, -5.0)):
                    closed = F_nu_closed(p, a * fx, s).total
                    orc = F_nu_oracle(p, a * fx, s, cfg)
                    rel = abs(closed - complex(orc.value)) / max(abs(closed), 1e-8)
                    assert rel <= 1e-6, (nu, a, fx, s, rel)

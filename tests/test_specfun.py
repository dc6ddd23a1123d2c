import math

import numpy as np
import pytest

import _frozen
from conftest import rel_err
from weberorr import specfun as sf
from weberorr.errors import (ConvergenceError, DomainError,
                             PoleProximityError)


class TestBesselGolden:
    def test_j0_at_origin_limit(self):
        assert abs(sf.bessel_j(0.0, 1e-30) - 1.0) <= 1e-12

    def test_half_order_j_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x at x = pi/2
        assert rel_err(sf.bessel_j(0.5, math.pi / 2), 2.0 / math.pi) <= 1e-12

    def test_half_order_y_zero(self):
        # Y_{1/2}(x) = -sqrt(2/(pi x)) cos x vanishes at pi/2
        assert abs(sf.bessel_y(0.5, math.pi / 2)) <= 1e-12

    def test_pinned_values(self):
        assert rel_err(sf.bessel_j(-0.75, 1.0), _frozen.BESSEL_J_M075_X1) <= 1e-12
        assert rel_err(sf.bessel_y(-0.75, 1.0), _frozen.BESSEL_Y_M075_X1) <= 1e-12
        assert rel_err(sf.bessel_y(-0.75, 2.0), _frozen.BESSEL_Y_M075_X2) <= 1e-12


class TestBesselConformance:
    def test_grid_against_oracle(self):
        # relative to max(|value|, 0.05 * oscillatory envelope): the plain
        # relative error is unbounded at the functions' zeros
        for nu, x, j_ref, y_ref in _frozen.BESSEL_JY:
            env = math.sqrt(2.0 / (math.pi * x)) if x >= max(abs(nu), 2.0) else 0.0
            j = sf.bessel_j(nu, x)
            scale = max(abs(j_ref), 0.05 * env, 1e-290)
            assert abs(j - j_ref) / scale <= 1e-12, (nu, x, "J")
            if abs(nu - round(nu)) < 1e-8 and x <= 16.0:
                continue
            y = sf.bessel_y(nu, x)
            scale = max(abs(y_ref), 0.05 * env, 1e-290)
            assert abs(y - y_ref) / scale <= 1e-12, (nu, x, "Y")

    def test_middle_band_against_mpmath(self):
        # 16 < x < 0.85 nu^2: Y from the large-argument expansion recurred
        # upward, J from CF1 and the Wronskian; the frozen grid's scaled bound
        import mpmath as mp
        rng = np.random.default_rng(1701)
        orders = list(rng.uniform(4.35, 50.0, 56) * rng.choice([-1.0, 1.0], 56))
        orders += [7.0, -12.0, 9.5, -30.5]
        for nu in orders:
            x = rng.uniform(16.001, 0.999 * 0.85 * nu * nu)
            env = math.sqrt(2.0 / (math.pi * x)) if x >= abs(nu) else 0.0
            j, y = sf.bessel_jy(nu, x)
            for got, ref in ((j, mp.besselj(nu, x)), (y, mp.bessely(nu, x))):
                scale = max(abs(float(ref)), 0.05 * env, 1e-290)
                assert abs(got - float(ref)) / scale <= 1e-12, (nu, x)

    def test_mixed_branch_batch_matches_pointwise(self):
        # one array across the series, middle and large-argument branches
        rng = np.random.default_rng(3)
        for nu in (20.3, -20.3, -14.5):
            x = rng.permutation(np.concatenate([
                rng.uniform(0.5, 16.0, 7), rng.uniform(16.5, 330.0, 7),
                rng.uniform(360.0, 900.0, 7)]))
            j, y = sf.bessel_jy(nu, x)
            for i, xi in enumerate(x):
                assert (j[i], y[i]) == sf.bessel_jy(nu, float(xi)), (nu, xi)

    @staticmethod
    def _hankel_loop(nu, x):
        """J and Y of the large-argument expansion (DLMF 10.17.3) point by
        point: t_m = t_{m-1} (4 nu^2 - (2m-1)^2) / (8 m x) from t_0 = 1 is
        added while |t_m| < |t_{m-1}|, the even terms to P and the odd ones
        to Q, with signs + + - - from m = 0."""
        out = []
        for xi in x:
            t, p, q = 1.0, 1.0, 0.0
            for m in range(1, 80):
                t_new = t * ((4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m)) / xi
                if abs(t_new) >= abs(t):
                    break
                t = t_new
                sign = -1.0 if (m // 2) % 2 else 1.0
                if m % 2:
                    q += sign * t
                else:
                    p += sign * t
            x_ld = sf._LD(xi)
            omega = x_ld - sf._LD(nu / 2.0 + 0.25) * sf._PI_LD
            pref = np.sqrt(sf._LD(2.0) / (sf._PI_LD * x_ld))
            cw, sw = np.cos(omega), np.sin(omega)
            out.append((float(pref * (cw * p - sw * q)), float(pref * (sw * p + cw * q))))
        return np.array(out).T

    def test_hankel_sums_match_the_term_loop(self):
        # every term vanishes at nu = +-1/2; x just above 16; the largest
        # orders from the branch's edge x = 0.85 nu^2 up
        cases = [(0.5, [16.0, 30.0, 2500.0]), (-0.5, [16.5, 700.0]),
                 (-0.95, [np.nextafter(16.0, 17.0), 16.001, 17.0, 5e4]),
                 (0.25, [np.nextafter(16.0, 17.0), 40.0, 1e3]),
                 (4.3, [16.0, 20.0])]
        cases += [(nu, 0.85 * nu * nu * np.array([1.0, 1.01, 1.5, 4.0, 40.0]))
                  for nu in (49.6, -49.6, 20.3)]
        for nu, x in cases:
            x = np.asarray(x, dtype=np.float64)
            assert np.all(x >= sf._hankel_xmin(nu))
            got = np.array(sf.bessel_jy(nu, x))
            want = self._hankel_loop(nu, x)
            env = np.sqrt(2.0 / (np.pi * x))
            assert np.all(np.abs(got - want) <= 1e-15 * env), nu

    def test_hankel_batch_across_chunks(self):
        # a batch longer than one block of the P/Q sums equals its pieces
        step = sf._CHUNK_CELLS // sf._HANKEL_TERMS
        x = np.random.default_rng(5).uniform(16.0, 5e4, 2 * step + 7)
        j, y = sf.bessel_jy(0.25, x)
        for lo, hi in ((0, 5), (5, step + 3), (step + 3, len(x))):
            jp, yp = sf.bessel_jy(0.25, x[lo:hi])
            assert np.array_equal(j[lo:hi], jp) and np.array_equal(y[lo:hi], yp)

    def test_wronskian(self):
        # J_{nu+1} Y_nu - J_nu Y_{nu+1} = 2/(pi z)
        for nu in (-0.95, -0.75, -0.55):
            for z in (0.5, 1.0, 5.0, 20.0):
                j0, y0 = sf.bessel_jy(nu, z)
                j1, y1 = sf.bessel_jy(nu + 1.0, z)
                w = j1 * y0 - j0 * y1
                assert rel_err(w, 2.0 / (math.pi * z)) <= 1e-10

    def test_reality(self):
        for nu in (-0.75, 0.25):
            j = sf.bessel_j(nu, np.array([0.5, 3.0, 40.0]))
            assert j.dtype == np.float64

    def test_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_j(-0.75, 0.0)
        with pytest.raises(DomainError):
            sf.bessel_j(-0.75, -1.0)
        with pytest.raises(DomainError):
            sf.bessel_j(51.0, 1.0)
        for nu in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                sf.bessel_jy(nu, 1.0)
        with pytest.raises(DomainError):
            sf.bessel_y(3.0, 1.0)  # integer order, series region
        with pytest.raises(DomainError):
            sf.bessel_y(2.0 + 1e-9, 1.0)  # near-integer order

    def test_middle_band_budget(self, monkeypatch):
        # the CF1 loop of the middle band stops at its term budget
        monkeypatch.setattr(sf, "_CF1_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError):
            sf.bessel_j(20.3, 200.0)

    def test_integer_order_j_and_large_x_y(self):
        # J at integer order works everywhere; Y at integer order works
        # outside the series region
        assert math.isfinite(sf.bessel_j(3.0, 1.0))
        assert math.isfinite(sf.bessel_j(-3.0, 1.0))
        assert math.isfinite(sf.bessel_y(2.0, 25.0))


class TestGamma:
    def test_golden(self):
        assert rel_err(sf.gamma(0.5), math.sqrt(math.pi)) <= 1e-13
        assert rel_err(sf.gamma(1.0), 1.0) <= 1e-13

    def test_imaginary_axis_identity(self):
        # |Gamma(i t)|^2 = pi / (t sinh(pi t)) at t = 1
        got = abs(sf.gamma(1j)) ** 2
        assert rel_err(got, math.pi / math.sinh(math.pi)) <= 1e-13

    def test_strip_conformance(self):
        for re_, im_, ref in _frozen.GAMMA_STRIP:
            assert rel_err(sf.gamma(complex(re_, im_)), ref) <= 1e-13

    def test_conjugation(self, rng):
        for _ in range(50):
            s = complex(rng.uniform(-8, 8), rng.uniform(-60, 60))
            if s.real < 0.5 and abs(s.imag) < 0.3:
                continue
            assert rel_err(sf.gamma(np.conj(s)), np.conj(sf.gamma(s))) <= 1e-12

    def test_pole_proximity(self):
        with pytest.raises(PoleProximityError):
            sf.gamma(0.0)
        with pytest.raises(PoleProximityError):
            sf.gamma(-3.0 + 1e-14j)
        # rgamma is entire
        assert sf.rgamma(-3.0) == 0.0
        assert rel_err(sf.rgamma(0.5), 1.0 / math.sqrt(math.pi)) <= 1e-13


class TestBeta:
    def test_golden(self):
        assert rel_err(sf.beta(1.0, 1.0), 1.0) <= 1e-13
        assert rel_err(sf.beta(0.5, 0.5), math.pi) <= 1e-13

    def test_pinned_complex(self):
        assert rel_err(sf.beta(2 + 1j, 3 - 1j), _frozen.BETA_2P1J_3M1J) <= 1e-13

    def test_pole(self):
        with pytest.raises(PoleProximityError):
            sf.beta(0.5, -0.5)  # a + b = 0


class TestHyp2F1:
    def test_b_equals_c_reduction(self):
        a = 0.3 + 0.2j
        got = sf.gauss_2f1(a, 0.7, 0.7, 0.5)
        want = 0.5 ** (-a)
        assert rel_err(got, want) <= 1e-12

    def test_log_reduction(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z
        assert rel_err(sf.gauss_2f1(1, 1, 2, 0.5), 2.0 * math.log(2.0)) <= 1e-12

    def test_z_zero(self):
        assert sf.gauss_2f1(1.3 + 2j, -0.4, 0.9, 0.0) == 1.0

    def test_frozen_samples(self):
        for a, b, c, z, ref in _frozen.HYP2F1_SAMPLES:
            assert rel_err(sf.gauss_2f1(a, b, c, z), ref) <= 1e-10, (a, b, c, z)

    def test_parameter_symmetry(self, rng):
        for _ in range(100):
            a = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            b = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            c = complex(rng.uniform(0.5, 3), rng.uniform(-2, 2))
            z = rng.uniform(0.0, 0.74)
            v1 = sf.gauss_2f1(a, b, c, z)
            v2 = sf.gauss_2f1(b, a, c, z)
            assert rel_err(v1, v2) <= 1e-12

    def test_conjugation(self, rng):
        for _ in range(40):
            a = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            b = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
            c = complex(rng.uniform(0.5, 3), rng.uniform(-2, 2))
            z = rng.uniform(0.0, 0.74)
            v1 = sf.gauss_2f1(np.conj(a), np.conj(b), np.conj(c), z)
            v2 = np.conj(sf.gauss_2f1(a, b, c, z))
            assert rel_err(v1, v2) <= 1e-12

    def test_contiguous_relation(self, rng):
        # c F(a,b;c;z) - c F(a+1,b;c;z) + b z F(a+1,b+1;c+1;z) = 0
        for _ in range(60):
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-2, 2))
            b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-2, 2))
            c = complex(rng.uniform(0.6, 2.5), rng.uniform(-1, 1))
            z = rng.uniform(0.0, 0.7)
            lhs = c * sf.gauss_2f1(a, b, c, z) \
                - c * sf.gauss_2f1(a + 1, b, c, z) \
                + b * z * sf.gauss_2f1(a + 1, b + 1, c + 1, z)
            scale = max(abs(c * sf.gauss_2f1(a, b, c, z)), 1.0)
            assert abs(lhs) / scale <= 1e-9

    def test_euler_integral_crosscheck(self, rng):
        # Re a > 0, Re c > Re b > 0: tanh-sinh quadrature of
        # G(c)/(G(b) G(c-b)) int_0^1 u^{b-1} (1-u)^{c-b-1} (1-zu)^{-a} du
        # (endpoint-singularity-aware; independent of the series path)
        # b, c real keeps the endpoint factors monotone (complex exponents
        # make u^{b-1} log-oscillate at 0, which defeats the quadrature);
        # a stays complex - the Euler conditions only constrain real parts
        import mpmath as mp
        for _ in range(12):
            a = complex(rng.uniform(0.2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(0.3, 1.5), 0.0)
            c = b + complex(rng.uniform(0.4, 1.5), 0.0)
            z = rng.uniform(0.0, 0.8)
            integ = mp.quad(
                lambda u: u ** (mp.mpc(b) - 1) * (1 - u) ** (mp.mpc(c - b) - 1)
                * (1 - z * u) ** (-mp.mpc(a)), [0, 1])
            want = sf.gamma(c) * sf.rgamma(b) * sf.rgamma(c - b) * complex(integ)
            got = sf.gauss_2f1(a, b, c, z)
            assert rel_err(got, want) <= 1e-8

    def test_errors(self):
        with pytest.raises(DomainError):
            sf.gauss_2f1(1, 1, 2, 1.0)
        with pytest.raises(DomainError):
            sf.gauss_2f1(1, 1, 2, -0.1)
        with pytest.raises(PoleProximityError):
            sf.gauss_2f1(1, 1, 0.0, 0.5)
        with pytest.raises(PoleProximityError):
            sf.gauss_2f1(1, 1, -2.0 + 1e-13j, 0.5)
        # both routes guard the c poles, the matrix one row by row
        z = np.array([0.2, 0.9])
        with pytest.raises(PoleProximityError):
            sf.hyp2f1_real_z(0.5, 0.3, -2.0, z)
        with pytest.raises(PoleProximityError):
            sf.hyp2f1_matrix([0.5, 0.5], [0.3, 0.3], [1.5, -2.0], z)
        # near-integer c-a-b with z too close to 1 for the series fallback
        with pytest.raises(ConvergenceError):
            sf.gauss_2f1(0.5, 0.5, 2.0 + 1e-9, 0.97)
        # a NaN abscissa lies outside [0, 1): rejected before any rows grow
        with pytest.raises(DomainError):
            sf.hyp2f1_matrix([0.5, 0.5], [0.3, 0.3], [1.5, 2.5], [0.3, np.nan])
        plan = sf._Hyp2f1Plan([0.5, 0.5], [0.3, 0.3], [1.5, 2.5])
        with pytest.raises(DomainError):
            plan(np.array([0.3, np.nan]))
        assert plan.direct.rows.shape[1] == 1

    def test_non_finite_parameters(self, monkeypatch):
        # rejected before any row grows, one such row among 257 included
        monkeypatch.setattr(sf._SeriesRows, "replay", lambda *args: pytest.fail("grew rows"))
        a = np.full(257, 0.5 + 0.5j)
        for bad in (np.nan, np.inf, complex(0.5, np.nan)):
            with pytest.raises(DomainError):
                sf.gauss_2f1(bad, 1, 2, 0.5)
            with pytest.raises(DomainError):
                sf.gauss_2f1(1, 1, bad, 0.5)
            with pytest.raises(DomainError):
                sf.hyp2f1_matrix(a, np.r_[a[:-1], bad], a + 1.0, [0.3, 0.9])

    @staticmethod
    def _series_loop(a, b, c, z):
        """The direct series term by term: stop after two terms in a row
        under 5e-17 |partial sum| on every row, at the batch's ladder step
        (the smallest 0.75^(1.25^j) at or above max z)."""
        zmax = float(np.max(z))
        if zmax > 0.0:
            j = 0
            while 0.75 ** (1.25 ** (j + 1)) >= zmax:
                j += 1
            while 0.75 ** (1.25 ** j) < zmax:
                j -= 1
            zmax = 0.75 ** (1.25 ** j)
        coeff = np.ones(len(a), dtype=np.complex128)
        rows, probe_sum, zpow, small_runs = [coeff], coeff.copy(), 1.0, 0
        for k in range(sf._HYP_MAX_TERMS):
            coeff = coeff * ((a + k) * (b + k)) / ((c + k) * (k + 1.0))
            rows.append(coeff)
            zpow *= zmax
            probe_sum = probe_sum + coeff * zpow
            small = np.all(np.abs(coeff) * zpow <= 5e-17 * (np.abs(probe_sum) + 1e-300))
            small_runs = small_runs + 1 if small else 0
            if small_runs >= 2:
                break
        rmat = np.stack(rows, axis=1)
        vand = np.vander(z, N=rmat.shape[1], increasing=True).T
        # the real and imaginary rows stacked in one product, as the plan
        # takes them (BLAS may round a taller product differently)
        out = np.concatenate([rmat.real, rmat.imag]) @ vand
        return out[:len(a)] + 1j * out[len(a):]

    def test_series_rows_match_the_term_loop(self):
        # the plan's direct route replays the loop's stop rule at the ladder
        # step, 64 terms a block, and applies the rows it keeps
        s = -0.875 + 1j * np.linspace(-16.0, 16.0, 65)
        rows = (1 - s / 2, 0.25 - s / 2, np.full_like(s, 1.25))
        plan = sf._Hyp2f1Plan(*rows)
        for z in (np.array([0.75, 0.3]), np.array([0.0]), np.array([0.01, 0.2]),
                  np.array([0.7]), np.array([0.69, 0.5])):
            assert np.array_equal(plan(z), self._series_loop(*rows, z))

    def test_ladder_count_covers_the_exact_rule(self):
        # the term count at a batch's ladder step is never below the stop
        # rule replayed at the batch's own largest z, and fewer than 40 steps
        # serve z from 1e-4 up: the closed form's rows on a 257-node contour,
        # direct series on (0, 0.75], connection series on (0, 0.25]
        from weberorr import closedform
        s = -0.875 + 1j * np.linspace(-16.0, 16.0, 257)
        zs = np.geomspace(1e-4, 1.0, 200)
        for f in (1, 2):
            a, b, c = closedform._HYP_PARAM_TRIPLES[f](-0.75, s)
            plan = sf._Hyp2f1Plan(a, b, c)
            _, _, f1, f2 = plan.connection()
            for series, top in ((plan.direct, 0.75), (f1, 0.25), (f2, 0.25)):
                counts = {}
                for zmax in top * zs:
                    j, step = sf._ladder_step(zmax)
                    if j not in counts:
                        counts[j] = series.replay(step)
                    assert counts[j] >= series.replay(zmax), zmax
                assert len(counts) < 40

    def test_plan_reuse_matches_a_fresh_plan(self):
        # the closed form's factor-1 rows on a 16-wide contour: a kept plan
        # grows its rows for a larger z after a smaller one, and builds its
        # connection series the first time a batch passes 0.75; every batch
        # must come out bitwise as a fresh plan gives it
        s = -0.875 + 1j * np.linspace(-16.0, 16.0, 65)
        rows = (1 - s / 2, 0.25 - s / 2, np.full_like(s, 1.25))
        small, large, high = np.array([0.02, 0.1]), np.array([0.3, 0.75]), np.array([0.5, 0.9])
        plan = sf._Hyp2f1Plan(*rows)
        widths = []
        for i, z in enumerate((small, large, high, small)):
            assert np.array_equal(plan(z), sf._Hyp2f1Plan(*rows)(z))
            widths.append(plan.direct.rows.shape[1])
            assert (plan._connection is None) == (i < 2)
        assert widths[1] > widths[0]
        plan = sf._Hyp2f1Plan(*rows)
        for z in (high, small, large):
            assert np.array_equal(plan(z), sf._Hyp2f1Plan(*rows)(z))
            assert plan._connection is not None

    def test_rows_end_one_block_past_the_largest_count(self):
        # the closed form's node side on 257 nodes after batches on the
        # direct route up to its z = 0.75 step and past it on the connection
        from weberorr import closedform
        from weberorr.kernels import KernelParams
        closedform._node_side.cache_clear()
        params = KernelParams(-0.75, 1.0)
        s = -0.875 + 1j * np.linspace(-16.0, 16.0, 257)
        for xs in (np.array([4.0, 9.0]), np.array([1.16, 2.0]), np.array([1.01, 1.3])):
            closedform.fnu_matrix(params, s, xs)
            closedform.fnu_dx_matrix(params, s, xs)
        # the largest count each series was read at, over both sums' routes
        largest = {}
        for total in closedform._node_side(params, s.tobytes()):
            assert ("direct", sf._ladder_step(0.75)[0]) in total._stacked
            for (route, _), (_, counts) in total._stacked.items():
                for plan, count in zip(total.plans, counts):
                    series = (plan.direct if route == "direct"
                              else plan.connection()[2 if route == "regular" else 3])
                    largest[series] = max(largest.get(series, 0), count)
        assert len(largest) == 12  # the three series of each of the four plans
        for series, count in largest.items():
            assert series.rows.shape[1] <= count + 64, (series.rows.shape[1], count)

    def test_term_budget(self, monkeypatch):
        # 2F1(1, 1; 2; 0.7) needs about 100 terms to reach 5e-17
        z = np.array([0.1, 0.7])
        want = sf.hyp2f1_matrix([1.0, 0.5], [1.0, 0.5], [2.0, 2.5], z)
        monkeypatch.setattr(sf, "_HYP_MAX_TERMS", 20)
        with pytest.raises(ConvergenceError):
            sf.gauss_2f1(1, 1, 2, 0.7)
        with pytest.raises(ConvergenceError):
            sf.hyp2f1_matrix([1.0, 0.5], [1.0, 0.5], [2.0, 2.5], z)
        monkeypatch.setattr(sf, "_HYP_MAX_TERMS", 400)
        assert np.array_equal(sf.hyp2f1_matrix([1.0, 0.5], [1.0, 0.5], [2.0, 2.5], z), want)

    def test_near_integer_fallback_series(self):
        # c-a-b exactly 1: the connection formula is inadmissible but the
        # direct series still converges for z <= 0.95
        got = sf.gauss_2f1(0.5, 0.5, 2.0, 0.9)
        import mpmath as mp
        ref = complex(mp.hyp2f1(0.5, 0.5, 2.0, 0.9))
        assert rel_err(got, ref) <= 1e-10

    def test_matrix_matches_scalar_on_near_integer_fallback(self):
        # c-a-b within 1e-3 of an integer and z in (0.75, 0.95]: the matrix
        # form takes the direct series past 0.75 for every row once any row
        # is near-integer (the last one is not); mpmath row by row
        import mpmath as mp
        a = np.array([0.5, 0.3 + 0.7j, -0.4 + 1.2j, 1.1 - 0.5j, 0.2 + 0.1j])
        b = np.array([0.5, 0.9 - 0.2j, 0.25 + 0.3j, -0.6 + 0.8j, 0.7])
        c = a + b + np.array([1, 2 + 4e-4, -7e-4 + 2e-4j, -1 + 9e-4j, 0.55 + 0.2j])
        z = np.array([0.3, 0.76, 0.85, 0.9, 0.95])
        mat = sf.hyp2f1_matrix(a, b, c, z)
        for i in range(len(a)):
            row = np.array([complex(mp.hyp2f1(a[i], b[i], c[i], zj)) for zj in z])
            assert np.max(np.abs(mat[i] - row) / np.abs(row)) <= 1e-12, i

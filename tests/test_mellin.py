import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conftest import rel_err
from weberorr import mellin
from weberorr import specfun as sf
from weberorr.errors import DivergenceError, DomainError, MembershipError
from weberorr.mellin import (ContourSpec, MellinRepresentation, class_norm,
                             contour_integral, mellin_forward, mellin_inverse,
                             mellin_inverse_profile, parseval_check)
from weberorr.quadrature import QuadratureConfig

CFG = QuadratureConfig()


def gamma_symbol(s):
    return sf.gamma_array(s)


def beta_pair_symbol(p, q):
    def phi(s):
        s = np.asarray(s, dtype=np.complex128)
        return sf.gamma_array(s + p) * sf.gamma_array(q - s)
    return phi


class TestContourSpec:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ContourSpec(0.5, t_max=0.0)
        with pytest.raises(DomainError):
            ContourSpec(0.5, n_panels=4)
        with pytest.raises(DomainError):
            ContourSpec(math.inf)

    def test_non_finite_t_max(self):
        for t_max in (math.inf, math.nan):
            with pytest.raises(DomainError):
                ContourSpec(0.5, t_max, 8)


class TestForward:
    def test_gamma_values(self):
        out = mellin_forward(lambda x: np.exp(-x), 2.0, CFG)
        assert abs(complex(out.value) - 1.0) <= 1e-8
        out = mellin_forward(lambda x: np.exp(-x), 0.5, CFG)
        assert abs(complex(out.value) - math.sqrt(math.pi)) <= 1e-8

    def test_beta_identity(self):
        # int x^{s+1} (1+x)^{-3} dx at s = 0.5 equals B(2.5, 0.5)
        out = mellin_forward(lambda x: x ** 2 * (1 + x) ** -3.0, 0.5, CFG)
        want = complex(sf.beta(2.5, 0.5))
        assert rel_err(out.value, want) <= 1e-8

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            mellin_forward(lambda x: 1.0 / (1.0 + x), 2.0, CFG)

    def test_anchored_grid_reaches_gamma_to_rounding(self):
        # the log-axis nodes u = k h are exact in binary, so no rounding of u
        # enters x = e^u or e^{su}; the sum is then as good as its terms
        for t in np.linspace(-24.0, 24.0, 49):
            s = complex(0.5, t)
            out = mellin_forward(lambda x: np.exp(-x), s, CFG)
            assert abs(complex(out.value) - complex(mp.gamma(s))) <= 2e-15, t

    @pytest.mark.parametrize("name", ["gamma", "gamma_moment", "beta"])
    def test_estimate_covers_true_error(self, name):
        # the stable form of x^2 (1+x)^-3: x^2 overflows where the slowly
        # decaying Re s = 0.95 windows reach (x ~ 1e154)
        f, exact, strip_lo = {
            "gamma": (lambda x: np.exp(-x), mp.gamma, 0.0),
            "gamma_moment": (lambda x: x * np.exp(-x), lambda s: mp.gamma(s + 1), -1.0),
            "beta": (lambda x: (x / (1.0 + x)) ** 2 / (1.0 + x),
                     lambda s: mp.gamma(s + 2) * mp.gamma(1 - s) / 2, -2.0),
        }[name]
        t = np.linspace(-24.0, 24.0, 33)
        for re in (-1.0, 0.2, 0.5, 0.9, 0.95):
            s = re + 1j * t
            if re <= strip_lo:
                with pytest.raises(DivergenceError):
                    mellin._log_axis_transform(f, s, CFG)
                continue
            value, err, conv = mellin._log_axis_transform(f, s, CFG)
            true = np.abs(value - np.array([complex(exact(z)) for z in s]))
            assert np.all((err >= true) | ~conv), (re, true, err)
            if name == "beta" and re == 0.95:
                # decays like e^{-0.05 u}: the axis reaches its cap unsettled
                assert not conv.any() and err.max() >= true.max()

    def test_overflow_beyond_the_noise_floor_ends_the_axis(self):
        # at Re s = 0.8 the naive x^2 (1+x)^-3 decays like e^{-0.2 u} and is
        # under tol / 10 from u = 128; past u = 355 x^2 overflows.  The axis
        # ends at 128 and the window maxima's decay fit bounds what is left
        with np.errstate(over="ignore", invalid="ignore"):
            out = mellin_forward(lambda x: x ** 2 * (1 + x) ** -3.0, 0.8, CFG)
            with pytest.raises(DomainError):  # at 0.9 the window before 355 is not
                mellin_forward(lambda x: x ** 2 * (1 + x) ** -3.0, 0.9, CFG)
        true = abs(complex(out.value) - complex(mp.gamma(2.8) * mp.gamma(0.2) / 2))
        assert out.converged and true <= out.abs_error_estimate <= CFG.abs_tol

    def test_step_resolves_the_row_before_it_stops(self):
        # at Im s = 48 the steps 1/4 and 1/8 alias to the same wrong value
        # (Gamma(1/2 - 2.3i) ~ 0.07), so their increment alone would stop there
        s = 0.5 + 1j * np.array([48.0, -48.0, 60.0])
        value, err, conv = mellin._log_axis_transform(lambda x: np.exp(-x), s, CFG)
        assert conv.all() and np.abs(value).max() <= 1e-15 and err.max() <= 1e-12

    def test_slow_decay_has_bounded_budget(self):
        # 1/(1+x) at Re s = 0.99 decays like e^{-0.01 u}: no window reaches
        # the cut before |u| = 512, so the rule stops there unsettled, without
        # sampling x = 0 or inf, and the exp(outer(s, u)) blocks stay chunked
        xs = []

        def f(x):
            xs.append(x.copy())
            return 1.0 / (1.0 + x)

        s = 0.99 + 1j * np.linspace(-24.0, 24.0, 200)
        tracemalloc.start()
        try:
            value, err, conv = mellin._log_axis_transform(f, s, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not conv.any()
        assert np.all(np.isfinite(value)) and np.all(err > CFG.abs_tol)
        x = np.concatenate(xs)
        assert np.all(x > 0.0) and np.all(np.isfinite(x))
        assert np.log(x).max() == 512.0
        # one block and its outer product, plus the node arrays; unchunked,
        # the finest level alone would take s.size * x.size / 2 cells
        bound = 2 * 16 * mellin._CHUNK_CELLS + 64 * x.size
        assert peak <= bound < 16 * s.size * x.size / 2, (peak, bound)

    def test_nan_rejected(self):
        def bad(x):
            x = np.asarray(x)
            return np.where(x > 5.0, np.nan, np.exp(-x))
        with pytest.raises(DomainError):
            mellin_forward(bad, 2.0, CFG)

    def test_non_finite_s_rejected(self):
        # checked before f is called
        def f(x):
            raise AssertionError("f called")
        for s in (math.nan, complex(0.5, math.inf)):
            with pytest.raises(DomainError):
                mellin_forward(f, s, CFG)


class TestContourRule:
    def test_nested_rule_evaluates_each_node_once(self):
        # (1/2 pi i) int G(s) ds on Re s = 1/2 is e^{-1}; G(conj s) = conj G(s),
        # so level 0 takes the whole line, each halving of the step adds only
        # the new odd nodes with t > 0, and three probes at t > 0 bound the tail
        spec = ContourSpec(0.5, 24.0, 16)
        batches = []

        def fn(svals):
            batches.append(svals.imag.copy())
            return sf.gamma_array(svals)

        out = contour_integral(fn, spec, 1e-11, 1e-10)
        assert out.converged and out.diagnostic("symmetric") == 1.0
        assert complex(out.value).imag == 0.0
        assert abs(complex(out.value) - math.exp(-1.0)) <= 1e-11
        refine = int(out.diagnostic("refine"))
        level0, halvings, probes = batches[0], batches[1:-1], batches[-1]
        assert np.allclose(level0, np.linspace(-spec.t_max, spec.t_max, 4 * spec.n_panels + 1))
        assert len(halvings) == int(math.log2(refine))
        new = np.concatenate(halvings)
        assert np.all(new > 0.0)
        nodes = np.concatenate([level0, new])
        assert np.unique(nodes).size == nodes.size
        upper = np.sort(nodes[nodes >= 0.0])
        assert upper.size == 2 * spec.n_panels * refine + 1
        step = spec.t_max / (2 * spec.n_panels * refine)
        assert np.allclose(upper, np.arange(0.0, spec.t_max + step / 2, step))
        assert probes.size == 3 and np.all(probes >= spec.t_max)

    def test_asymmetric_integrand_takes_the_full_line(self):
        # (1/2 pi i) int G(s) z^{-s} ds = e^{-z}; at z = e^{0.3 i} the integrand
        # is not conjugate symmetric, so every halving and the tail probes take
        # both halves.  In a batch, one asymmetric column is enough.
        spec = ContourSpec(0.5, 30.0, 16)
        z = complex(math.cos(0.3), math.sin(0.3))
        batches = []

        def fn(svals):
            batches.append(svals.imag.copy())
            g = sf.gamma_array(svals)
            return np.stack([g, g * np.exp(-0.3j * svals)], axis=1)

        out = contour_integral(fn, spec, 1e-12, 1e-11)
        assert out.converged and out.diagnostic("symmetric") == 0.0
        assert abs(out.value[0] - math.exp(-1.0)) <= 1e-11
        assert abs(out.value[1] - np.exp(-z)) <= 1e-11
        assert all(np.any(b < 0.0) for b in batches[:-2])
        assert np.all(batches[-2] > 0.0) and np.all(batches[-1] < 0.0)
        assert [b.size for b in batches[-2:]] == [3, 3]
        alone = contour_integral(lambda s: fn(s)[:, 1], spec, 1e-12, 1e-11)
        assert alone.diagnostic("symmetric") == 0.0
        assert abs(complex(alone.value) - np.exp(-z)) <= 1e-11


class TestInverse:
    def test_gamma_exponential_pair(self):
        rep = MellinRepresentation(gamma_symbol, ContourSpec(0.5, 40.0, 40))
        for x in (0.5, 1.0, 2.0):
            out = mellin_inverse(rep, x)
            assert abs(complex(out.value) - math.exp(-x)) <= 1e-8
            assert out.converged

    def test_beta_pair_value(self):
        # symbol G(s+2) G(1-s) inverts to G(3) x^2 (1+x)^{-3}; crosschecked
        # by a doubled-resolution contour
        rep = MellinRepresentation(beta_pair_symbol(2, 1),
                                   ContourSpec(-0.5, 40.0, 40))
        out = mellin_inverse(rep, 2.0)
        assert rel_err(out.value, 8.0 / 27.0) <= 1e-9
        dense = MellinRepresentation(beta_pair_symbol(2, 1),
                                     ContourSpec(-0.5, 80.0, 120))
        out2 = mellin_inverse(dense, 2.0)
        assert abs(complex(out.value) - complex(out2.value)) <= 1e-9

    def test_zero_symbol(self):
        rep = MellinRepresentation(
            lambda s: np.zeros_like(np.asarray(s), dtype=np.complex128),
            ContourSpec(0.5, 30.0, 32))
        out = mellin_inverse(rep, 1.0)
        assert out.value == 0.0
        assert out.converged

    def test_membership_enforced(self):
        rep = MellinRepresentation(
            lambda s: 1.0 / (1.0 + np.asarray(s) ** 2),
            ContourSpec(0.5, 30.0, 32), class_c1=0.5)
        with pytest.raises(MembershipError):
            mellin_inverse(rep, 1.0)

    def test_x_validation(self):
        rep = MellinRepresentation(gamma_symbol, ContourSpec(0.5, 30.0, 32))
        with pytest.raises(DomainError):
            mellin_inverse(rep, 0.0)

    def test_non_finite_x_rejected(self):
        # checked before the symbol is called; inf once returned 0, converged
        def phi(s):
            raise AssertionError("phi called")
        rep = MellinRepresentation(phi, ContourSpec(0.5, 30.0, 32))
        for x in (math.nan, math.inf):
            with pytest.raises(DomainError):
                mellin_inverse(rep, x)

    def test_round_trip_family(self):
        # forward(inverse(symbol)) returns the symbol at contour points
        for (p, q) in ((1, 1.0), (2, 1.0), (1, 2.0), (2, 2.0)):
            mu = 0.5 * (-p + q) if p != q else -0.25
            rep = MellinRepresentation(beta_pair_symbol(p, q),
                                       ContourSpec(mu, 40.0, 48))

            def original(x):
                return np.asarray(
                    mellin_inverse_profile(rep, x, 1e-11, 1e-10).value)

            # |Im s0| kept moderate: the symbol decays like e^{-pi |Im s|},
            # and beyond ~3 its values sink under the round-trip noise floor
            for t_im in (0.0, 0.7, -1.3, 1.6, 2.1):
                s0 = complex(mu, t_im)
                got = mellin_forward(original, s0, CFG)
                want = complex(beta_pair_symbol(p, q)(np.array([s0]))[0])
                assert rel_err(got.value, want) <= 1e-6, (p, q, s0)

    def test_contour_independence(self):
        # analytic strip of G(s+2)G(1-s) is (-2, 1): two abscissas agree
        x = 1.7
        vals = []
        for mu in (-0.8, 0.4):
            rep = MellinRepresentation(beta_pair_symbol(2, 1),
                                       ContourSpec(mu, 44.0, 48))
            vals.append(complex(mellin_inverse(rep, x, 1e-10, 1e-9).value))
        assert abs(vals[0] - vals[1]) <= 1e-7


class TestParseval:
    def test_one_transform_per_contour_batch(self, monkeypatch):
        # each contour batch is one log-axis transform of f and one of g:
        # f is called once per window probe and step level, on nodes it has
        # not seen, never once per contour node
        transforms = []
        real = mellin._log_axis_transform

        def counting(f, svals, cfg):
            xs = []

            def f_counted(x):
                xs.append(np.array(x))
                return f(x)

            out = real(f_counted, svals, cfg)
            transforms.append((np.size(svals), xs))
            return out

        monkeypatch.setattr(mellin, "_log_axis_transform", counting)
        out = parseval_check(lambda x: np.exp(-x), lambda x: np.exp(-x), 0.5, CFG)
        assert out.converged and float(np.real(out.value)) <= 1e-15
        (lhs_size, _), rest = transforms[0], transforms[1:]
        sizes = [size for size, _ in rest]
        assert lhs_size == 1 and sizes[0::2] == sizes[1::2]
        assert sizes[0] == 4 * 24 + 1 and sizes[-2:] == [3, 3]
        for _, xs in rest:
            assert len(xs) <= 1 + 2 * 8 + mellin._LOG_HALVINGS
            x = np.concatenate(xs)
            assert np.unique(x).size == x.size
        assert sum(len(xs) for _, xs in rest) < sum(sizes)

    def test_exponential_pair(self):
        out = parseval_check(lambda x: np.exp(-x), lambda x: np.exp(-x), 0.5, CFG)
        assert float(np.real(out.value)) <= 1e-7
        assert abs(out.diagnostic("lhs") - 0.5) <= 1e-8

    def test_exponential_moment_pair(self):
        out = parseval_check(lambda x: np.exp(-x), lambda x: x * np.exp(-x),
                             0.5, CFG)
        assert float(np.real(out.value)) <= 1e-7
        assert abs(out.diagnostic("lhs") - 0.25) <= 1e-8

    def test_algebraic_pair(self):
        out = parseval_check(lambda x: x ** 2 * (1 + x) ** -3.0,
                             lambda x: np.exp(-x), 0.5, CFG)
        assert float(np.real(out.value)) <= 1e-6


class TestClassNorm:
    def test_beta_pair_unweighted(self):
        rep = MellinRepresentation(beta_pair_symbol(2, 1),
                                   ContourSpec(-0.5, 30.0, 32))
        out = class_norm(rep)
        assert out.converged
        # doubling t_max from 30 to 60 moves the estimate by < 1e-8 relative
        rep2 = MellinRepresentation(beta_pair_symbol(2, 1),
                                    ContourSpec(-0.5, 60.0, 64))
        out2 = class_norm(rep2)
        assert rel_err(out2.value, out.value) <= 1e-8

    def test_beta_pair_exponential_weight(self):
        rep = MellinRepresentation(beta_pair_symbol(2, 1),
                                   ContourSpec(-0.5, 30.0, 32),
                                   class_c1=0.5, class_c2=1.0)
        out = class_norm(rep)
        assert out.converged
        assert float(np.real(out.value)) > 0.0

    def test_polynomial_decay_flagged(self):
        rep = MellinRepresentation(
            lambda s: 1.0 / (1.0 + np.asarray(s) ** 2),
            ContourSpec(0.5, 30.0, 32), class_c1=0.5)
        out = class_norm(rep)
        assert not out.converged

    def test_unresolved_symbol_flagged(self):
        # a pole on the contour: |phi| ~ 1/|t - 1/3| is not integrable, the
        # adaptive panels cannot settle the truncated norm although the tail
        # strips shrink like a member's
        spec = ContourSpec(-0.875, 16.0, 16)
        s0 = spec.mu + 1j / 3.0
        phi = lambda s: beta_pair_symbol(2, 1)(s) / (np.asarray(s) - s0)
        out = class_norm(MellinRepresentation(phi, spec, 0.5, 1.0))
        assert not out.converged
        assert out.diagnostic("settled") == 0.0
        assert out.diagnostic("tail_shrink") >= 1e3
        ok = class_norm(MellinRepresentation(beta_pair_symbol(2, 1), spec, 0.5, 1.0))
        assert ok.converged and ok.diagnostic("settled") == 1.0

    def test_inclusion_ordering(self):
        # membership with weights (1/2, 1) implies membership with (0, 0)
        spec = ContourSpec(-0.875, 30.0, 32)
        for phi in (beta_pair_symbol(2, 1), beta_pair_symbol(1, 1)):
            strong = class_norm(MellinRepresentation(phi, spec, 0.5, 1.0))
            weak = class_norm(MellinRepresentation(phi, spec, 0.0, 0.0))
            assert (not strong.converged) or weak.converged

    def test_mu_zero_rejected(self):
        rep = MellinRepresentation(gamma_symbol, ContourSpec(0.0, 30.0, 32))
        with pytest.raises(DomainError):
            class_norm(rep)

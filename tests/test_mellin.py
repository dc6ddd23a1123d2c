import math

import numpy as np
import pytest

from conftest import rel_err
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

    def test_nan_rejected(self):
        def bad(x):
            x = np.asarray(x)
            return np.where(x > 5.0, np.nan, np.exp(-x))
        with pytest.raises(DomainError):
            mellin_forward(bad, 2.0, CFG)


class TestContourRule:
    def test_nested_rule_evaluates_each_node_once(self):
        # (1/2 pi i) int G(s) ds on Re s = 1/2 is e^{-1}; each halving of the
        # step adds only the new odd nodes, and six probes bound the tail
        spec = ContourSpec(0.5, 24.0, 16)
        batches = []

        def fn(svals):
            batches.append(svals.imag.copy())
            return sf.gamma_array(svals)

        out = contour_integral(fn, spec, 1e-11, 1e-10)
        assert out.converged
        assert abs(complex(out.value) - math.exp(-1.0)) <= 1e-11
        refine = int(out.diagnostic("refine"))
        nodes = np.concatenate(batches[:-2])
        assert nodes.size == 4 * spec.n_panels * refine + 1
        assert np.unique(nodes).size == nodes.size
        step = spec.t_max / (2 * spec.n_panels * refine)
        assert np.allclose(np.sort(nodes), np.arange(-spec.t_max, spec.t_max + step / 2, step))
        assert [b.size for b in batches[-2:]] == [3, 3]


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

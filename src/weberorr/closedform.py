"""Closed-form Mellin image of the mixed-order cross-product kernel.

F(x, s) = int_0^inf lam^{-s} [J_nu(x lam) Y_{nu+1}(a lam)
                              - Y_nu(x lam) J_{nu+1}(a lam)] d lam,
valid on the strip -1 < Re s < 0 for x > a, evaluates to three gamma/2F1
terms sharing two distinct 2F1 calls (terms 1 and 3 use the same function
with swapped upper parameters).  Batched evaluation over x is the hot path
of the contour solver, so the gamma prefactors are hoisted per s.

Also provides the growth envelopes used by the bound checks: the global
|F| <= C x^{Re s - nu} e^{pi |s|/2} |s|^{-Re s} envelope and the three
Euler-integral estimates for the individual 2F1 factors, all with the
calibrate-on-a-probe-grid / hold-out-elsewhere protocol (the theory leaves
the constants unspecified).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError, PoleProximityError, StripError
from .kernels import KernelParams, weber_kernel
from .quadrature import QuadratureConfig, integrate_cross_product
from .report import EvaluationReport

_POLE_RADIUS = 0.05  # guard around the s = 0 pole of Gamma(-s/2)
CANCELLATION_RATIO = 1e-10


@dataclass(frozen=True)
class FnuTermBreakdown:
    """The three summands of the closed form, exposed for cancellation audits."""

    term1: complex
    term2: complex
    term3: complex

    @property
    def total(self) -> complex:
        return self.term1 + self.term2 + self.term3

    @property
    def max_term(self) -> float:
        return max(abs(self.term1), abs(self.term2), abs(self.term3))

    @property
    def cancellation_suspect(self) -> bool:
        return abs(self.total) < CANCELLATION_RATIO * self.max_term


def _checked(params: KernelParams, svals, xs):
    """The closed form's domain: solver order, the strip -1 < Re s < 0, the
    |s| >= 0.05 guard around the s = 0 pole of Gamma(-s/2), and x > a.
    Returns svals and xs as 1-d complex and real arrays."""
    params.require_solver_order()
    svals = np.atleast_1d(np.asarray(svals, dtype=np.complex128))
    if not (-1.0 < svals.real.min() and svals.real.max() < 0.0):
        raise StripError("closed form: Re s outside the strip (-1, 0)")
    if float(np.min(np.abs(svals))) < _POLE_RADIUS:
        raise PoleProximityError("closed form: s too close to the s = 0 pole")
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if np.any(xs <= params.a):
        raise DomainError("closed form: requires x > a")
    return svals, xs


# 2F1 parameters (a, b, c) of the closed form's factors: 1 serves terms 1
# and 3, 2 serves term 2, 3 is 1 with the upper parameters swapped
_HYP_PARAM_TRIPLES = {
    1: lambda nu, s: (1 - s / 2, 1 + nu - s / 2, 2 + nu),
    2: lambda nu, s: (-nu - s / 2, -s / 2, -nu),
    3: lambda nu, s: (1 + nu - s / 2, 1 - s / 2, 2 + nu),
}


def _hyp_rows(nu: float, svals: np.ndarray):
    """Parameter rows of factors 1 and 2 for hyp2f1_matrix, c repeated."""
    return [(a_, b_, np.full_like(svals, c_))
            for a_, b_, c_ in (_HYP_PARAM_TRIPLES[1](nu, svals),
                               _HYP_PARAM_TRIPLES[2](nu, svals))]


def _prefactors_matrix(params: KernelParams, svals: np.ndarray):
    """Per-contour-node gamma prefactors (g1+g3 share the x-power s-nu-2)."""
    nu, a = params.nu, params.a
    two_ms = np.exp(-svals * math.log(2.0))
    g1 = (two_ms * a ** (nu + 1.0) / math.pi * specfun._cospi(nu)
          * specfun.rgamma_array(svals / 2) * specfun.gamma(-nu - 1.0)
          * specfun.gamma_array(1 + nu - svals / 2))
    g2 = -(two_ms / (math.pi * a ** (1.0 + nu)) * specfun.gamma(nu + 1.0)
           * specfun.gamma_array(-svals / 2)
           * specfun.rgamma_array(1 + nu + svals / 2))
    g3 = -(two_ms * a ** (nu + 1.0) / math.pi * np.cos(math.pi * svals / 2)
           * specfun.gamma_array(nu + 1 - svals / 2)
           * specfun.gamma_array(1 - svals / 2) * specfun.rgamma(2.0 + nu))
    return g1, g2, g3


_node_memo = None  # ((nu, a, node bytes), node side) of the last node set


def _node_side(params: KernelParams, svals: np.ndarray):
    """(g1 + g3, g2) as columns and the 2F1 plans of factors 1 and 2 on the
    nodes svals, then the x-derivative's: for each factor the a b / c column
    and the plan at (a + 1, b + 1, c + 1).  A plan's rows grow only on first
    use.  The contour solver sends batch after batch through one node set;
    keeping only the last one bounds the memory."""
    global _node_memo
    key = (params.nu, params.a, svals.tobytes())
    memo = _node_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    g1, g2, g3 = _prefactors_matrix(params, svals)
    rows = _hyp_rows(params.nu, svals)
    side = ((g1 + g3)[:, None], g2[:, None],
            *(specfun._Hyp2f1Plan(a, b, c) for a, b, c in rows),
            *((a * b / c)[:, None] for a, b, c in rows),
            *(specfun._Hyp2f1Plan(a + 1, b + 1, c + 1) for a, b, c in rows))
    _node_memo = (key, side)
    return side


def _terms(params: KernelParams, svals: np.ndarray, xs: np.ndarray):
    """Factors of the closed form on checked nodes and abscissas:
    (g1 + g3, g2) as columns, the x powers p13, p2 and the 2F1 factors h13,
    h2 on the (nodes, abscissas) matrix."""
    nu = params.nu
    z = (params.a / xs) ** 2
    g13, g2, plan13, plan2 = _node_side(params, svals)[:4]
    ln_x = np.log(xs)
    p13 = np.exp(np.outer(svals - nu - 2.0, ln_x))
    p2 = np.exp(np.outer(svals + nu, ln_x))
    return g13, g2, p13, plan13(z), p2, plan2(z)


def fnu_matrix(params: KernelParams, svals, xs) -> np.ndarray:
    """Closed form on the outer product contour-nodes x abscissas.

    svals: (m,) complex points inside the strip; xs: (n,) reals > a.
    Returns the (m, n) matrix F(x_j, s_i) - the contour solver evaluates
    whole quadrature batches through this in a handful of numpy passes.
    """
    g13, g2, p13, h13, p2, h2 = _terms(params, *_checked(params, svals, xs))
    return g13 * p13 * h13 + g2 * p2 * h2


def fnu_dx_matrix(params: KernelParams, svals, xs) -> np.ndarray:
    """x-derivative of the closed form on the same outer-product layout.
    Differentiates the powers and the 2F1 arguments; two extra 2F1 factors at
    shifted parameters, whose plans the node side keeps."""
    svals, xs = _checked(params, svals, xs)
    g13, g2, p13, h13, p2, h2 = _terms(params, svals, xs)
    nu, z = params.nu, (params.a / xs) ** 2
    dz_dx = -2.0 * z / xs
    ab13, ab2, plan13p, plan2p = _node_side(params, svals)[4:]
    h13p = ab13 * plan13p(z)
    h2p = ab2 * plan2p(z)
    e13 = (svals - nu - 2.0)[:, None]
    e2 = (svals + nu)[:, None]
    return (g13 * p13 * (e13 / xs * h13 + h13p * dz_dx)
            + g2 * p2 * (e2 / xs * h2 + h2p * dz_dx))


def F_nu_closed_batch(params: KernelParams, xs, s) -> np.ndarray:
    """Vectorized closed form over an array of abscissas x > a (totals only)."""
    return fnu_matrix(params, [s], xs)[0]


def F_nu_closed(params: KernelParams, x: float, s) -> FnuTermBreakdown:
    """Closed form at a single abscissa, with the three-term breakdown
    (one-row 2F1 calls through hyp2f1_real_z)."""
    svals, xs = _checked(params, s, x)
    s, x, nu = complex(svals[0]), float(xs[0]), params.nu
    z = (params.a / x) ** 2
    h13 = specfun.hyp2f1_real_z(*_HYP_PARAM_TRIPLES[1](nu, s), z)
    h2 = specfun.hyp2f1_real_z(*_HYP_PARAM_TRIPLES[2](nu, s), z)
    g1, g2, g3 = (complex(g[0]) for g in _prefactors_matrix(params, svals))
    # terms 1 and 3 share one power of x: exponent s - nu - 2
    p13 = cmath.exp((s - nu - 2.0) * math.log(x))
    return FnuTermBreakdown(g1 * p13 * h13,
                            g2 * cmath.exp((nu + s) * math.log(x)) * h2,
                            g3 * p13 * h13)


def F_nu_oracle(params: KernelParams, x: float, s,
                cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """Brute-force quadrature of the defining integral (the oracle side).

    int_0^inf lam^{-s} * kernel d lam with oscillation frequency x - a and
    the asymptotic tail taken over once lam * min(x, a) >= 10.
    """
    s, x = complex(s), float(x)
    _checked(params, s, x)
    cfg = cfg or QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)

    def integrand(lam):
        lam = np.asarray(lam, dtype=np.float64)
        return np.exp(-s * np.log(lam)) * weber_kernel(params, x, lam)

    return integrate_cross_product(integrand, x, params.a, cfg)


# ----------------------------------------------------------------------
# growth envelopes and the calibrate / hold-out machinery
# ----------------------------------------------------------------------

def F_nu_bound(params: KernelParams, x: float, s) -> float:
    """Envelope x^{Re s - nu} e^{pi |s| / 2} |s|^{-Re s} (constant excluded)."""
    s, x = complex(s), float(x)
    _checked(params, s, x)
    mu = s.real
    return x ** (mu - params.nu) * math.exp(0.5 * math.pi * abs(s)) * abs(s) ** (-mu)


def _grid_max_ratio(params: KernelParams, x_factors, mus, ts, value, envelope,
                    admissible=lambda s: True) -> float:
    """Max of |value(x, s)| / envelope(x, s) over the probe grid x = a * fx,
    s = mu + i t, skipping inadmissible s and points with a zero envelope."""
    best = 0.0
    for fx, mu, t in itertools.product(x_factors, mus, ts):
        x, s = params.a * fx, complex(mu, t)
        if not admissible(s):
            continue
        val = abs(value(x, s))
        env = envelope(x, s)
        if env > 0.0:
            best = max(best, val / env)
    return best


def calibrate_bound_constant(params: KernelParams, x_factors, mus, ts) -> float:
    """Max of |F| / envelope over the probe grid; the held-out inequality
    |F| <= C * envelope is then checked elsewhere on fresh points."""
    return _grid_max_ratio(params, x_factors, mus, ts,
                           lambda x, s: F_nu_closed(params, x, s).total,
                           lambda x, s: F_nu_bound(params, x, s))


def hyp_term_value(params: KernelParams, x: float, s, which: int) -> complex:
    """The selected 2F1 factor of the closed form at z = a^2/x^2."""
    s, x = complex(s), float(x)
    _checked(params, s, x)
    if which not in (1, 2, 3):
        raise DomainError("which must be 1, 2 or 3")
    a_, b_, c_ = _HYP_PARAM_TRIPLES[which](params.nu, s)
    z = (params.a / x) ** 2
    return specfun.gauss_2f1(a_, b_, c_, z)


def hyp_estimate_envelope(params: KernelParams, x: float, s, which: int) -> float:
    """Right-hand side of the selected 2F1 estimate, constant excluded.

    Euler's integral (DLMF 15.6.1) bounds the factor 2F1(a, b; c; z) at
    z = (inner radius / x)^2 by |G(c)/(G(b) G(c-b))| (1 - z)^{-Re a}:
    which=1: x^{2-Re s} (x^2-a^2)^{Re s/2 - 1} |G(2+nu)/(G(1+nu-s/2) G(1+s/2))|
    which=2: x^{-2 nu - Re s} (x^2-a^2)^{nu + Re s/2} |G(-nu)/(G(-s/2) G(-nu+s/2))|
    which=3: x^{2(1+nu)-Re s} (x^2-a^2)^{Re s/2-1-nu} |G(2+nu)/(G(1-s/2) G(1+nu+s/2))|
    """
    s, x = complex(s), float(x)
    _checked(params, s, x)
    if which not in _HYP_PARAM_TRIPLES:
        raise DomainError("which must be 1, 2 or 3")
    a_, b_, c_ = _HYP_PARAM_TRIPLES[which](params.nu, s)
    gam = abs(specfun.gamma(c_) * specfun.rgamma(b_) * specfun.rgamma(c_ - b_))
    return gam * (1.0 - (params.a / x) ** 2) ** (-a_.real)


def hyp_estimate_admissible(params: KernelParams, s, which: int) -> bool:
    """Euler-integral validity (Re c > Re b > 0) of the selected estimate.

    Estimate 3 fails it when Re s <= -2(1+nu) (the floating constants of the
    theory hide this corner); calibration grids stay inside the region.
    """
    _, b_, c_ = _HYP_PARAM_TRIPLES[which](params.nu, complex(s))
    return b_.real > 0.0 and (c_ - b_).real > 0.0


def calibrate_hyp_constant(params: KernelParams, which: int, x_factors, mus, ts) -> float:
    best = _grid_max_ratio(
        params, x_factors, mus, ts,
        lambda x, s: hyp_term_value(params, x, s, which),
        lambda x, s: hyp_estimate_envelope(params, x, s, which),
        lambda s: hyp_estimate_admissible(params, s, which))
    if best == 0.0:
        raise DomainError(
            "calibrate_hyp_constant: no Euler-admissible probe points")
    return best


def hyp_estimate_check(params: KernelParams, x: float, s, which: int,
                       constant: float) -> bool:
    """Does the selected estimate hold at (x, s) with the calibrated constant?"""
    if not hyp_estimate_admissible(params, s, which):
        raise DomainError(
            "hyp_estimate_check: point outside the Euler-admissible region")
    lhs = abs(hyp_term_value(params, x, s, which))
    rhs = hyp_estimate_envelope(params, x, s, which)
    return lhs <= constant * rhs * (1.0 + 1e-12)

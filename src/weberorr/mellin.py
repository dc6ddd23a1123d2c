"""Numerical Mellin analysis: forward transform, inverse contour transform,
Parseval pairing, and weighted-norm membership flagging for the solvability
classes (exponential weight e^{pi c1 |s|}, power weight |s|^{c2}).

Contour integrals run on a truncated vertical line Re s = mu with composite
Gauss-Legendre panels; the panel count doubles until two refinements agree
and the discarded tail is bounded by a measured geometric decay fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, MembershipError
from .quadrature import QuadratureConfig, _adaptive_finite, _leggauss
from .report import EvaluationReport

_CONTOUR_GL = 12


@dataclass(frozen=True)
class ContourSpec:
    """Vertical line Re s = mu, truncated at |Im s| = t_max, n_panels panels."""

    mu: float
    t_max: float = 30.0
    n_panels: int = 32

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise DomainError("ContourSpec: mu must be finite")
        if not self.t_max > 0.0:
            raise DomainError("ContourSpec: t_max must be > 0")
        if self.n_panels < 8:
            raise DomainError("ContourSpec: n_panels must be >= 8")


@dataclass
class MellinRepresentation:
    """Symbol phi(s) on a contour, with its weighted-class parameters.

    phi must be evaluable (vectorized) everywhere on the contour.  Whether
    the pair actually belongs to the weighted class is decided numerically:
    the truncated norm must be finite and its strip-to-strip tail mass must
    shrink by `membership_shrink` when t_max doubles.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    contour: ContourSpec
    class_c1: float = 0.0
    class_c2: float = 0.0
    membership_shrink: float = 10.0
    _membership: EvaluationReport | None = field(
        default=None, repr=False, compare=False)

    def membership(self) -> EvaluationReport:
        if self._membership is None:
            self._membership = class_norm(self)
        return self._membership

    def is_member(self) -> bool:
        return self.membership().converged


def _phi_values(rep: MellinRepresentation, s: np.ndarray) -> np.ndarray:
    vals = np.asarray(rep.phi(s), dtype=np.complex128)
    if vals.shape != s.shape:
        vals = np.broadcast_to(vals, s.shape).copy()
    return vals


def _contour_nodes(spec: ContourSpec, refine: int):
    xg, wg = _leggauss(_CONTOUR_GL)
    edges = np.linspace(-spec.t_max, spec.t_max, spec.n_panels * refine + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return t, w


def _contour_sum(fn, spec: ContourSpec, refine: int):
    """One pass of the contour rule with `refine` times the spec's panels:
    (1/2 pi) sum_k w_k fn(mu + i t_k).  fn's values die with the call."""
    t, w = _contour_nodes(spec, refine)
    vals = np.asarray(fn(spec.mu + 1j * t), dtype=np.complex128)
    return np.tensordot(w, vals, axes=(0, 0)) / (2.0 * math.pi)


def contour_integral(fn, spec: ContourSpec, abs_tol: float = 1e-10,
                     rel_tol: float = 1e-9, max_doublings: int = 4) -> EvaluationReport:
    """(1/2 pi i) Integral of fn(s) ds along the truncated contour.

    fn maps a complex array of contour points to values of shape (n,) or
    (n, m) (m = batched evaluation points); the report's value has shape ()
    or (m,).  Error = panel-refinement increment + measured tail bound.  The
    panel count doubles at most max_doublings times; the "refine" diagnostic
    is the multiple of the spec's panels the value was taken at.
    """
    mu = spec.mu
    prev = None
    inc = math.inf
    for refine_pow in range(max_doublings + 1):
        value = _contour_sum(fn, spec, 2 ** refine_pow)
        if prev is not None:
            inc = float(np.max(np.abs(value - prev)))
            scale = float(np.max(np.abs(value)))
            if inc <= 0.25 * max(abs_tol, rel_tol * scale):
                break
        prev = value

    # geometric tail bound from |fn| sampled at the truncation and beyond;
    # probe values below the tolerance-scaled floor are noise, not decay data
    scale = float(np.max(np.abs(value)))
    floor = 0.01 * max(abs_tol, rel_tol * max(scale, abs_tol)) / max(1.0, spec.t_max)
    t_probe = np.array([spec.t_max, 1.5 * spec.t_max, 2.0 * spec.t_max])
    tail = 0.0
    decaying = True
    for sign in (+1.0, -1.0):
        vals = np.abs(np.asarray(fn(mu + 1j * sign * t_probe), dtype=np.complex128))
        v1 = float(np.max(vals[0])) if vals.ndim > 1 else float(vals[0])
        v2 = float(np.max(vals[1])) if vals.ndim > 1 else float(vals[1])
        v3 = float(np.max(vals[2])) if vals.ndim > 1 else float(vals[2])
        if v1 <= floor and v2 <= floor and v3 <= floor:
            tail += (v1 + v2 + v3) * spec.t_max / (2.0 * math.pi)
            continue
        if not (v3 < v1 and v2 < v1):
            decaying = False
            tail += (v1 + v3) * spec.t_max
            continue
        kappa = math.log(v1 / max(v3, 1e-300)) / spec.t_max
        tail += v1 / max(kappa, 1e-300) / (2.0 * math.pi)
    err = inc if math.isfinite(inc) else 0.0
    err += tail
    converged = decaying and err <= max(abs_tol, rel_tol * max(scale, abs_tol))
    rep = EvaluationReport(value if value.ndim else complex(value), err, converged)
    rep.add_diagnostic("tail_bound", tail)
    rep.add_diagnostic("panel_increment", inc if math.isfinite(inc) else 0.0)
    rep.add_diagnostic("refine", 2 ** refine_pow)
    return rep


def _exp_window_integral(g, im_freq: float, cfg: QuadratureConfig):
    """Integral of g over (-inf, inf) via doubling windows around 0.

    g lives on the log axis; admissible integrands decay exponentially on
    both sides.  Growth over three consecutive windows raises DivergenceError.
    """
    def window(al, bl):
        n0 = int(np.clip(math.ceil((bl - al) * max(abs(im_freq), 1.0) / 2.0), 8, 1024))
        val, err, conv, _ = _adaptive_finite(
            g, al, bl, cfg.abs_tol * 0.25, cfg.rel_tol, np.linspace(al, bl, n0 + 1))
        return val, err, conv

    value, err, conv = window(-2.0, 2.0)
    for direction in (+1.0, -1.0):
        edge = 2.0
        prev_mag = math.inf
        growth = 0
        for _ in range(12):
            lo, hi = (edge, 2 * edge) if direction > 0 else (-2 * edge, -edge)
            seg, seg_err, seg_conv = window(lo, hi)
            value += seg
            err += seg_err
            conv &= seg_conv
            mag = abs(seg)
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
            if mag <= 0.1 * tol:
                # below tolerance: done even if the window magnitudes sit on
                # a noise floor (round-tripped integrands amplify input noise
                # like x^{-mu} far out on the axis)
                break
            if mag >= prev_mag and mag > tol:
                growth += 1
                if growth >= 3:
                    raise DivergenceError(
                        "mellin_forward: integrand not decaying on the log axis")
            else:
                growth = 0
            prev_mag = mag
            edge *= 2
        else:
            conv = False
    return value, err, conv


def mellin_forward(f, s, cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """Forward transform: integral of f(x) x^{s-1} over (0, inf).

    Computed on the log axis u = ln x where admissible integrands decay
    exponentially both ways; divergence is detected numerically.
    """
    cfg = cfg or QuadratureConfig()
    s = complex(s)

    def g(u):
        u = np.asarray(u, dtype=np.float64)
        return np.asarray(f(np.exp(u)), dtype=np.complex128) * np.exp(s * u)

    value, err, conv = _exp_window_integral(g, s.imag, cfg)
    return EvaluationReport(value, err, conv)


def mellin_inverse_profile(rep: MellinRepresentation, xs,
                           abs_tol: float = 1e-10, rel_tol: float = 1e-9) -> EvaluationReport:
    """Inverse transform evaluated at an array of abscissas in one pass."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if np.any(xs <= 0.0):
        raise DomainError("mellin_inverse: x must be > 0")
    if not rep.is_member():
        raise MembershipError(
            "mellin_inverse: representation failed its class-membership flag")
    ln_x = np.log(xs)

    def fn(svals):
        return _phi_values(rep, svals)[:, None] * np.exp(-np.outer(svals, ln_x))

    return contour_integral(fn, rep.contour, abs_tol, rel_tol)


def mellin_inverse(rep: MellinRepresentation, x: float,
                   abs_tol: float = 1e-10, rel_tol: float = 1e-9) -> EvaluationReport:
    """(1/2 pi i) Integral of phi(s) x^{-s} ds with x^{-s} = exp(-s ln x)."""
    out = mellin_inverse_profile(rep, [float(x)], abs_tol, rel_tol)
    return EvaluationReport(complex(out.value[0]), out.abs_error_estimate,
                            out.converged, out.diagnostics)


def parseval_check(f, g, mu: float, cfg: QuadratureConfig | None = None,
                   t_max: float = 24.0, n_panels: int = 24) -> EvaluationReport:
    """|int f g dx - (1/2 pi i) int f*(s) g*(1-s) ds| on Re s = mu."""
    cfg = cfg or QuadratureConfig()
    lhs = mellin_forward(lambda x: np.asarray(f(x)) * np.asarray(g(x)), 1.0, cfg)

    def fn(svals):
        out = np.empty(svals.shape, dtype=np.complex128)
        for i, sv in enumerate(svals):
            fa = mellin_forward(f, sv, cfg)
            gb = mellin_forward(g, 1.0 - sv, cfg)
            out[i] = fa.value * gb.value
        return out

    spec = ContourSpec(mu=mu, t_max=t_max, n_panels=n_panels)
    rhs = contour_integral(fn, spec, cfg.abs_tol, cfg.rel_tol, max_doublings=2)
    defect = abs(complex(lhs.value) - complex(rhs.value))
    rep = EvaluationReport(defect, lhs.abs_error_estimate + rhs.abs_error_estimate,
                           lhs.converged and rhs.converged)
    rep.add_diagnostic("lhs", float(np.real(lhs.value)))
    rep.add_diagnostic("rhs", float(np.real(rhs.value)))
    return rep


def class_norm(rep: MellinRepresentation) -> EvaluationReport:
    """Weighted L1 norm (1/2 pi) int e^{pi c1 |s|} |s^{c2} phi(s)| |ds|,
    truncated at the contour's t_max, plus the tail-shrink membership flag.

    converged=False marks a non-member: either the truncated norm fails to
    stabilize or the [t_max, 2 t_max] strip mass is not at least
    `rep.membership_shrink` below the [t_max/2, t_max] strip mass.
    """
    spec = rep.contour
    if spec.mu == 0.0:
        raise DomainError("class_norm: mu = 0 contours are rejected")
    c1, c2 = rep.class_c1, rep.class_c2

    def weight(t):
        s = spec.mu + 1j * np.asarray(t, dtype=np.float64)
        mod = np.abs(s)
        return np.exp(math.pi * c1 * mod) * mod ** c2 * np.abs(_phi_values(rep, s))

    def strip_mass(lo, hi):
        val, _, _, _ = _adaptive_finite(weight, lo, hi, 1e-12, 1e-9,
                                        np.linspace(lo, hi, 17))
        return abs(val)

    prev = None
    norm = 0.0
    inc = math.inf
    for refine in (1, 2, 4):
        t, w = _contour_nodes(spec, refine)
        norm = float(np.sum(w * weight(t))) / (2.0 * math.pi)
        if prev is not None:
            inc = abs(norm - prev)
        prev = norm
    half_t = 0.5 * spec.t_max
    inner_mass = strip_mass(half_t, spec.t_max) + strip_mass(-spec.t_max, -half_t)
    outer_mass = strip_mass(spec.t_max, 2.0 * spec.t_max) + \
        strip_mass(-2.0 * spec.t_max, -spec.t_max)
    stable = inc <= max(1e-10, 1e-8 * max(norm, 1e-30))
    if norm == 0.0 and outer_mass == 0.0:
        member = True
        ratio = 0.0
    elif outer_mass <= 1e-300:
        member = stable
        ratio = 0.0
    else:
        ratio = outer_mass / max(inner_mass, 1e-300)
        member = stable and (outer_mass * rep.membership_shrink <= inner_mass)
    tail_est = outer_mass / (2.0 * math.pi)
    if 0.0 < ratio < 1.0:
        tail_est *= 1.0 / (1.0 - ratio)
    out = EvaluationReport(norm, (0.0 if not math.isfinite(inc) else inc) + tail_est,
                           member)
    out.add_diagnostic("tail_shrink",
                       (inner_mass / outer_mass) if outer_mass > 1e-300 else math.inf)
    out.add_diagnostic("outer_strip_mass", outer_mass)
    return out

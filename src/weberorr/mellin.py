"""Numerical Mellin analysis: forward transform, inverse contour transform,
Parseval pairing, and weighted-norm membership flagging for the solvability
classes (exponential weight e^{pi c1 |s|}, power weight |s|^{c2}).

Both transforms are nested trapezoidal rules (error ~ exp(-2 pi d / h) on
integrands analytic in a strip of half-width d; each halving of h reuses every
node), with decay fits bounding the discarded tails: contour integrals on the
truncated line Re s = mu, the forward transform on the log axis u = ln x for a
batch of s at once (Parseval takes one batch per contour level).  class_norm
integrates its non-analytic weight on adaptive Gauss-Legendre panels instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, MembershipError
from .quadrature import QuadratureConfig, _adaptive_finite
from .report import EvaluationReport

_MEMBERSHIP_SHRINK = 10.0  # tail-mass drop a member shows when t_max doubles
_CONTOUR_HALVINGS = 4  # at most this many halvings of the contour step
_LOG_HALVINGS = 6  # at most this many halvings of the log-axis step
_LOG_CUT = 1e-17  # a window probe this far below the peak ends the log axis
_CHUNK_CELLS = 1 << 18  # cells of one exp(outer(s, u)) block


@dataclass(frozen=True)
class ContourSpec:
    """Vertical line Re s = mu, truncated at |Im s| = t_max.

    n_panels sets the coarsest trapezoid step: four steps per panel,
    h0 = t_max / (2 n_panels), halved by contour_integral as needed.
    """

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
    shrink _MEMBERSHIP_SHRINK-fold when t_max doubles.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    contour: ContourSpec
    class_c1: float = 0.0
    class_c2: float = 0.0
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


def _contour_nodes(spec: ContourSpec, refine: int, symmetric: bool = False):
    """Trapezoid nodes t = k h at `refine` times the level-0 resolution (four
    steps per panel) on [-t_max, t_max], or on [0, t_max] when symmetric,
    with their weights, ends halved; k h keeps the halves mirror images and
    t = 0 exact."""
    n = 2 * spec.n_panels * refine
    h = spec.t_max / n
    w = np.full(n + 1 if symmetric else 2 * n + 1, h)
    w[[0, -1]] *= 0.5
    return h * np.arange(0 if symmetric else -n, n + 1), w


def _contour_sum(fn, spec: ContourSpec, refine: int, symmetric: bool = False):
    """One trapezoid pass at `refine` times the level-0 resolution:
    (1/2 pi) sum w_k fn(mu + i t_k); when symmetric, fn(conj s) = conj fn(s)
    and the pass is (1/pi) Re of the half line's sum.  Returns the value and
    fn's values."""
    t, w = _contour_nodes(spec, refine, symmetric)
    vals = np.asarray(fn(spec.mu + 1j * t), dtype=np.complex128)
    total = np.tensordot(w, vals, axes=(0, 0)) / (2.0 * math.pi)
    return (2.0 * total.real + 0j if symmetric else total), vals


def contour_integral(fn, spec: ContourSpec, abs_tol: float = 1e-10,
                     rel_tol: float = 1e-9) -> EvaluationReport:
    """(1/2 pi i) Integral of fn(s) ds along the truncated contour.

    fn maps a complex array of contour points to values of shape (n,) or
    (n, m) (m = batched evaluation points); the report's value has shape ()
    or (m,).  Nested trapezoidal rule: each halving of the step evaluates
    only the new odd nodes, T(h/2) = T(h)/2 + (h/2) sum fn(new).  Level 0
    takes the whole line; where every column there has fn(mu - it) =
    conj fn(mu + it) to rounding (a real original: the "symmetric"
    diagnostic), the halvings and the tail probes take only t > 0 and the
    value is real.  Error = halving increment + measured tail bound.  The
    step halves at most _CONTOUR_HALVINGS times; the "refine" diagnostic is
    the resolution the value was taken at, in multiples of the level-0 step
    t_max / (2 n_panels).
    """
    mu = spec.mu
    value, vals = _contour_sum(fn, spec, 1)
    cols = vals.reshape(len(vals), -1)
    symmetric = bool(np.all(np.abs(cols[::-1] - cols.conj())
                            <= 64 * np.finfo(float).eps * np.abs(cols).max(axis=0)))
    value = value.real + 0j if symmetric else value
    inc = math.inf
    refine = 1
    for _ in range(_CONTOUR_HALVINGS):
        refine *= 2
        t, w = _contour_nodes(spec, refine, symmetric)
        new = np.asarray(fn(mu + 1j * t[1::2]), dtype=np.complex128).sum(axis=0)
        prev = value
        value = 0.5 * prev + w[1] / (2.0 * math.pi) * (2.0 * new.real if symmetric else new)
        inc = float(np.max(np.abs(value - prev)))
        scale = float(np.max(np.abs(value)))
        if inc <= 0.25 * max(abs_tol, rel_tol * scale):
            break

    # geometric tail bound from |fn| sampled at the truncation and beyond;
    # probe values below the tolerance-scaled floor are noise, not decay data
    scale = float(np.max(np.abs(value)))
    floor = 0.01 * max(abs_tol, rel_tol * max(scale, abs_tol)) / max(1.0, spec.t_max)
    t_probe = np.array([spec.t_max, 1.5 * spec.t_max, 2.0 * spec.t_max])
    tail = 0.0
    decaying = True
    for sign in (+1.0,) if symmetric else (+1.0, -1.0):
        vals = np.abs(np.asarray(fn(mu + 1j * sign * t_probe), dtype=np.complex128))
        v1, v2, v3 = vals.reshape(3, -1).max(axis=1).tolist()
        if v1 <= floor and v2 <= floor and v3 <= floor:
            tail += (v1 + v2 + v3) * spec.t_max / (2.0 * math.pi)
            continue
        if not (v3 < v1 and v2 < v1):
            decaying = False
            tail += (v1 + v3) * spec.t_max
            continue
        kappa = math.log(v1 / max(v3, 1e-300)) / spec.t_max
        tail += v1 / max(kappa, 1e-300) / (2.0 * math.pi)
    tail *= 2.0 if symmetric else 1.0  # the t < 0 side mirrors the probed one
    err = inc if math.isfinite(inc) else 0.0
    err += tail
    converged = decaying and err <= max(abs_tol, rel_tol * max(scale, abs_tol))
    rep = EvaluationReport(value if value.ndim else complex(value), err, converged)
    rep.add_diagnostic("tail_bound", tail)
    rep.add_diagnostic("panel_increment", inc if math.isfinite(inc) else 0.0)
    rep.add_diagnostic("refine", refine)
    rep.add_diagnostic("symmetric", symmetric)
    return rep


def _log_axis_transform(f, svals, cfg: QuadratureConfig):
    """(values, errors, converged) of the integral of f(e^u) e^{su} du for every
    s in svals: trapezoidal nodes u = k h, h = 0.25 2^-j (exact in binary),
    each halving calling f once on its new nodes.  Error = halving increment
    + tail fit at the cuts + rounding."""
    s, h = np.atleast_1d(np.asarray(svals, dtype=np.complex128)), 0.25

    def probe(u):
        fv = np.broadcast_to(np.asarray(f(np.exp(u)), dtype=np.complex128), u.shape)
        if not np.all(np.isfinite(fv)):
            raise DomainError("mellin_forward: integrand returned a non-finite value")
        return u, fv, np.abs(fv) * np.exp(u * np.where(u > 0.0, s.real.max(), s.real.min()))

    def tsum(rows, u, fv):
        out = np.zeros(rows.size, dtype=np.complex128)
        step = max(1, _CHUNK_CELLS // rows.size)
        for i in range(0, u.size, step):
            out += np.exp(np.outer(rows, u[i:i + step])) @ fv[i:i + step]
        return h * out

    def tail(pair, width):
        # exponential fit through the maxima of two windows `width` apart,
        # integrated from half a step inside the second one
        if not pair[1] < pair[0]:
            return pair[1] * width
        return pair[1] * (width / math.log(pair[0] / max(pair[1], 1e-300)) + h)

    def walk(sign):
        """Windows (edge, 2 edge] out to |u| = 512, where e^u is still positive
        and finite.  The first one under _LOG_CUT times the peak, or one under
        tol / 10 that the next exceeds (a noise floor, or f overflowing), ends
        the axis; three growing ones above tol diverge.  Returns (kept windows,
        tail bound, whether they reached 512)."""
        nonlocal peak
        wins, mags, growth, tol = [], [float(central[2].max())], 0, 0.0
        for edge in 2.0 ** np.arange(1, 9):
            try:
                wins.append(probe(sign * h * np.arange(edge / h + 1, 2 * edge / h + 1)))
            except DomainError:
                if not wins or mags[-1] > 0.1 * tol:  # f may overflow past a window under tol / 10
                    raise
                return wins[:-1], tail(mags[-2:], edge / 4), False
            mags.append(float(wins[-1][2].max()))
            last, mag = mags[-2:]
            peak = max(peak, mag)
            tol = max(cfg.abs_tol, cfg.rel_tol * peak)
            if mag <= _LOG_CUT * peak:
                return wins[:-1], tail(mags[-2:], edge / 2), False
            if len(wins) > 1 and last < mag and last <= 0.1 * tol:
                return wins[:-2], tail(mags[-3:-1], edge / 4), False
            growth = growth + 1 if mag >= last and mag > tol else 0
            if growth >= 3:
                raise DivergenceError("mellin_forward: integrand not decaying on the log axis")
        return wins, tail(mags[-2:], 128.0), True

    central = probe(h * np.arange(-8, 9))
    peak = float(central[2].max())
    right, tail_hi, capped_hi = walk(1.0)
    left, tail_lo, capped_lo = walk(-1.0)
    u, fv, env = (np.concatenate(p) for p in zip(central, *right, *left))
    # nodes a step beyond the outermost ones above the cut join the truncation bound
    lo, hi = np.clip(np.sort(u[env >= _LOG_CUT * peak])[[0, -1]] + [-h, h], u.min(), u.max())
    inside = (u >= lo) & (u <= hi)
    trunc = tail_hi + tail_lo + h * float(env[~inside].sum())
    u, fv, env = u[inside], fv[inside], env[inside]
    value = tsum(s, u, fv)
    # rounding: ~eps per term, plus the phase error eps |s u| of exp(s u)
    rounding = np.finfo(float).eps * h * (8.0 * env.sum() + np.abs(s) * (env * np.abs(u)).sum())
    inc, active = np.full(s.size, np.inf), np.ones(s.size, dtype=bool)
    for _ in range(_LOG_HALVINGS):
        h /= 2
        u = h * np.arange(lo / h + 1, hi / h, 2)
        new = 0.5 * value[active] + tsum(s[active], u, probe(u)[1])
        inc[active], value[active] = np.abs(new - value[active]), new
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
        # a row stops once the halving settled it and its step resolves
        # e^{i Im(s) u}; before that, aliases of the two levels can coincide
        active = (inc > 0.25 * tol) | (h * np.abs(s.imag) > 0.5 * math.pi)
        if not active.any():
            break
    err = inc + trunc + rounding
    return value, err, (err <= tol) & ~active & (not (capped_hi or capped_lo))


def mellin_forward(f, s, cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """Forward transform, integral of f(x) x^{s-1} over (0, inf): one row of the log-axis rule."""
    value, err, conv = _log_axis_transform(f, [complex(s)], cfg or QuadratureConfig())
    return EvaluationReport(complex(value[0]), float(err[0]), bool(conv[0]))


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
        return _log_axis_transform(f, svals, cfg)[0] * _log_axis_transform(g, 1.0 - svals, cfg)[0]

    spec = ContourSpec(mu=mu, t_max=t_max, n_panels=n_panels)
    rhs = contour_integral(fn, spec, cfg.abs_tol, cfg.rel_tol)
    defect = abs(complex(lhs.value) - complex(rhs.value))
    rep = EvaluationReport(defect, lhs.abs_error_estimate + rhs.abs_error_estimate,
                           lhs.converged and rhs.converged)
    rep.add_diagnostic("lhs", float(np.real(lhs.value)))
    rep.add_diagnostic("rhs", float(np.real(rhs.value)))
    return rep


def class_norm(rep: MellinRepresentation) -> EvaluationReport:
    """Weighted L1 norm (1/2 pi) int e^{pi c1 |s|} |s^{c2} phi(s)| |ds|,
    truncated at the contour's t_max, plus the tail-shrink membership flag.

    converged=False marks a non-member: either an adaptive integration of
    the truncated norm or of its tail strips failed to meet its tolerance
    (1e-12 absolute, 1e-9 relative; a symbol the panels cannot resolve), or
    the [t_max, 2 t_max] strip mass is not at least _MEMBERSHIP_SHRINK times
    below the [t_max/2, t_max] strip mass.  Whether the contour rule
    resolves the symbol is the contour integral's own report.
    """
    spec = rep.contour
    if spec.mu == 0.0:
        raise DomainError("class_norm: mu = 0 contours are rejected")
    c1, c2 = rep.class_c1, rep.class_c2

    def weight(t):
        s = spec.mu + 1j * np.asarray(t, dtype=np.float64)
        mod = np.abs(s)
        return np.exp(math.pi * c1 * mod) * mod ** c2 * np.abs(_phi_values(rep, s))

    # the weight is not analytic (|.| and e^{pi c1 |s|}) and need not be small
    # at +-t_max, so the trapezoidal rule would converge only like h^2 here
    t1, t2 = 0.5 * spec.t_max, spec.t_max
    strips = [(-t1, t1), (t1, t2), (-t2, -t1), (t2, 2.0 * t2), (-2.0 * t2, -t2)]
    parts = [_adaptive_finite(weight, lo, hi, 1e-12, 1e-9, np.linspace(lo, hi, 17))
             for lo, hi in strips]
    mass = [abs(p[0]) for p in parts]
    stable = all(p[2] for p in parts)
    norm, inc = sum(mass[:3]) / (2.0 * math.pi), sum(p[1] for p in parts[:3]) / (2.0 * math.pi)
    inner_mass, outer_mass = mass[1] + mass[2], mass[3] + mass[4]
    if norm == 0.0 and outer_mass == 0.0:
        member = True
        ratio = 0.0
    elif outer_mass <= 1e-300:
        member = stable
        ratio = 0.0
    else:
        ratio = outer_mass / max(inner_mass, 1e-300)
        member = stable and (outer_mass * _MEMBERSHIP_SHRINK <= inner_mass)
    tail_est = outer_mass / (2.0 * math.pi)
    if 0.0 < ratio < 1.0:
        tail_est *= 1.0 / (1.0 - ratio)
    out = EvaluationReport(norm, (0.0 if not math.isfinite(inc) else inc) + tail_est,
                           member)
    out.add_diagnostic("tail_shrink",
                       (inner_mass / outer_mass) if outer_mass > 1e-300 else math.inf)
    out.add_diagnostic("outer_strip_mass", outer_mass)
    out.add_diagnostic("settled", stable)
    return out

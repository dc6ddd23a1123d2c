"""Improper oscillatory integrals over (0, inf) / (a, inf).

Strategy: an endpoint-aware adaptive head up to the start of the asymptotic
regime, then a tail partitioned into half-period chunks whose alternating
partial sums are accelerated by iterated averaging (Euler-type).  Integrands
must be vectorized (ndarray -> ndarray); chunks and panels are evaluated in
batched calls.  Summation order is fixed, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError
from .report import EvaluationReport

_GL_ORDER = 12
_ADAPT_ORDER = 15
_MAX_ADAPT_LEVELS = 18
_MAX_ADAPT_PANELS = 16384
# the head/tail split of an improper integral never falls below this abscissa
ORIGIN_CUTOFF = 1.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation / acceleration / tolerance policy for improper integrals."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_half_periods: int = 256
    acceleration_depth: int = 10

    def __post_init__(self):
        if not (0.0 < self.abs_tol < 1.0 and 0.0 < self.rel_tol < 1.0):
            raise DomainError("QuadratureConfig: tolerances must lie in (0, 1)")
        if self.max_half_periods < 8:
            raise DomainError("QuadratureConfig: max_half_periods must be >= 8")
        if not (1 <= self.acceleration_depth <= 12):
            raise DomainError("QuadratureConfig: acceleration_depth must be in 1..12")


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_values(f, lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
    """Composite GL, one batch: integral of f over each panel [lo[i], hi[i]]."""
    xg, wg = _leggauss(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    vals = np.asarray(f(nodes), dtype=np.complex128).reshape(len(lo), order)
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand returned a non-finite value")
    return (vals * wg[None, :]).sum(axis=1) * half


def _adaptive_finite(f, lo: float, hi: float, abs_tol: float, rel_tol: float,
                     initial_edges: np.ndarray | None = None):
    """Level-synchronous adaptive bisection with batched panel evaluation.

    Error per panel = |parent - sum(children)|; panels are split until the
    total estimate meets tolerance.  Returns (value, err, converged, nevals).
    """
    if initial_edges is None:
        initial_edges = np.linspace(lo, hi, 9)
    edges = np.asarray(initial_edges, dtype=np.float64)
    cur_lo, cur_hi = edges[:-1], edges[1:]
    parent_vals = _panel_values(f, cur_lo, cur_hi, _ADAPT_ORDER)
    nevals = len(cur_lo) * _ADAPT_ORDER
    # finished panels, one array per level, in the order they finished
    done_vals = [np.zeros(0, dtype=np.complex128)]
    done_errs = [np.zeros(0)]
    leftover, leftover_err = 0.0 + 0.0j, 0.0
    for _ in range(_MAX_ADAPT_LEVELS):
        mids = 0.5 * (cur_lo + cur_hi)
        sub_lo = np.column_stack([cur_lo, mids]).ravel()
        sub_hi = np.column_stack([mids, cur_hi]).ravel()
        child_vals = _panel_values(f, sub_lo, sub_hi, _ADAPT_ORDER)
        nevals += len(sub_lo) * _ADAPT_ORDER
        pair_sum = child_vals[0::2] + child_vals[1::2]
        errs = np.abs(parent_vals - pair_sum)
        total = np.sum(pair_sum) + np.sum(np.concatenate(done_vals))
        tol = max(abs_tol, rel_tol * abs(total))
        keep = errs <= 0.5 * tol / max(1, len(cur_lo))
        split = ~keep
        done_vals.append(pair_sum[keep])
        done_errs.append(errs[keep])
        converged = not split.any()
        if converged or 2 * int(split.sum()) > _MAX_ADAPT_PANELS:
            done_vals.append(pair_sum[split])
            done_errs.append(errs[split])
            break
        cur_lo, cur_hi, parent_vals = (v.reshape(-1, 2)[split].ravel()
                                       for v in (sub_lo, sub_hi, child_vals))
    else:
        # level budget exhausted: the split panels' children are the best estimates
        leftover, leftover_err = complex(np.sum(parent_vals)), float(np.sum(errs[split]))
    value = complex(np.sum(np.concatenate(done_vals))) + leftover
    err = float(np.sum(np.concatenate(done_errs))) + leftover_err
    return value, err, converged, nevals


def _euler_accelerate(chunks: np.ndarray, depth: int):
    """Iterated averaging of the partial sums of alternating chunk integrals.

    Returns (estimate, increment) where increment is the last averaging
    correction - the error estimate of the accelerated limit.
    """
    partial = np.cumsum(chunks)
    depth = min(depth, len(partial) - 1)
    work = partial
    last_two = (partial[-1], partial[-1])
    for _ in range(depth):
        work = 0.5 * (work[:-1] + work[1:])
        last_two = (last_two[1], work[-1])
    increment = abs(last_two[1] - last_two[0]) if depth >= 1 else abs(chunks[-1])
    return complex(work[-1]), float(increment)


def integrate_oscillatory_tail(integrand, phase_frequency: float, start: float,
                               cfg: QuadratureConfig) -> EvaluationReport:
    """Accelerated tail of int_start^inf for integrands ~ amp(x) cos(w x + d).

    Partitions at spacing pi/phase_frequency, integrates each half period by
    Gauss panels and accelerates the alternating partial sums.
    """
    if not phase_frequency > 0.0:
        raise DomainError(
            "integrate_oscillatory_tail: phase_frequency must be > 0 "
            "(x = a makes the kernel non-oscillatory and the integral divergent)")
    if not (math.isfinite(start) and start >= 0.0):
        raise DomainError("integrate_oscillatory_tail: bad start")
    h = math.pi / phase_frequency
    max_k = cfg.max_half_periods
    chunks = np.empty(0, dtype=np.complex128)
    k_have = 0
    est = 0.0 + 0.0j
    inc = math.inf
    abs_mass = 0.0
    k_target = 16
    while True:
        k_target = min(k_target, max_k)
        if k_target > k_have:
            edges = start + h * np.arange(k_have, k_target + 1)
            new = _panel_values(integrand, edges[:-1], edges[1:], _GL_ORDER)
            chunks = np.concatenate([chunks, new])
            k_have = k_target
            abs_mass = float(np.sum(np.abs(chunks)))
        est, inc = _euler_accelerate(chunks, cfg.acceleration_depth)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(est))
        if inc <= 0.5 * tol:
            break
        if k_have >= max_k:
            break
        k_target = min(2 * k_have, max_k)
    err = inc + 1e-15 * abs_mass
    converged = inc <= 0.5 * max(cfg.abs_tol, cfg.rel_tol * abs(est))
    rep = EvaluationReport(est, err, converged)
    rep.add_diagnostic("half_periods", k_have)
    rep.add_diagnostic("half_period_length", h)
    rep.add_diagnostic("acceleration_increment", inc)
    return rep


def _probe_endpoint_slope(f, lo: float, width: float):
    """Least-squares log-log slope of |f| approaching lo from the right."""
    deltas = width * 4.0 ** (-np.arange(2, 11, dtype=np.float64))
    vals = np.abs(np.asarray(f(lo + deltas), dtype=np.complex128))
    good = vals > 0.0
    if good.sum() < 3:
        return 0.0
    slope = np.polyfit(np.log(deltas[good]), np.log(vals[good]), 1)[0]
    return float(slope)


def _head_region(f, lo: float, hi: float, omega: float, abs_tol: float,
                 rel_tol: float):
    """[lo, hi] with a possible algebraic singularity at lo.

    A detected blow-up milder than power -1 is handled on a log grid
    (resolves both the singularity and any log-phase oscillation); the rest
    is plain adaptive with oscillation-resolving initial panels.
    """
    width = hi - lo
    slope = _probe_endpoint_slope(f, lo, width / 4.0)
    if slope <= -0.98:
        raise DivergenceError(
            f"non-integrable endpoint at {lo:g} (fitted power {slope:.3f})")
    value = 0.0 + 0.0j
    err = 0.0
    converged = True
    main_lo = lo
    if slope < -0.05:
        w = width / 4.0
        f_at_w = abs(complex(np.asarray(f(np.array([lo + w])))[0]))
        c_est = f_at_w / w ** slope if f_at_w > 0 else 0.0
        if c_est > 0:
            target = 0.05 * abs_tol * (1.0 + slope) / c_est
            delta_min = target ** (1.0 / (1.0 + slope)) if target > 0 else 1e-280
            # floor keeps lo + delta_min representable above lo itself
            delta_min = min(max(delta_min, 1e-280, abs(lo) * 1e-13), w * 1e-3)
        else:
            delta_min = w * 1e-6
        # integral over [lo+delta_min, lo+w] in v = log(t - lo)
        def g(v):
            t = lo + np.exp(v)
            return np.asarray(f(t), dtype=np.complex128) * np.exp(v)
        v_lo, v_hi = math.log(delta_min), math.log(w)
        n0 = int(np.clip(math.ceil((v_hi - v_lo) * max(abs(omega) * w, 1.0) / 4.0), 8, 512))
        val, e, conv, _ = _adaptive_finite(g, v_lo, v_hi, abs_tol * 0.25, rel_tol,
                                           np.linspace(v_lo, v_hi, n0 + 1))
        value += val
        trunc = c_est * delta_min ** (1.0 + slope) / (1.0 + slope) if c_est > 0 else 0.0
        err += e + abs(trunc)
        converged &= conv
        main_lo = lo + w
    n0 = int(np.clip(math.ceil((hi - main_lo) * max(omega, 1e-30) / 2.0), 8, 4096))
    val, e, conv, _ = _adaptive_finite(f, main_lo, hi, abs_tol * 0.5, rel_tol,
                                       np.linspace(main_lo, hi, n0 + 1))
    value += val
    err += e
    converged &= conv
    return value, err, converged


def integrate_improper(integrand, lower: float, phase_frequency: float,
                       cfg: QuadratureConfig,
                       asymptotic_start: float | None = None) -> EvaluationReport:
    """int_lower^inf of an eventually-oscillatory (or decaying) integrand.

    phase_frequency = 0 selects the non-oscillatory route (doubling windows
    with geometric-decay detection); otherwise an adaptive head covers
    [lower, start of the asymptotic regime] and the accelerated tail the rest.
    Endpoint singularities milder than power -1 are allowed at `lower`.
    """
    if not (math.isfinite(lower) and lower >= 0.0):
        raise DomainError("integrate_improper: lower must be finite and >= 0")
    if phase_frequency < 0.0:
        raise DomainError("integrate_improper: phase_frequency must be >= 0")

    if phase_frequency == 0.0:
        return _integrate_nonoscillatory(integrand, lower, cfg)

    h = math.pi / phase_frequency
    start = asymptotic_start if asymptotic_start is not None else \
        max(ORIGIN_CUTOFF, lower + 4.0 * h)
    if start <= lower:
        start = lower + 4.0 * h
    head_val, head_err, head_conv = _head_region(
        integrand, lower, start, phase_frequency, cfg.abs_tol, cfg.rel_tol)
    tail = integrate_oscillatory_tail(integrand, phase_frequency, start, cfg)
    rep = EvaluationReport(
        head_val + tail.value,
        head_err + tail.abs_error_estimate,
        head_conv and tail.converged,
        list(tail.diagnostics),
    )
    rep.add_diagnostic("head_error", head_err)
    rep.add_diagnostic("asymptotic_start", start)
    return rep


def _integrate_nonoscillatory(integrand, lower: float, cfg: QuadratureConfig) -> EvaluationReport:
    l0 = max(ORIGIN_CUTOFF, lower + 1.0)
    value, err, conv = _head_region(integrand, lower, l0, 0.0, cfg.abs_tol, cfg.rel_tol)
    prev_mag = math.inf
    growth_streak = 0
    mags: list[float] = []
    left = l0
    converged = False
    for _ in range(64):
        right = 2.0 * left if left > 0 else 1.0
        seg, seg_err, seg_conv, _ = _adaptive_finite(
            integrand, left, right, cfg.abs_tol * 0.25, cfg.rel_tol,
            np.linspace(left, right, 9))
        value += seg
        err += seg_err
        conv &= seg_conv
        mag = abs(seg)
        mags.append(mag)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if mag <= 0.25 * tol:
            # geometric extrapolation of the remaining tail
            ratio = mag / prev_mag if prev_mag not in (0.0, math.inf) else 0.5
            err += mag * min(ratio, 0.999) / max(1e-3, 1.0 - min(ratio, 0.999))
            converged = True
            break
        # fast (exponential-type) growth is divergence; flat windows are
        # allowed to keep doubling - slowly-switched-on tails (coincidence
        # limits of oscillatory kernels) look flat for many octaves
        if mag > 2.0 * prev_mag and mag > tol:
            growth_streak += 1
            if growth_streak >= 3:
                raise DivergenceError(
                    "integrate_improper: window contributions are growing")
        else:
            growth_streak = 0
        prev_mag = mag
        left = right
    else:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if mags and mags[-1] >= 0.5 * max(mags) and mags[-1] > tol:
            raise DivergenceError(
                "integrate_improper: window contributions are not decaying")
    rep = EvaluationReport(value, err, converged and conv)
    rep.add_diagnostic("window_end", left)
    return rep


def integrate_semiinfinite_from_a(integrand, a: float, phase_frequency: float,
                                  cfg: QuadratureConfig,
                                  asymptotic_start: float | None = None) -> EvaluationReport:
    """int_a^inf with the oscillation living in the integration variable.

    Same machinery as integrate_improper; the default asymptotic start keeps
    (variable * frequency) >= 10 so the cosine model holds before the
    accelerated tail takes over.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError("integrate_semiinfinite_from_a: a must be finite and > 0")
    if asymptotic_start is None and phase_frequency > 0.0:
        asymptotic_start = a + max(ORIGIN_CUTOFF, 10.0 / phase_frequency)
    return integrate_improper(integrand, a, phase_frequency, cfg, asymptotic_start)


def integrate_cross_product(integrand, x: float, a: float,
                            cfg: QuadratureConfig) -> EvaluationReport:
    """int_0^inf d lam of an integrand carrying a Bessel cross product at
    x lam and a lam (x != a): the twin of integrate_semiinfinite_from_a.
    The product beats at frequency |x - a|, and the accelerated tail takes
    over once lam * min(x, a) >= 10, where both factors follow their cosine
    models."""
    return integrate_improper(integrand, 0.0, abs(x - a), cfg,
                              asymptotic_start=max(ORIGIN_CUTOFF, 10.0 / min(x, a)))


def raw_tail_sum(integrand, phase_frequency: float, start: float,
                 n_half_periods: int) -> complex:
    """Plain (unaccelerated) sum of n half-period chunks from `start`."""
    if not phase_frequency > 0.0:
        raise DomainError("raw_tail_sum: phase_frequency must be > 0")
    h = math.pi / phase_frequency
    edges = start + h * np.arange(n_half_periods + 1)
    return complex(np.sum(_panel_values(integrand, edges[:-1], edges[1:], _GL_ORDER)))


def truncation_remainders(integrand, phase_frequency: float, start: float,
                          period_counts, reference: complex):
    """|remainder| of the raw truncated integral at phase-locked cutoffs.

    Cutoffs sit whole periods (2 pi / frequency) past `start` so the
    oscillatory factor of the remainder has fixed phase and a log-log fit
    recovers the algebraic decay exponent cleanly.  Returns (N_values,
    |remainder| values) for cutoff N = start + k * period.
    """
    period_counts = sorted(int(k) for k in period_counts)
    kmax = period_counts[-1]
    h = math.pi / phase_frequency
    edges = start + h * np.arange(2 * kmax + 1)
    chunks = _panel_values(integrand, edges[:-1], edges[1:], _GL_ORDER)
    partial = np.cumsum(chunks)
    ns, rems = [], []
    for k in period_counts:
        ns.append(start + 2 * k * h)
        acc = partial[2 * k - 1] if k > 0 else 0.0
        rems.append(abs(reference - acc))
    return np.asarray(ns), np.asarray(rems)

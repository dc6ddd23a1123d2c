"""Top level: the forward transform of the mixed-order integral equation
(direct quadrature and contour forms), its closed-form inversion (final and
derivative forms), the reduced first-order equation check, and the classical
repeated-integral expansion verifications.

The forward map takes phi (on the positive axis, order-nu kernel) to
f(x) = int_0^inf phi(lam) [J_nu(x lam) Y_{nu+1}(a lam)
                           - Y_nu(x lam) J_{nu+1}(a lam)] d lam,  x > a;
its inverse, for -1 < nu < -1/2 and admissible classes, is

phi(lam) = lam / (J_{nu+1}^2(a lam) + Y_{nu+1}^2(a lam))
           * int_a^inf t f(t) [J_nu(lam t) Y_{nu+1}(a lam)
                               - Y_nu(lam t) J_{nu+1}(a lam)] dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .closedform import fnu_dx_matrix, fnu_matrix
from .errors import DomainError, MembershipError, StripError
from .kernels import KernelParams, kernel_C, weber_kernel
from .mellin import (ContourSpec, MellinRepresentation, _contour_sum,
                     _phi_values, contour_integral)
from .quadrature import (ORIGIN_CUTOFF, QuadratureConfig, integrate_improper,
                         integrate_semiinfinite_from_a)
from .report import EvaluationReport


@dataclass(frozen=True)
class TestFunctionFamily:
    """Beta-kernel Mellin pair: symbol G(s+p) G(q-s) on -p < Re s < q,
    with the explicit originals

        phi(lam)     = G(p+q) lam^p (1+lam)^{-p-q}
        lam phi(lam) = inverse transform of G(s+1+p) G(q-1-s) one strip over.

    The workhorse of the round-trip tests: phi is known in closed form and
    the symbol decays like e^{-pi |Im s|}, so every membership flag passes.
    """

    p: int
    q: float

    def __post_init__(self):
        if self.p < 1:
            raise DomainError("TestFunctionFamily: p must be a positive integer")
        if not (math.isfinite(self.q) and self.q > 0.0):
            raise DomainError("TestFunctionFamily: q must be positive")

    @property
    def strip(self) -> tuple[float, float]:
        return (-float(self.p), float(self.q))

    def phi(self, lam):
        lam = np.asarray(lam, dtype=np.float64)
        g = math.gamma(self.p + self.q)
        return g * lam ** self.p * (1.0 + lam) ** (-(self.p + self.q))

    def symbol(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=np.complex128)
        return specfun.gamma_array(s + self.p) * specfun.gamma_array(self.q - s)

    def shifted_symbol(self, s) -> np.ndarray:
        """Symbol of lam * phi(lam) (contour one unit left of phi's)."""
        s = np.asarray(s, dtype=np.complex128)
        return self.symbol(s + 1.0)

    def representation(self, contour: ContourSpec) -> MellinRepresentation:
        lo, hi = self.strip
        if not (lo < contour.mu < hi):
            raise StripError(
                f"family contour mu={contour.mu} outside the strip ({lo}, {hi})")
        return MellinRepresentation(self.symbol, contour, 0.5, 1.0)


@dataclass
class SolveResult:
    """Grid solution: (lambda, phi value, error estimate) rows; converged is
    False when any row missed its tolerance."""

    phi_values: list[tuple[float, complex, float]]
    config_echo: QuadratureConfig
    diagnostics: list[tuple[str, float]] = field(default_factory=list)
    converged: bool = True

    def __post_init__(self):
        lams = [row[0] for row in self.phi_values]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise DomainError("SolveResult: lambda grid must be strictly increasing")
        if any(row[2] < 0.0 for row in self.phi_values):
            raise DomainError("SolveResult: error estimates must be non-negative")


def default_contour(params: KernelParams) -> ContourSpec:
    """Midpoint of the admissible strip (-1, nu): maximal pole clearance."""
    params.require_solver_order()
    return ContourSpec(mu=0.5 * (-1.0 + params.nu), t_max=16.0, n_panels=16)


def _require_forward_admissible(rep: MellinRepresentation, params: KernelParams):
    params.require_solver_order()
    mu = rep.contour.mu
    if not (-1.0 < mu < 0.0):
        raise StripError(f"forward_contour: contour mu={mu} outside (-1, 0)")
    if not mu < params.nu:
        raise DomainError(
            f"forward_contour: mu={mu} must lie left of nu={params.nu} "
            "for the transform to decay")
    if not MellinRepresentation(rep.phi, rep.contour, 0.5, 1.0).is_member():
        raise MembershipError(
            "forward_contour: symbol failed the exponential-weight (1/2, 1) "
            "membership flag")


def forward_direct(phi, params: KernelParams, x: float,
                   cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """f(x) by direct quadrature of phi against the kernel (frequency x - a)."""
    params.require_solver_order()
    cfg = cfg or QuadratureConfig()
    x = float(x)
    if x <= params.a:
        raise DomainError("forward_direct: requires x > a")

    def integrand(lam):
        lam = np.asarray(lam, dtype=np.float64)
        return np.asarray(phi(lam), dtype=np.complex128) * weber_kernel(params, x, lam)

    start = max(ORIGIN_CUTOFF, 10.0 / min(x, params.a))
    return integrate_improper(integrand, 0.0, x - params.a, cfg,
                              asymptotic_start=start)


def _forward_integrand(rep: MellinRepresentation, params: KernelParams,
                       matrix_fn, xs):
    """Contour points -> symbol(s) * matrix_fn(x, s) for the abscissas xs."""
    return lambda svals: _phi_values(rep, svals)[:, None] * matrix_fn(params, svals, xs)


def forward_contour_profile(rep: MellinRepresentation, params: KernelParams,
                            xs, abs_tol: float = 1e-9,
                            rel_tol: float = 1e-8) -> EvaluationReport:
    """f on an array of abscissas via the contour form: the symbol times the
    closed-form kernel image, integrated along the representation's contour."""
    _require_forward_admissible(rep, params)
    return contour_integral(_forward_integrand(rep, params, fnu_matrix, xs),
                            rep.contour, abs_tol, rel_tol)


def forward_contour(rep: MellinRepresentation, params: KernelParams, x: float,
                    abs_tol: float = 1e-9, rel_tol: float = 1e-8) -> EvaluationReport:
    """f(x) via the contour form at a single abscissa."""
    out = forward_contour_profile(rep, params, [float(x)], abs_tol, rel_tol)
    return EvaluationReport(complex(out.value[0]), out.abs_error_estimate,
                            out.converged, out.diagnostics)


def _make_contour_profile(rep: MellinRepresentation, params: KernelParams,
                          matrix_fn, abs_tol: float, rel_tol: float):
    """Closure evaluating the contour integral of phi * matrix_fn over
    t-batches.  The first call refines through contour_integral and pins the
    trapezoid level it ended on (the integrand's analytic structure does not
    change between batches); later calls make one pass at that level.  The
    closure's `report` holds the first call's error estimate and converged
    flag once it is made.
    """
    refine = None

    def profile(ts):
        nonlocal refine
        fn = _forward_integrand(rep, params, matrix_fn, ts)
        if refine is not None:
            return _contour_sum(fn, rep.contour, refine)
        out = contour_integral(fn, rep.contour, abs_tol, rel_tol)
        refine = int(out.diagnostic("refine"))
        # filled in place, so wrappers that copied the attribute see it
        vars(profile.report).update(abs_error_estimate=out.abs_error_estimate,
                                    converged=out.converged, diagnostics=out.diagnostics)
        return out.value

    profile.report = EvaluationReport(0.0, 0.0, True)
    return profile


def make_forward_function(rep: MellinRepresentation, params: KernelParams,
                          abs_tol: float = 1e-9, rel_tol: float = 1e-8):
    """Vectorized t -> f(t) closure (membership checked once, here)."""
    _require_forward_admissible(rep, params)
    return _make_contour_profile(rep, params, fnu_matrix, abs_tol, rel_tol)


def make_forward_derivative_function(rep: MellinRepresentation, params: KernelParams,
                                     abs_tol: float = 1e-9, rel_tol: float = 1e-8):
    """Vectorized t -> f'(t) closure via the differentiated closed form."""
    _require_forward_admissible(rep, params)
    return _make_contour_profile(rep, params, fnu_dx_matrix, abs_tol, rel_tol)


def _closed_form_inverse(integrand, params: KernelParams, lam: float,
                         cfg: QuadratureConfig | None,
                         numerator: float, profiles: tuple) -> EvaluationReport:
    """Scaffold of both inverse forms: numerator / (J^2 + Y^2 at a lam)
    times int_a^inf integrand(t, lam) dt.  converged is also False when the
    first call of a forward function in `profiles` (its `report`) was."""
    params.require_solver_order()
    cfg = cfg or QuadratureConfig()
    lam = float(lam)
    if not lam > 0.0:
        raise DomainError("inverse_solve: lambda must be > 0")
    ja, ya = specfun.bessel_jy(params.nu + 1.0, params.a * lam)
    denom = ja * ja + ya * ya
    if denom == 0.0 or not math.isfinite(denom):
        raise DomainError(
            "inverse_solve: denominator underflow - J^2+Y^2 is strictly "
            "positive, this signals an evaluation failure")
    inner = integrate_semiinfinite_from_a(
        lambda ts: integrand(np.asarray(ts, dtype=np.float64), lam),
        params.a, lam, cfg)
    settled = all(getattr(getattr(p, "report", None), "converged", True)
                  for p in profiles)
    scale = numerator / denom
    rep = EvaluationReport(scale * inner.value,
                           abs(scale) * inner.abs_error_estimate,
                           inner.converged and settled, list(inner.diagnostics))
    rep.add_diagnostic("denominator", denom)
    return rep


def inverse_solve(f, params: KernelParams, lam: float,
                  cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """Closed-form inverse: phi(lam) = lam/(J^2+Y^2 at a lam) * int_a^inf
    t f(t) [J_nu(lam t) Y_{nu+1}(a lam) - Y_nu(lam t) J_{nu+1}(a lam)] dt."""
    def integrand(ts, lam):
        return ts * np.asarray(f(ts), dtype=np.complex128) \
            * weber_kernel(params, ts, lam)

    return _closed_form_inverse(integrand, params, lam, cfg, float(lam), (f,))


def inverse_solve_derivative_form(f, f_prime, params: KernelParams, lam: float,
                                  cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """Inverse in the differentiated form: -1/(J^2+Y^2) * int_a^inf
    C_{nu+1}(lam t, lam a) t^{nu+1} d/dt[t^{-nu} f(t)] dt, with the
    derivative assembled from f and f_prime (t f' - nu f after the powers
    cancel)."""
    def integrand(ts, lam):
        dcomb = ts * np.asarray(f_prime(ts), dtype=np.complex128) \
            - params.nu * np.asarray(f(ts), dtype=np.complex128)
        return kernel_C(params.nu + 1.0, lam * ts, lam * params.a) * dcomb

    return _closed_form_inverse(integrand, params, lam, cfg, -1.0, (f, f_prime))


def solve_grid(f, params: KernelParams, lambdas,
               cfg: QuadratureConfig | None = None) -> SolveResult:
    """inverse_solve over a strictly increasing lambda grid; the result's
    converged is False when any lambda missed its tolerance."""
    cfg = cfg or QuadratureConfig()
    rows = []
    worst = 0.0
    converged = True
    for lam in lambdas:
        rep = inverse_solve(f, params, float(lam), cfg)
        rows.append((float(lam), complex(rep.value), rep.abs_error_estimate))
        worst = max(worst, rep.abs_error_estimate)
        converged &= bool(rep.converged)
    out = SolveResult(rows, cfg, converged=converged)
    out.diagnostics.append(("max_error_estimate", worst))
    return out


def reduced_equation_check(phi, params: KernelParams, x: float,
                           f_derivative_side,
                           cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """Defect of the differentiated (order nu+1) equation:

    | int_0^inf lam phi(lam) [Y_{nu+1}(x lam) J_{nu+1}(a lam)
                              - J_{nu+1}(x lam) Y_{nu+1}(a lam)] d lam
      - x^nu d/dx [x^{-nu} f(x)] |,

    the right side supplied by the caller (closed form, contour form, or
    finite differences)."""
    params.require_solver_order()
    cfg = cfg or QuadratureConfig()
    x = float(x)
    if x <= params.a:
        raise DomainError("reduced_equation_check: requires x > a")

    def integrand(lam):
        lam = np.asarray(lam, dtype=np.float64)
        return -lam * np.asarray(phi(lam), dtype=np.complex128) \
            * kernel_C(params.nu + 1.0, x * lam, params.a * lam)

    start = max(ORIGIN_CUTOFF, 10.0 / min(x, params.a))
    lhs = integrate_improper(integrand, 0.0, x - params.a, cfg,
                             asymptotic_start=start)
    rhs = complex(f_derivative_side(x))
    rep = EvaluationReport(abs(complex(lhs.value) - rhs),
                           lhs.abs_error_estimate, lhs.converged)
    rep.add_diagnostic("lhs_re", float(np.real(lhs.value)))
    rep.add_diagnostic("rhs_re", rhs.real)
    return rep


def _memoized_profile(fn_scalar):
    cache: dict[float, complex] = {}

    def wrapped(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        out = np.empty(ts.shape, dtype=np.complex128)
        for i, t in enumerate(ts):
            key = float(t)
            if key not in cache:
                cache[key] = fn_scalar(key)
            out[i] = cache[key]
        return out

    return wrapped


_SLOW_FREQ = 0.3  # below this the oscillatory tail model is not worth it


def _inner_improper(integrand, lower: float, freq: float, cfg: QuadratureConfig,
                    start_hint: float | None = None) -> complex:
    """Inner-integral helper for the expansions: falls back to the
    non-oscillatory route when the beat frequency is too slow.  start_hint
    is the asymptotic start of the oscillatory route from lower = 0."""
    if abs(freq) < _SLOW_FREQ:
        rep = integrate_improper(integrand, lower, 0.0, cfg)
    elif lower > 0.0:
        rep = integrate_semiinfinite_from_a(integrand, lower, abs(freq), cfg)
    else:
        rep = integrate_improper(integrand, lower, abs(freq), cfg,
                                 asymptotic_start=start_hint)
    return complex(rep.value)


def expansion_titchmarsh(g, params: KernelParams, x: float,
                         cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """Deviation of the repeated-integral reconstruction from g(x):

    recon(x) = x/(J_nu^2(a x)+Y_nu^2(a x)) *
               int_a^inf C_nu(x t, x a) t [int_0^inf C_nu(t xi, a xi) g(xi) d xi] dt.

    Valid order range 0 < nu < 1/2 (independent of the solver's range).  By
    far the most expensive operation here: nested improper integrals.
    """
    if not (0.0 < params.nu < 0.5):
        raise DomainError("expansion_titchmarsh: requires 0 < nu < 1/2")
    cfg = cfg or QuadratureConfig(abs_tol=1e-8, rel_tol=1e-6)
    x = float(x)
    if x <= 0.0:
        raise DomainError("expansion_titchmarsh: x must be > 0")
    a, nu = params.a, params.nu

    def inner_scalar(t: float) -> complex:
        def h(xi):
            xi = np.asarray(xi, dtype=np.float64)
            return kernel_C(nu, t * xi, a * xi) * np.asarray(g(xi), dtype=np.complex128)
        return _inner_improper(h, 0.0, t - a, cfg,
                               start_hint=max(ORIGIN_CUTOFF, 10.0 / min(t, a)))

    inner = _memoized_profile(inner_scalar)

    def outer(ts):
        ts = np.asarray(ts, dtype=np.float64)
        return kernel_C(nu, x * ts, x * a) * ts * inner(ts)

    out = integrate_semiinfinite_from_a(outer, a, x, cfg)
    jax_, yax = specfun.bessel_jy(nu, a * x)
    recon = x / (jax_ * jax_ + yax * yax) * complex(out.value)
    g_at = complex(np.asarray(g(np.array([x])), dtype=np.complex128)[0])
    rep = EvaluationReport(abs(recon - g_at), out.abs_error_estimate,
                           out.converged)
    rep.add_diagnostic("reconstructed_re", recon.real)
    rep.add_diagnostic("target_re", g_at.real)
    return rep


def expansion_weber_orr(f, params: KernelParams, x: float, variant: int,
                        cfg: QuadratureConfig | None = None) -> EvaluationReport:
    """Deviation of the classical repeated-integral expansions from f(x).

    variant 4:  f(x) =? int_0^inf t C_nu(x t, a t)/(J_nu^2(a t)+Y_nu^2(a t))
                        * [int_a^inf C_nu(xi t, a t) xi f(xi) d xi] dt   (x > a)
    variant 5:  f(x) =? int_a^inf C_nu(x t, x a) t
                        * [int_0^inf C_nu(t xi, a xi)/(J_nu^2(a xi)+Y_nu^2(a xi))
                           xi f(xi) d xi] dt
    """
    if variant not in (4, 5):
        raise DomainError("expansion_weber_orr: variant must be 4 or 5")
    cfg = cfg or QuadratureConfig(abs_tol=1e-8, rel_tol=1e-6)
    x = float(x)
    a, nu = params.a, params.nu
    if variant == 4 and x <= a:
        raise DomainError("expansion_weber_orr variant 4: requires x > a")
    if x <= 0.0:
        raise DomainError("expansion_weber_orr: x must be > 0")

    if variant == 4:
        def inner_scalar(t: float) -> complex:
            def h(xi):
                xi = np.asarray(xi, dtype=np.float64)
                return kernel_C(nu, xi * t, a * t) * xi \
                    * np.asarray(f(xi), dtype=np.complex128)
            return _inner_improper(h, a, t, cfg)

        inner = _memoized_profile(inner_scalar)

        def outer(ts):
            ts = np.asarray(ts, dtype=np.float64)
            ja, ya = specfun.bessel_jy(nu, a * ts)
            return ts * kernel_C(nu, x * ts, a * ts) / (ja * ja + ya * ya) * inner(ts)

        out = integrate_improper(
            outer, 0.0, x - a, cfg,
            asymptotic_start=max(ORIGIN_CUTOFF, 10.0 / min(x, a)))
    else:
        def inner_scalar(t: float) -> complex:
            def h(xi):
                xi = np.asarray(xi, dtype=np.float64)
                ja, ya = specfun.bessel_jy(nu, a * xi)
                return kernel_C(nu, t * xi, a * xi) / (ja * ja + ya * ya) * xi \
                    * np.asarray(f(xi), dtype=np.complex128)
            return _inner_improper(h, 0.0, t - a, cfg,
                                   start_hint=max(ORIGIN_CUTOFF, 10.0 / min(t, a)))

        inner = _memoized_profile(inner_scalar)

        def outer(ts):
            ts = np.asarray(ts, dtype=np.float64)
            return kernel_C(nu, x * ts, x * a) * ts * inner(ts)

        out = integrate_semiinfinite_from_a(outer, a, x, cfg)

    f_at = complex(np.asarray(f(np.array([x])), dtype=np.complex128)[0])
    recon = complex(out.value)
    rep = EvaluationReport(abs(recon - f_at), out.abs_error_estimate, out.converged)
    rep.add_diagnostic("reconstructed_re", recon.real)
    rep.add_diagnostic("target_re", f_at.real)
    return rep

"""Self-contained special functions: Bessel J/Y of real order, complex gamma,
beta, and Gauss 2F1 with complex parameters on z in [0, 1).

Everything here is pure numpy (no scipy/mpmath at runtime).  Internal Bessel
arithmetic runs in numpy long double (80-bit on x86 Linux) so that the
series/asymptotic handover keeps ~1e-13 relative accuracy; results are
returned as float64.  All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError, PoleProximityError

_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")

SUPPORTED_ORDER_MAX = 50.0
_SERIES_XMAX = 16.0
_SERIES_MAX_TERMS = 600
_HYP_MAX_TERMS = 10_000
_CF1_MAX_TERMS = 10_000
_INTEGER_ORDER_TOL = 1e-8

# Lanczos g=607/128, 15 coefficients (Godfrey).  Double-precision optimal:
# measured worst relative error 8.8e-14 on |Re s|<=10, |Im s|<=100.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])


# ----------------------------------------------------------------------
# gamma family
# ----------------------------------------------------------------------

def _lanczos_core(z):
    """Lanczos sum for Re z >= 0.5; z complex array."""
    zm = z - 1.0
    s = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[i] / (zm + i)
    t = zm + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * np.exp((zm + 0.5) * np.log(t) - t) * s


def _gamma_array(z):
    z = np.asarray(z, dtype=np.complex128)
    refl = z.real < 0.5
    out = np.empty_like(z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if np.any(~refl):
            out[~refl] = _lanczos_core(z[~refl])
        if np.any(refl):
            zr = z[refl]
            out[refl] = np.pi / (np.sin(np.pi * zr) * _lanczos_core(1.0 - zr))
    return out


def _near_nonpositive_integer(z, tol: float) -> bool:
    """Does z (a scalar or any entry of an array) lie within tol of a pole?"""
    z = np.asarray(z, dtype=np.complex128)
    n = np.round(z.real)
    return bool(np.any((n <= 0) & (np.abs(z - n) < tol)))


def gamma(s) -> complex:
    """Euler gamma of a complex argument.

    Reflection formula for Re s < 0.5.  Raises PoleProximityError within
    1e-12 of a non-positive integer.  Accuracy <= 1e-13 relative on the
    strip |Re s| <= 10, |Im s| <= 100 (the supported strip).
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("gamma: argument must be finite")
    if _near_nonpositive_integer(s, 1e-12):
        raise PoleProximityError(f"gamma: {s} is within 1e-12 of a pole")
    return complex(_gamma_array(np.array([s]))[0])


def gamma_array(z) -> np.ndarray:
    """Vectorized gamma without pole guards (contour integrands; the caller
    keeps the contour away from poles)."""
    return _gamma_array(np.asarray(z, dtype=np.complex128))


def rgamma(s) -> complex:
    """Reciprocal gamma 1/Gamma(s), entire (returns 0 at the poles of gamma)."""
    s = complex(s)
    if s.real < 0.5:
        if s.imag == 0.0:
            return complex(_rgamma_real(s.real))
        return complex(np.sin(np.pi * s) * _gamma_array(np.array([1.0 - s]))[0] / np.pi)
    return 1.0 / complex(_gamma_array(np.array([s]))[0])


def rgamma_array(z) -> np.ndarray:
    """Vectorized reciprocal gamma (entire; no pole guards)."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    refl = z.real < 0.5
    if np.any(~refl):
        out[~refl] = 1.0 / _gamma_array(z[~refl])
    if np.any(refl):
        zr = z[refl]
        out[refl] = np.sin(np.pi * zr) * _gamma_array(1.0 - zr) / np.pi
    return out


def beta(a, b) -> complex:
    """Euler beta B(a,b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    a, b = complex(a), complex(b)
    return gamma(a) * gamma(b) / gamma(a + b)


def _rgamma_real(v: float) -> float:
    """1/Gamma(v) for real v, with correct sign; 0 at non-positive integers."""
    if v > 0.0:
        return math.exp(-math.lgamma(v))
    if v == math.floor(v):
        return 0.0
    # 1/Gamma(v) = sin(pi v) Gamma(1-v) / pi
    return _sinpi(v) * math.exp(math.lgamma(1.0 - v)) / math.pi


def _cospi(v: float) -> float:
    """cos(pi v) with exact zeros at half-integers (argument reduction mod 2)."""
    r = abs(math.fmod(v, 2.0))
    if r > 1.0:
        r = 2.0 - r
    if r == 0.5:
        return 0.0
    if r <= 0.25:
        return math.cos(math.pi * r)
    if r <= 0.75:
        return math.sin(math.pi * (0.5 - r))
    return -math.cos(math.pi * (1.0 - r))


def _sinpi(v: float) -> float:
    """sin(pi v) with exact zeros at integers (argument reduction mod 2)."""
    sgn = math.copysign(1.0, v)
    r = math.fmod(abs(v), 2.0)
    if r >= 1.0:
        sgn, r = -sgn, r - 1.0
    if r == 0.0:
        return 0.0
    if r == 0.5:
        return sgn
    if r <= 0.25:
        return sgn * math.sin(math.pi * r)
    if r <= 0.75:
        return sgn * math.cos(math.pi * (0.5 - r))
    return sgn * math.sin(math.pi * (1.0 - r))


# ----------------------------------------------------------------------
# Bessel J, Y of real order
# ----------------------------------------------------------------------

def _hankel_xmin(nu: float) -> float:
    # below this the large-argument expansion cannot reach ~1e-13
    return max(_SERIES_XMAX, 0.85 * nu * nu)


def _series_j_ld(order: float, x_ld):
    """Ascending series for J_order, long-double array x (x <= ~18)."""
    half = _LD(0.5) * x_ld
    t0 = np.exp(_LD(order) * np.log(half)) * _LD(_rgamma_real(order + 1.0))
    term = t0.copy()
    acc = t0.copy()
    q = -half * half
    order_ld = _LD(order)
    floor = _LD("1e-4900")
    for k in range(1, _SERIES_MAX_TERMS):
        term = term * (q / (_LD(k) * (_LD(k) + order_ld)))
        acc = acc + term
        # per-element criterion: batches mix wildly different scales
        if np.all(np.abs(term) <= _LD(1e-24) * (np.abs(acc) + floor)):
            break
    return acc


def _series_jy_ld(nu: float, x_ld, want_y: bool):
    if want_y and abs(nu - round(nu)) < _INTEGER_ORDER_TOL:
        raise DomainError(
            "bessel_y: order within 1e-8 of an integer needs a limit "
            f"formulation that is not implemented for x <= {_SERIES_XMAX:g}"
        )
    if nu < 0 and nu == round(nu):  # J_{-m} = (-1)^m J_m
        return _LD((-1.0) ** int(-nu)) * _series_j_ld(-nu, x_ld), None
    jp = _series_j_ld(nu, x_ld)
    if not want_y:
        return jp, None
    jm = _series_j_ld(-nu, x_ld)
    # exact-zero trig keeps half-integer orders from huge*tiny contamination
    y = (jp * _LD(_cospi(nu)) - jm) / _LD(_sinpi(nu))
    return jp, y


def _hankel_jy_ld(nu: float, x_ld):
    """Large-argument expansion, min-term truncation.  x >= _hankel_xmin(nu).

    The P/Q coefficient sums run in float64 (all terms are <= 1, rounding is
    ~1e-17 of the leading term); only the phase omega = x - (nu/2 + 1/4) pi
    and the trig evaluations need the extended precision.
    """
    mu4 = 4.0 * nu * nu
    x64 = x_ld.astype(np.float64)
    t = np.ones_like(x64)
    p_sum = np.ones_like(x64)
    q_sum = np.zeros_like(x64)
    active = np.ones(x64.shape, dtype=bool)
    for m in range(1, 80):
        t_new = t * ((mu4 - (2 * m - 1) ** 2) / (8.0 * m)) / x64
        grew = np.abs(t_new) >= np.abs(t)
        active = active & ~grew
        if not active.any():
            break
        t = np.where(active, t_new, 0.0)
        j = m // 2
        sgn = -1.0 if j % 2 == 1 else 1.0
        if m % 2 == 0:
            p_sum = p_sum + sgn * t
        else:
            q_sum = q_sum + sgn * t
    omega = x_ld - _LD(nu / 2.0 + 0.25) * _PI_LD
    pref = np.sqrt(_LD(2.0) / (_PI_LD * x_ld))
    cw, sw = np.cos(omega), np.sin(omega)
    j_val = pref * (cw * p_sum - sw * q_sum)
    y_val = pref * (sw * p_sum + cw * q_sum)
    return j_val, y_val


def _cf1_ld(nu: float, x_ld):
    """CF1 ratio J_nu'/J_nu (modified Lentz) for nu > 0, long-double array x.

    Every point runs the scalar recurrence; a point's ratio freezes once its
    step factor is within eps of 1.  About x + nu steps.
    """
    eps = np.finfo(_LD).eps
    tiny = _LD("1e-4000")  # float literal would underflow to 0 before the cast
    xi2 = _LD(2.0) / x_ld
    h = _LD(nu) / x_ld
    b = xi2 * _LD(nu)
    c = h
    d = np.zeros_like(x_ld)
    active = np.ones(x_ld.shape, dtype=bool)
    for _ in range(_CF1_MAX_TERMS):
        b = b + xi2
        d = b - d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b - 1.0 / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = c * d
        h = np.where(active, delta * h, h)
        active &= np.abs(delta - 1.0) > eps
        if not active.any():
            return h
    raise ConvergenceError("bessel: CF1 did not converge")


def _jy_middle_ld(nu: float, x_ld):
    """J_nu, Y_nu in the band 16 < x < 0.85 nu^2 (|nu| > 4.3), long double.

    Y at the reduced order mu = |nu| - floor(|nu|) and at mu + 1 comes from
    the large-argument expansion (x > 16 = _hankel_xmin for orders <= 2) and
    recurs upward to |nu| and |nu| + 1, the stable direction for Y (DLMF
    10.6.1).  The Wronskian J Y' - J' Y = 2/(pi x) (DLMF 10.5.2) with the CF1
    ratio J'/J then gives J.  Negative orders by reflection.
    """
    v = abs(nu)
    n = int(v)
    mu = v - n
    y0 = _hankel_jy_ld(mu, x_ld)[1]
    y1 = _hankel_jy_ld(mu + 1.0, x_ld)[1]
    for k in range(1, n + 1):
        y0, y1 = y1, _LD(2.0 * (mu + k)) / x_ld * y1 - y0
    yp = _LD(v) / x_ld * y0 - y1
    j = _LD(2.0) / (_PI_LD * x_ld * (yp - _cf1_ld(v, x_ld) * y0))
    if nu >= 0.0:
        return j, y0
    cp, sp = _LD(_cospi(v)), _LD(_sinpi(v))
    return cp * j - sp * y0, sp * j + cp * y0


def _bessel_jy_impl(nu: float, x, want_y: bool):
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("bessel: argument must be finite and > 0")
    if abs(nu) > SUPPORTED_ORDER_MAX:
        raise DomainError(f"bessel: |order| <= {SUPPORTED_ORDER_MAX:g} supported, got {nu}")

    j_out = np.empty_like(arr)
    y_out = np.empty_like(arr) if want_y else None
    ser = arr <= _SERIES_XMAX
    han = arr >= _hankel_xmin(nu)
    for mask, branch in ((ser, functools.partial(_series_jy_ld, want_y=want_y)),
                         (han, _hankel_jy_ld), (~ser & ~han, _jy_middle_ld)):
        if mask.any():
            jv, yv = branch(nu, arr[mask].astype(_LD))
            j_out[mask] = jv.astype(np.float64)
            if want_y:
                y_out[mask] = yv.astype(np.float64)

    if scalar:
        return float(j_out[0]), (float(y_out[0]) if want_y else None)
    return j_out, y_out


def bessel_j(nu: float, x):
    """J_nu(x) for real order |nu| <= 50, x > 0.  Accepts scalars or arrays."""
    return _bessel_jy_impl(float(nu), x, want_y=False)[0]


def bessel_y(nu: float, x):
    """Y_nu(x) for real order, x > 0.

    Computed from the connection formula (J_nu cos(pi nu) - J_{-nu})/sin(pi nu)
    in the series region; orders within 1e-8 of an integer raise there.
    """
    return _bessel_jy_impl(float(nu), x, want_y=True)[1]


def bessel_jy(nu: float, x):
    """(J_nu(x), Y_nu(x)) sharing the evaluation work."""
    j, y = _bessel_jy_impl(float(nu), x, want_y=True)
    return j, y


# ----------------------------------------------------------------------
# Gauss 2F1
# ----------------------------------------------------------------------

def _hyp2f1_rows_times_vandermonde(a, b, c, z):
    """Separable series: term_k(i, j) = R_k(i) z_j^k, so the 2F1 matrix is
    (coefficient rows) @ (Vandermonde of z) - one BLAS pass instead of a
    per-term broadcast loop.  Truncation is controlled at the largest z.
    """
    m, n = len(a), len(z)
    zmax = float(np.max(z)) if n else 0.0
    coeff = np.ones(m, dtype=np.complex128)
    rows = [coeff]
    probe_sum = coeff.copy()
    zpow = 1.0
    small_runs = 0
    for k in range(_HYP_MAX_TERMS):
        coeff = coeff * ((a + k) * (b + k)) / ((c + k) * (k + 1.0))
        rows.append(coeff)
        zpow *= zmax
        probe = np.abs(coeff) * zpow
        probe_sum = probe_sum + coeff * zpow
        if np.all(probe <= 5e-17 * (np.abs(probe_sum) + 1e-300)):
            small_runs += 1
            if small_runs >= 2:
                break
        else:
            small_runs = 0
    else:
        raise ConvergenceError("hyp2f1: no convergence within term budget")
    rmat = np.stack(rows, axis=1)  # (m, K)
    vand = np.vander(z, N=rmat.shape[1], increasing=True).T  # (K, n) real
    return rmat.real @ vand + 1j * (rmat.imag @ vand)


def _hyp2f1_routed(a, b, c, z) -> np.ndarray:
    """2F1 on parameter rows a, b, c (complex, shape (m,)) x real z (n,),
    returning (m, n), every series summed by _hyp2f1_rows_times_vandermonde.
    Direct series for z <= 0.75; the 1-z connection formula (DLMF 15.8.4)
    above, which controls the z -> 1 cancellation.  When some row's c-a-b
    sits within 1e-3 of an integer (the connection coefficients blow up
    there) the direct series serves up to z <= 0.95; beyond, it raises.
    """
    a, b, c = (np.atleast_1d(np.asarray(p, dtype=np.complex128)) for p in (a, b, c))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise DomainError("hyp2f1: z must lie in [0, 1)")
    if _near_nonpositive_integer(c, 1e-12):
        raise PoleProximityError("hyp2f1: a row's c is within 1e-12 of a pole")
    out = np.empty((len(a), len(z)), dtype=np.complex128)
    lo = z <= 0.75
    if lo.any():
        out[:, lo] = _hyp2f1_rows_times_vandermonde(a, b, c, z[lo])
    hi = ~lo
    if hi.any():
        d = c - a - b
        dist = np.abs(d - np.round(d.real))
        if np.any(dist < 1e-3):
            if np.all(z[hi] <= 0.95):
                out[:, hi] = _hyp2f1_rows_times_vandermonde(a, b, c, z[hi])
                return out
            raise ConvergenceError(
                "hyp2f1: z > 0.95 with c-a-b within 1e-3 of an integer "
                "is not supported")
        om = 1.0 - z[hi]
        coef1 = (gamma_array(c) * gamma_array(d)
                 * rgamma_array(c - a) * rgamma_array(c - b))
        coef2 = (gamma_array(c) * gamma_array(-d)
                 * rgamma_array(a) * rgamma_array(b))
        f1 = _hyp2f1_rows_times_vandermonde(a, b, a + b - c + 1.0, om)
        f2 = _hyp2f1_rows_times_vandermonde(c - a, c - b, c - a - b + 1.0, om)
        out[:, hi] = coef1[:, None] * f1 \
            + coef2[:, None] * np.exp(np.outer(d, np.log(om))) * f2
    return out


def hyp2f1_real_z(a, b, c, z):
    """2F1(a,b;c;z) for complex scalar parameters and real z array in [0, 1).

    One row of the router behind hyp2f1_matrix."""
    out = _hyp2f1_routed(a, b, c, z)[0]
    return complex(out[0]) if np.ndim(z) == 0 else out


def hyp2f1_matrix(a, b, c, z) -> np.ndarray:
    """2F1 on the outer product of parameter rows and abscissa columns.

    a, b, c: complex arrays of shape (m,) (one parameter triple per row);
    z: real array of shape (n,) in [0, 1).  Returns (m, n).  The contour
    solver's hot path.
    """
    return _hyp2f1_routed(a, b, c, z)


def gauss_2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1(a,b;c;z), complex a,b,c, real z in [0,1)."""
    return complex(hyp2f1_real_z(a, b, c, float(z)))

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
import threading

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
_HANKEL_TERMS = 80  # t_0 .. t_79 of the large-argument expansion
_CHUNK_CELLS = 1 << 18  # cells of one (points, terms) block of the Hankel sums, as in mellin
_TINY = np.finfo(np.float64).tiny  # smallest normal double

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
    """Large-argument expansion (DLMF 10.17.3), x >= _hankel_xmin(nu).

    Min-term truncation: t_m = t_{m-1} (4 nu^2 - (2m-1)^2) / (8 m x) from
    t_0 = 1 is kept while |t| has fallen at every step so far; P sums the even
    terms and Q the odd ones, with signs + + - - from m = 0.  The sums run in
    float64 (all terms are <= 1); only the phase omega = x - (nu/2 + 1/4) pi
    and the trig evaluations need the extended precision.
    """
    m = np.arange(1, _HANKEL_TERMS)
    ratio = (4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m)
    signs = np.resize([1.0, 1.0, -1.0, -1.0], _HANKEL_TERMS)
    p_sum, q_sum = np.empty((2, len(x_ld)))
    step = _CHUNK_CELLS // _HANKEL_TERMS
    for i in range(0, len(x_ld), step):
        x = x_ld[i:i + step, None].astype(np.float64)
        # one row per point: its reductions round alike in any batch
        t = np.hstack([np.ones_like(x), np.cumprod(ratio / x, axis=1)])
        t[:, 1:] *= np.logical_and.accumulate(np.abs(t[:, 1:]) < np.abs(t[:, :-1]), axis=1)
        t *= signs
        p_sum[i:i + step], q_sum[i:i + step] = t[:, 0::2].sum(axis=1), t[:, 1::2].sum(axis=1)
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
    if not abs(nu) <= SUPPORTED_ORDER_MAX:  # NaN fails this too
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

def _ladder_step(zmax: float):
    """(j, z_j): the smallest step z_j = 0.75^(1.25^j) >= zmax of a ladder
    geometric in ln z, for 0 < zmax < 1; (None, 0.0) for zmax = 0."""
    if zmax == 0.0:
        return None, 0.0
    ln_top = math.log(0.75)
    j = math.floor(math.log(math.log(zmax) / ln_top, 1.25))
    while (step := math.exp(ln_top * 1.25 ** j)) < zmax:
        j -= 1
    return j, step


class _SeriesRows:
    """Coefficient rows R_k of sum_k R_k(i) z^k, grown by the 64-term block
    the replay reads next.  A batch takes the term count of a loop at its
    ladder step (the smallest one at or above its largest z) that stops after
    two terms in a row under 5e-17 |partial sum| on every row, replayed once
    per step by each sum, which keeps the count with its stacked rows."""

    def __init__(self, a, b, c):
        self.abc = a, b, c
        self.rows = np.ones((len(a), 1), dtype=np.complex128)
        self._lock = threading.Lock()

    def replay(self, zmax: float) -> int:
        """Term count of the stop rule at zmax, 64 terms at a time."""
        with self._lock:  # one at a time: rows grown from a stale copy never replace wider ones
            rows, k, zpow, partial, small = self.rows, 1, 1.0, self.rows[:, 0], False
            while True:
                if k >= rows.shape[1]:
                    if k > _HYP_MAX_TERMS:
                        raise ConvergenceError("hyp2f1: no convergence within term budget")
                    a, b, c = self.abc
                    new = np.empty((len(a), min(k + 64, _HYP_MAX_TERMS + 1)), complex)
                    new[:, :k], coeff = rows, rows[:, -1]
                    for j in range(k - 1, new.shape[1] - 1):
                        coeff = coeff * ((a + j) * (b + j)) / ((c + j) * (j + 1.0))
                        new[:, j + 1] = coeff
                    rows = self.rows = new  # one assignment: a reader never sees half-grown rows
                block = rows[:, k:k + 64]
                zp = np.multiply.accumulate(np.r_[zpow, np.full(block.shape[1], zmax)])[1:]
                sums = np.add.accumulate(
                    np.concatenate([partial[:, None], block * zp], axis=1), axis=1)[:, 1:]
                ok = np.r_[small, np.all(np.abs(block) * zp
                                         <= 5e-17 * (np.abs(sums) + 1e-300), axis=0)]
                stop = np.flatnonzero(ok[1:] & ok[:-1])
                if stop.size:
                    return k + int(stop[0]) + 1
                k, zpow, partial, small = k + block.shape[1], zp[-1], sums[:, -1], ok[-1]


class _Hyp2f1Plan:
    """2F1 on parameter rows a, b, c (complex, shape (m,)) at real abscissas
    z in [0, 1): the pole check, the direct series (z <= 0.75) and the 1-z
    connection formula (DLMF 15.8.4, z > 0.75), which controls the z -> 1
    cancellation and is built the first time a batch reaches it.  When some
    row's c-a-b sits within 1e-3 of an integer (the connection coefficients
    blow up there) the direct series serves up to z <= 0.95."""

    def __init__(self, a, b, c):
        a, b, c = (np.atleast_1d(np.asarray(p, dtype=np.complex128)) for p in (a, b, c))
        if not all(np.isfinite(p).all() for p in (a, b, c)):
            raise DomainError("hyp2f1: parameters must be finite")
        if _near_nonpositive_integer(c, 1e-12):
            raise PoleProximityError("hyp2f1: a row's c is within 1e-12 of a pole")
        self.abc = a, b, c
        self.direct = _SeriesRows(a, b, c)
        self._connection = None  # False (returned as None) on a near-integer row

    def connection(self):
        """(coef1, coef2, F1, F2): 2F1 = coef1 F1(1-z) + coef2 (1-z)^{c-a-b} F2(1-z)."""
        if self._connection is None:
            a, b, c = self.abc
            d = c - a - b
            self._connection = False if np.any(np.abs(d - np.round(d.real)) < 1e-3) else (
                gamma_array(c) * gamma_array(d) * rgamma_array(c - a) * rgamma_array(c - b),
                gamma_array(c) * gamma_array(-d) * rgamma_array(a) * rgamma_array(b),
                _SeriesRows(a, b, a + b - c + 1.0), _SeriesRows(c - a, c - b, d + 1.0))
        return self._connection or None

    def __call__(self, z) -> np.ndarray:
        a, b, c = self.abc
        z = np.atleast_1d(np.asarray(z, dtype=np.float64))
        return _Hyp2f1Sum([self], [np.ones(len(a))], c - a - b, [0])(
            z, [np.ones(len(z))], np.zeros(len(z)))


class _Hyp2f1Sum:
    """sum_f g_f(i) 2F1(a_f(i), b_f(i); c_f(i); z_j) col_f(j) e^{d(i) L_j}
    over plans f with c - a - b = d - shift_f.  On each route (the direct
    series; the regular and the (1-z)^d parts of the connection) the plans'
    rows, prescaled by g_f and the connection coefficients, stand side by
    side as [Re; Im] rows of one real matrix kept per ladder step, applied
    to the stacked Vandermonde blocks times col_f in one product.  Then one
    exponential per cell on the direct route, e^{d L} H, and two on the
    connection route, e^{d L} A + e^{d (L + ln(1-z))} B."""

    def __init__(self, plans, scales, d, shifts):
        self.plans, self.scales, self.d, self.shifts = plans, scales, d, shifts
        self._stacked = {}  # (route, ladder step index) -> (matrix, term counts)

    def _part(self, route, mask, u, cols, log_col):
        """e^{d L} times the route's sum on the columns in mask, at u (z, or
        1 - z on the connection), with L = log_col; complex (m, n)."""
        if route == "direct":
            factors = [(g, p.direct, 0) for g, p in zip(self.scales, self.plans)]
        else:  # coefficient, series and power of 1 - z of the part, per plan
            parts = [(c[0], c[2], 0) if route == "regular" else (c[1], c[3], -n)
                     for c, n in zip((p.connection() for p in self.plans), self.shifts)]
            factors = [(g * coef, series, n) for g, (coef, series, n) in zip(self.scales, parts)]
        step = _ladder_step(float(np.max(u)))
        kept = self._stacked.get((route, step[0]))
        if kept is None:
            counts = [s.replay(step[1]) for _, s, _ in factors]
            rows = np.concatenate([g[:, None] * s.rows[:, :k]
                                   for (g, s, _), k in zip(factors, counts)], axis=1)
            kept = np.concatenate([rows.real, rows.imag]), counts
            self._stacked = {**self._stacked, (route, step[0]): kept}  # one assignment
        mat, counts = kept
        vand = np.vander(u, N=max(counts), increasing=True).T
        # a subnormal power costs a microcode assist in each of the 2m dot
        # products that take it (6.7x on a 514 x 412 by 412 x 59 product);
        # flushed, it drops a term under 1e-290 |sum| unless |R_k| > 1e290 |sum|
        vand[vand < _TINY] = 0.0
        out = mat @ np.concatenate([vand[:k] * (c[mask] * u ** n if n else c[mask])
                                    for (_, _, n), k, c in zip(factors, counts, cols)])
        m = len(self.d)
        return np.exp(np.outer(self.d, log_col)) * (out[:m] + 1j * out[m:])

    def __call__(self, z, cols, lead) -> np.ndarray:
        """The sum at z (n,) in [0, 1) with col_f = cols[f] and L = lead."""
        if not np.all((z >= 0.0) & (z < 1.0)):
            raise DomainError("hyp2f1: z must lie in [0, 1)")
        near = np.any(z > 0.75) and any(p.connection() is None for p in self.plans)
        lo = z <= (0.95 if near else 0.75)
        if near and not lo.all():
            raise ConvergenceError(
                "hyp2f1: z > 0.95 with c-a-b within 1e-3 of an integer is not supported")
        out, hi = np.empty((len(self.d), len(z)), dtype=complex), ~lo
        if lo.any():
            out[:, lo] = self._part("direct", lo, z[lo], cols, lead[lo])
        if hi.any():
            w = 1.0 - z[hi]
            out[:, hi] = (self._part("regular", hi, w, cols, lead[hi])
                          + self._part("singular", hi, w, cols, lead[hi] + np.log(w)))
        return out


def hyp2f1_real_z(a, b, c, z):
    """2F1(a,b;c;z) for complex scalar parameters and real z array in [0, 1).

    One row of the plan behind hyp2f1_matrix."""
    out = _Hyp2f1Plan(a, b, c)(z)[0]
    return complex(out[0]) if np.ndim(z) == 0 else out


def hyp2f1_matrix(a, b, c, z) -> np.ndarray:
    """2F1 on the outer product of parameter rows and abscissa columns.

    a, b, c: complex arrays of shape (m,) (one parameter triple per row);
    z: real array of shape (n,) in [0, 1).  Returns (m, n).  A plan built
    and applied once; the contour solver keeps its plans across batches.
    """
    return _Hyp2f1Plan(a, b, c)(z)


def gauss_2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1(a,b;c;z), complex a,b,c, real z in [0,1)."""
    return complex(hyp2f1_real_z(a, b, c, float(z)))

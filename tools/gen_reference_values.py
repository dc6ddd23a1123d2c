#!/usr/bin/env python3
"""Regenerate tests/_frozen.py: high-precision reference values.

Bessel values in the series region come from a 50-digit ascending-series
oracle implemented here directly (independent of the library's long-double
code path); everything is cross-checked against mpmath's own algorithms and
the run aborts on disagreement.  Large-argument Bessel values use mpmath
(the ascending series needs thousands of digits there).  Forward-profile
values are contour integrals of the closed form in mpmath arithmetic
(tanh-sinh on unit intervals, not the library's trapezoidal rule), checked
against direct oscillatory quadrature of the defining integral where that
converges.

Usage: python tools/gen_reference_values.py > tests/_frozen.py
"""

from __future__ import annotations

import sys

import mpmath as mp

mp.mp.dps = 50


def series_besselj(nu, x):
    """Ascending series at working precision (independent oracle)."""
    nu = mp.mpf(nu)
    x = mp.mpf(x)
    half = x / 2
    term = half ** nu / mp.gamma(nu + 1)
    acc = term
    q = -half * half
    for k in range(1, 4000):
        term *= q / (k * (k + nu))
        acc += term
        if abs(term) < mp.mpf(10) ** (-mp.mp.dps - 5) * abs(acc):
            return acc
    raise RuntimeError("series did not converge")


def series_bessely(nu, x):
    """Connection-formula oracle (non-integer order)."""
    nu = mp.mpf(nu)
    return (series_besselj(nu, x) * mp.cospi(nu) - series_besselj(-nu, x)) \
        / mp.sinpi(nu)


def checked_jy(nu, x):
    if x <= 16:
        j = series_besselj(nu, x)
        y = series_bessely(nu, x)
        assert abs(j - mp.besselj(nu, x)) <= abs(j) * mp.mpf(10) ** -35
        assert abs(y - mp.bessely(nu, x)) <= abs(y) * mp.mpf(10) ** -35
        return j, y
    return mp.besselj(nu, x), mp.bessely(nu, x)


def f17(v):
    return mp.nstr(v, 17, strip_zeros=False)


def closed_form_F(nu, a, x, s, dx=False):
    """F(x, s) of weberorr.closedform: three gamma/2F1 terms, mpmath 2F1;
    with dx, its x-derivative (d/dz 2F1(a, b; c; z) = a b / c 2F1 at a + 1,
    b + 1, c + 1, and dz/dx = -2 z / x)."""
    z = (a / x) ** 2
    two_ms = mp.power(2, -s)
    g1 = two_ms * a ** (nu + 1) / mp.pi * mp.cospi(nu) * mp.gamma(-nu - 1) \
        * mp.gamma(1 + nu - s / 2) * mp.rgamma(s / 2)
    g2 = -two_ms / (mp.pi * a ** (1 + nu)) * mp.gamma(nu + 1) \
        * mp.gamma(-s / 2) * mp.rgamma(1 + nu + s / 2)
    g3 = -two_ms * a ** (nu + 1) / mp.pi * mp.cospi(s / 2) \
        * mp.gamma(nu + 1 - s / 2) * mp.gamma(1 - s / 2) * mp.rgamma(2 + nu)
    h13 = mp.hyp2f1(1 - s / 2, 1 + nu - s / 2, 2 + nu, z)
    h2 = mp.hyp2f1(-nu - s / 2, -s / 2, -nu, z)
    if not dx:
        return (g1 + g3) * x ** (s - nu - 2) * h13 + g2 * x ** (s + nu) * h2

    def dh_dx(p, q, r):
        return p * q / r * mp.hyp2f1(p + 1, q + 1, r + 1, z) * (-2 * z / x)

    e13, e2 = s - nu - 2, s + nu
    return ((g1 + g3) * (e13 * x ** (e13 - 1) * h13
                         + x ** e13 * dh_dx(1 - s / 2, 1 + nu - s / 2, 2 + nu))
            + g2 * (e2 * x ** (e2 - 1) * h2 + x ** e2 * dh_dx(-nu - s / 2, -s / 2, -nu)))


def forward_profile_contour(nu, a, x):
    """f(x) for the beta family (p, q) = (2, 1): (1/2 pi) int over t of
    G(s+2) G(1-s) F(x, s), s = mu + i t on the default mu = (nu - 1)/2.
    The symbol decays like e^{-pi |t|}, so |t| <= 40 leaves < 1e-25."""
    mu = (nu - 1) / 2

    def integrand(t):
        s = mp.mpc(mu, t)
        return mp.gamma(s + 2) * mp.gamma(1 - s) * closed_form_F(nu, a, x, s)

    # unit intervals resolve the (1 - a^2/x^2)^s oscillation near x = a
    val, err = mp.quad(integrand, [mp.mpf(k) for k in range(-40, 41)], error=True)
    assert err <= abs(val) * mp.mpf(10) ** -18, (nu, x, err)
    assert abs(mp.im(val)) <= abs(val) * mp.mpf(10) ** -18, (nu, x, val)
    return mp.re(val) / (2 * mp.pi)


def forward_profile_direct(nu, a, x):
    """The defining integral int_0^inf phi(lam) kernel d lam, phi = 2 lam^2
    (1 + lam)^-3, summed over periods of the difference frequency x - a."""
    def integrand(lam):
        return 2 * lam ** 2 / (1 + lam) ** 3 * (
            mp.besselj(nu, x * lam) * mp.bessely(nu + 1, a * lam)
            - mp.bessely(nu, x * lam) * mp.besselj(nu + 1, a * lam))

    return mp.quadosc(integrand, [0, mp.inf], omega=x - a)


def main():
    out = []
    out.append('"""Frozen high-precision reference values.')
    out.append("")
    out.append("Generated by tools/gen_reference_values.py (mpmath, 50 digits);")
    out.append("regenerate with: python tools/gen_reference_values.py > tests/_frozen.py")
    out.append('"""')
    out.append("")

    # Bessel conformance grid: (nu, x, J, Y); orders/arguments cover the
    # series, middle-band, and large-argument evaluation regions.
    grid = []
    for nu in (-0.95, -0.75, -0.55, -0.5, 0.25, 0.5, 1.25, -1.25,
               4.6, -4.6, 7.5, -7.5, 20.3, -20.3, 49.5, -49.5):
        for x in (1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 15.5, 16.5, 25.0,
                  100.0, 700.0, 2500.0):
            j, y = checked_jy(nu, x)
            if abs(j) > mp.mpf("1e300") or abs(y) > mp.mpf("1e300"):
                continue
            grid.append((nu, x, j, y))
    out.append("BESSEL_JY = [")
    for nu, x, j, y in grid:
        out.append(f"    ({nu!r}, {x!r}, {f17(j)}, {f17(y)}),")
    out.append("]")
    out.append("")

    out.append(f"BESSEL_J_M075_X1 = {f17(series_besselj('-0.75', 1))}")
    out.append(f"BESSEL_Y_M075_X1 = {f17(series_bessely('-0.75', 1))}")
    out.append(f"BESSEL_Y_M075_X2 = {f17(series_bessely('-0.75', 2))}")
    out.append("")

    b = mp.gamma(2 + 1j) * mp.gamma(3 - 1j) / mp.gamma(5)
    out.append(f"BETA_2P1J_3M1J = complex({f17(mp.re(b))}, {f17(mp.im(b))})")
    out.append("")

    # gamma strip samples (vs the 1e-13 conformance bar)
    pts = [(0.5, 0.0), (1.0, 0.0), (-5.5, 3.0), (9.5, -77.0), (-0.875, 31.0),
           (0.25, 99.0), (-9.75, -99.0), (3.2, 0.5), (-0.05, 0.2),
           (0.5, 100.0), (-7.3, 55.5), (2.0, -13.0)]
    out.append("GAMMA_STRIP = [")
    for re_, im_ in pts:
        g = mp.gamma(mp.mpc(re_, im_))
        out.append(f"    ({re_!r}, {im_!r}, complex({f17(mp.re(g))}, {f17(mp.im(g))})),")
    out.append("]")
    out.append("")

    # 2F1 samples: (a, b, c, z, value); includes z > 0.75 connection route
    tuples = [
        (mp.mpc(0.3, 0.2), mp.mpc(0.7), mp.mpc(0.7), mp.mpf("0.5")),
        (mp.mpc(1), mp.mpc(1), mp.mpc(2), mp.mpf("0.5")),
        (mp.mpc(1.25, -0.4), mp.mpc(0.5, 2.0), mp.mpc(1.25), mp.mpf("0.25")),
        (mp.mpc(-0.7, 1.1), mp.mpc(0.4, -0.3), mp.mpc(2.3, 0.7), mp.mpf("0.74")),
        (mp.mpc(1.25, -0.25), mp.mpc(0.5, -0.25), mp.mpc(1.25), mp.mpf("0.9")),
        (mp.mpc(0.625, 2.5), mp.mpc(-0.35, 2.5), mp.mpc(0.25), mp.mpf("0.97")),
        (mp.mpc(0.45, 0.15), mp.mpc(1.1, -0.6), mp.mpc(-0.6), mp.mpf("0.84")),
    ]
    out.append("HYP2F1_SAMPLES = [")
    for a, b, c, z in tuples:
        v = mp.hyp2f1(a, b, c, z)
        out.append(
            f"    (complex({f17(mp.re(a))}, {f17(mp.im(a))}),"
            f" complex({f17(mp.re(b))}, {f17(mp.im(b))}),"
            f" complex({f17(mp.re(c))}, {f17(mp.im(c))}),"
            f" {f17(z)}, complex({f17(mp.re(v))}, {f17(mp.im(v))})),")
    out.append("]")
    out.append("")

    # kernels
    nu = mp.mpf("-0.75")
    kc = mp.besselj(nu, 2) * mp.bessely(nu, 1) - mp.bessely(nu, 2) * mp.besselj(nu, 1)
    out.append(f"KERNEL_C_M075_2_1 = {f17(kc)}")
    wk = mp.besselj(nu, 20) * mp.bessely(nu + 1, 10) \
        - mp.bessely(nu, 20) * mp.besselj(nu + 1, 10)
    out.append(f"WEBER_KERNEL_M075_A1_X2_L10 = {f17(wk)}")
    out.append("")

    # oscillatory-tail reference: int_1^inf t^{-3/2} cos t dt
    fres = mp.quadosc(lambda t: t ** mp.mpf("-1.5") * mp.cos(t),
                      [1, mp.inf], period=2 * mp.pi)
    out.append(f"TAIL_T32_COS_FROM_1 = {f17(fres)}")
    # Fresnel: int_0^inf t^{-1/2} cos t dt = sqrt(pi/2)
    out.append(f"FRESNEL_COS_HALF = {f17(mp.sqrt(mp.pi / 2))}")
    out.append("")

    # forward profile of the beta family (2, 1) at a = 1: (nu, x, f(x)),
    # x/a - 1 from 1e-6 to 10; 20 digits carry the 17 printed ones
    out.append("FORWARD_PROFILE_21_A1 = [")
    with mp.workdps(20):
        a = mp.mpf(1)
        for nu in (-0.95, -0.75, -0.55):
            for x in (1.000001, 1.001, 1.1, 2.0, 11.0):
                f = forward_profile_contour(mp.mpf(nu), a, mp.mpf(x))
                if x >= 2.0:
                    direct = forward_profile_direct(mp.mpf(nu), a, mp.mpf(x))
                    assert abs(f - direct) <= abs(f) * mp.mpf(10) ** -14, (nu, x)
                out.append(f"    ({nu!r}, {x!r}, {f17(f)}),")
    out.append("]")
    out.append("")

    # closed form and its x-derivative on nodes of the default contour
    # (mu = (nu - 1)/2, |Im s| <= 16) at abscissas with x/a - 1 from 1e-6 to
    # 1e3, on both sides of z = a^2/x^2 = 0.75 (x/a - 1 = 0.1547):
    # (nu, a, x, s, F, dF/dx), x the double the library receives
    out.append("CLOSED_FORM_GRID = [")
    for nu, a in ((-0.95, 0.7), (-0.6, 1.5)):
        for t in (-16.0, -8.0, -2.5, 0.5, 4.0, 8.0, 12.0, 16.0):
            s = complex((nu - 1.0) / 2.0, t)
            for d in (1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.15, 0.16, 0.3, 1.0, 10.0, 100.0, 1e3):
                x = a * (1.0 + d)
                args = (mp.mpf(nu), mp.mpf(a), mp.mpf(x), mp.mpc(s))
                f, df = closed_form_F(*args), closed_form_F(*args, dx=True)
                out.append(f"    ({nu!r}, {a!r}, {x!r}, complex({s.real!r}, {s.imag!r}),"
                           f" complex({f17(mp.re(f))}, {f17(mp.im(f))}),"
                           f" complex({f17(mp.re(df))}, {f17(mp.im(df))})),")
    out.append("]")
    out.append("")

    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

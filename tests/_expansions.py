"""The slow tier's nested expansions at relaxed tolerance, each computed once
per test session.

Acceptance criterion 9 and the solver's expansion tests assert on the same
reports: the inverse-pair (Titchmarsh) expansion of the beta family
(p, q) = (2, 1) and the classical-pair (Weber-Orr) expansions, variants 4 and
5, of a smooth bump on [1.5, 3], all at nu = 1/4, a = 1 and x = 2.  Each takes
seconds to minutes of nested quadrature, so the tests share one result.
"""

import functools

import numpy as np

from weberorr.kernels import KernelParams
from weberorr.quadrature import QuadratureConfig
from weberorr.solver import TestFunctionFamily as BetaFamily
from weberorr.solver import expansion_titchmarsh, expansion_weber_orr

PARAMS = KernelParams(0.25, 1.0)
CONFIG = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-6, max_half_periods=64)
X = 2.0


def bump(x):
    """Smooth compactly supported bump on [1.5, 3] (vectorized)."""
    x = np.asarray(x, dtype=np.float64)
    u = (x - 2.25) / 0.75
    out = np.zeros_like(x)
    m = np.abs(u) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
    return out


@functools.cache
def titchmarsh_family():
    """expansion_titchmarsh of the beta family (2, 1) at CONFIG."""
    return expansion_titchmarsh(BetaFamily(2, 1.0).phi, PARAMS, X, CONFIG)


@functools.cache
def weber_orr_bump(variant: int):
    """expansion_weber_orr of the bump at CONFIG, variant 4 or 5."""
    return expansion_weber_orr(bump, PARAMS, X, variant, CONFIG)

"""Per-layer trace of weberorr, taken from outside the package.

The tracer wraps the public functions listed in LAYERS and patches each name
wherever a weberorr module binds it: `solver` imports `fnu_matrix` and the
`integrate_*` functions by name, so patching `closedform.fnu_matrix` alone
would record nothing.  Each call becomes a span (op, name, start, end,
parent) kept in memory; a span's self time is its duration minus that of its
child spans.  Counts are computed from the arguments the wrapper sees, with
the branch thresholds of `specfun`, so nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# specfun's routing thresholds: the ascending Bessel series serves x <= 16,
# the Hankel expansion x >= max(16, 0.85 nu^2), the continued-fraction
# middle band (`_jy_cf_scalar`) everything between; hyp2f1_matrix takes the
# 1 - z connection route on cells with z > 0.75
BESSEL_SERIES_XMAX = 16.0
BESSEL_HANKEL_NU2 = 0.85
HYP2F1_CONNECTION_Z = 0.75


def _bessel(args, result):
    x = np.asarray(args["x"], dtype=np.float64)
    hankel = x >= max(BESSEL_SERIES_XMAX, BESSEL_HANKEL_NU2 * float(args["nu"]) ** 2)
    series = x <= BESSEL_SERIES_XMAX
    return {"points": x.size, "points_series": int(series.sum()),
            "points_hankel": int(hankel.sum()),
            "points_middle": int((~series & ~hankel).sum())}


def _hyp2f1_matrix(args, result):
    rows = np.size(args["a"])
    z = np.atleast_1d(np.asarray(args["z"], dtype=np.float64))
    return {"cells": rows * z.size,
            "cells_connection": rows * int((z > HYP2F1_CONNECTION_Z).sum())}


def _fnu_matrix(args, result):
    rows = np.size(args["svals"])
    return {"rows": rows, "cells": rows * np.size(args["xs"])}


def _points(arg):
    return lambda args, result: {"points": np.size(args[arg])}


def _weber_points(args, result):
    return {"points": np.broadcast(np.asarray(args["x"]), np.asarray(args["lam"])).size}


def _half_periods(args, result):
    return {"half_periods": int(result.diagnostic("half_periods", 0.0))}


# (module, function, counter, counts): the counter maps the bound arguments
# and the result of one call to increments of the named counts
LAYERS = (
    ("specfun", "hyp2f1_matrix", _hyp2f1_matrix, ("cells", "cells_connection")),
    ("specfun", "hyp2f1_real_z", None, ()),
    ("specfun", "bessel_jy", _bessel,
     ("points", "points_series", "points_middle", "points_hankel")),
    ("specfun", "gamma_array", _points("z"), ("points",)),
    ("kernels", "weber_kernel", _weber_points, ("points",)),
    ("closedform", "fnu_matrix", _fnu_matrix, ("rows", "cells")),
    ("closedform", "F_nu_closed", None, ()),
    ("closedform", "F_nu_oracle", None, ()),
    ("quadrature", "integrate_improper", None, ()),
    ("quadrature", "integrate_oscillatory_tail", _half_periods, ("half_periods",)),
    ("mellin", "mellin_forward", None, ()),
    ("mellin", "contour_integral", None, ()),
    ("mellin", "class_norm", None, ()),
    ("solver", "solve_grid", None, ()),
    ("solver", "inverse_solve", None, ()),
    ("solver", "make_forward_function", None, ()),
)
# the closure make_forward_function returns is wrapped under this name
PROFILE = ("solver", "forward_profile", _points("ts"), ("points",))

COUNTS = {f"{m}.{f}": counts for m, f, _, counts in LAYERS + (PROFILE,)}
SPAN_NAMES = tuple(COUNTS)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for span in SPAN_NAMES:
        out.append((f"{span}.calls", "calls/op"))
        out += [(f"{span}.{c}", "count/op") for c in COUNTS[span]]
        out.append((f"{span}.self_pct", "%"))
    return out


class Tracer:
    """Span recorder; `install()` patches the package, `uninstall()` undoes it."""

    def __init__(self):
        self.op = -1  # the op the next spans belong to
        self.spans: list = []
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # outermost calls only
        self._stack: list = []  # [span index, child seconds] per open call
        self._depth = defaultdict(int)
        self._undo: list = []

    def wrap(self, name, fn, counter=None, result_wrap=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._depth[name] -= 1
                dur = end - start
                self.spans[frame[0]] = (self.op, name, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if self._depth[name] == 0:
                    self.incl_s[name] += dur
                if self._stack:
                    self._stack[-1][1] += dur
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, val in counter(bound.arguments, result).items():
                    self.counts[name][key] += val
            return result_wrap(result) if result_wrap else result

        return traced

    def install(self):
        pkg = [m for n, m in list(sys.modules.items())
               if n == "weberorr" or n.startswith("weberorr.")]
        for mod_name, fn_name, counter, _ in LAYERS:
            orig = getattr(importlib.import_module(f"weberorr.{mod_name}"), fn_name)
            result_wrap = None
            if fn_name == "make_forward_function":
                result_wrap = functools.partial(self.wrap, f"{PROFILE[0]}.{PROFILE[1]}",
                                                counter=PROFILE[2])
            traced = self.wrap(f"{mod_name}.{fn_name}", orig, counter, result_wrap)
            for mod in pkg:
                for attr in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def metrics(self, ops: int, timed_s: float) -> dict:
        """Every per-layer metric: counts per op, self time in % of op time."""
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = self.calls[span] / ops
            for c in COUNTS[span]:
                out[f"{span}.{c}"] = self.counts[span][c] / ops
            out[f"{span}.self_pct"] = 100.0 * self.self_s[span] / timed_s
        return out

    def summary(self, ops: int) -> dict:
        """Seconds per op for the report: self and inclusive time per span."""
        return {span: {"calls": self.calls[span], "self_s_per_op": self.self_s[span] / ops,
                       "incl_s_per_op": self.incl_s[span] / ops,
                       **{c: self.counts[span][c] for c in COUNTS[span]}}
                for span in SPAN_NAMES if self.calls[span]}

    def write(self, path):
        """Spans as JSON lines: [op, name, start, end, parent span index]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

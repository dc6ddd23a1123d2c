"""Command-line front end: grid evaluation, conformance runs, round trips,
and CSV/JSON report emission.

Exit codes: 0 success, 2 config error, 3 numerical non-convergence,
4 invariant failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .closedform import F_nu_closed, F_nu_oracle
from .errors import WeberOrrError
from .kernels import (KernelParams, derivative_identity_check, kernel_C,
                      weber_kernel)
from .mellin import (ContourSpec, MellinRepresentation, class_norm,
                     mellin_inverse, parseval_check)
from .quadrature import QuadratureConfig
from .solver import (TestFunctionFamily, default_contour,
                     forward_contour_profile, inverse_solve,
                     inverse_solve_derivative_form,
                     make_forward_derivative_function, make_forward_function)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_INVARIANT = 4
EXIT_IO = 5


@dataclass
class Row:
    inputs: dict[str, float]
    value: complex
    abs_err: float
    converged: bool


@dataclass
class RunConfig:
    command: str
    nu: float = -0.75
    a: float = 1.0
    x: float = 2.0
    s: complex = complex(-0.5, 0.0)
    grid: list[float] = field(default_factory=lambda: [0.25, 0.5, 1.0, 2.0, 4.0])
    family_p: int = 2
    family_q: float = 1.0
    fixture: str = "family"
    oracle: bool = False
    quick: bool = False
    tol_abs: float = 1e-10
    tol_rel: float = 1e-8
    # contour fields left at None take default_contour's values
    contour_mu: float | None = None
    contour_tmax: float | None = None
    panels: int | None = None
    output_format: str = "csv"
    output_path: str | None = None
    seed: int = 1234

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(abs_tol=self.tol_abs, rel_tol=self.tol_rel)

    def params(self) -> KernelParams:
        return KernelParams(self.nu, self.a)

    def contour(self) -> ContourSpec:
        base = default_contour(self.params())
        return ContourSpec(
            mu=base.mu if self.contour_mu is None else self.contour_mu,
            t_max=base.t_max if self.contour_tmax is None else self.contour_tmax,
            n_panels=base.n_panels if self.panels is None else self.panels)

    def echo(self) -> dict:
        return {
            "command": self.command, "nu": self.nu, "a": self.a, "x": self.x,
            "s": [self.s.real, self.s.imag], "grid": list(self.grid),
            "family": [self.family_p, self.family_q], "fixture": self.fixture,
            "oracle": self.oracle, "tol_abs": self.tol_abs,
            "tol_rel": self.tol_rel,
            "contour_mu": self.contour_mu, "contour_tmax": self.contour_tmax,
            "panels": self.panels, "format": self.output_format,
            "seed": self.seed,
        }


def parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def _parse_grid(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("grid must be non-empty and strictly increasing")
    return vals


def _parse_family(text: str) -> dict:
    parts = dict(tok.split("=") for tok in text.split(","))
    if not parts.keys() <= {"p", "q"}:
        raise ValueError("family spec takes only p and q")
    return {f"family_{k}": (int if k == "p" else float)(v)
            for k, v in parts.items()}


def _parser(allow_abbrev: bool = True) -> argparse.ArgumentParser:
    """The one table of settings: the command line, and a config file's
    lines as --key=value flags."""
    parser = argparse.ArgumentParser(
        prog="weberorr", allow_abbrev=allow_abbrev,
        description="Cross-product Bessel transform toolkit: evaluate kernels "
                    "and their Mellin image, run the forward transform, invert "
                    "it, and verify the invariant suite.")
    parser.add_argument("command", choices=_RUNNERS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--nu", type=float)
    parser.add_argument("--a", type=float)
    parser.add_argument("--x", type=float)
    parser.add_argument("--s", type=parse_complex,
                        help="complex like -0.5+0i (use --s=-0.5+0i so the "
                             "leading minus is not read as an option)")
    parser.add_argument("--grid", type=_parse_grid,
                        help="comma-separated increasing abscissas")
    parser.add_argument("--family", type=_parse_family, action="append",
                        help="p=2,q=1 style test-family spec")
    parser.add_argument("--fixture", choices=("zero", "family"))
    parser.add_argument("--oracle", action="store_true",
                        help="eval-F: use the quadrature oracle instead of "
                             "the closed form")
    parser.add_argument("--quick", action="store_true",
                        help="verify: skip the slow checks")
    parser.add_argument("--tol-abs", type=float, dest="tol_abs")
    parser.add_argument("--tol-rel", type=float, dest="tol_rel")
    parser.add_argument("--contour-mu", type=float, dest="contour_mu")
    parser.add_argument("--contour-tmax", type=float, dest="contour_tmax")
    parser.add_argument("--panels", type=int)
    parser.add_argument("--format", choices=("csv", "json"), dest="output_format")
    parser.add_argument("--output", dest="output_path")
    parser.add_argument("--seed", type=int)
    return parser


def _file_args(path: str, command: str) -> list[str]:
    """A config file's key = value lines as --key=value flags (family_p and
    family_q as --family=p=... and q=...), each key a flag's exact name with
    underscores."""
    exact, args = _parser(allow_abbrev=False), []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            flag = (f"family={key[-1]}" if key in ("family_p", "family_q")
                    else key.replace("_", "-"))
            # the flags that no file line sets, and abbreviated or dashed keys
            if (key in ("config", "family", "oracle", "quick") or "-" in key
                    or exact.parse_known_args([command, f"--{flag}={val}"])[1]):
                raise ValueError(f"unknown config key {key!r}")
            args.append(f"--{flag}={val}")
    return args


def build_config(argv: list[str]) -> RunConfig:
    """RunConfig from the command line; a --config file's values are parsed
    ahead of it, so the command line overrides them."""
    parser = _parser()
    ns = parser.parse_args(argv)
    if ns.config:
        ns = parser.parse_args(_file_args(ns.config, ns.command) + argv)
    settings = vars(ns)
    del settings["config"]
    family = {k: v for part in settings.pop("family") or () for k, v in part.items()}
    return RunConfig(**family, **{k: v for k, v in settings.items() if v is not None})


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def emit_report(rows: list[Row], output_format: str, path: str | None,
                config_echo: dict) -> str:
    """Serialize rows (17 significant digits) to CSV or JSON; returns the text
    and writes it to `path` when given."""
    if output_format == "csv":
        k = len(rows[0].inputs) if rows else 0
        header = [f"input_{i+1}" for i in range(k)] + \
            ["value_re", "value_im", "abs_err", "converged"]
        lines = [",".join(header)]
        for row in rows:
            cells = [_fmt(v) for v in row.inputs.values()]
            cells += [_fmt(row.value.real), _fmt(row.value.imag),
                      _fmt(row.abs_err), "1" if row.converged else "0"]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    elif output_format == "json":
        doc = {
            "schema_version": 1,
            "config": config_echo,
            "rows": [
                {
                    "inputs": {k: float(_fmt(v)) for k, v in row.inputs.items()},
                    "value": {"re": float(_fmt(row.value.real)),
                              "im": float(_fmt(row.value.imag))},
                    "abs_err": float(_fmt(row.abs_err)),
                    "converged": bool(row.converged),
                }
                for row in rows
            ],
        }
        text = json.dumps(doc, indent=1, sort_keys=False) + "\n"
    else:
        raise ValueError(f"unknown format {output_format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _run_eval_kernel(cfg: RunConfig) -> tuple[list[Row], int]:
    params = cfg.params()
    return [Row({"nu": cfg.nu, "a": cfg.a, "x": cfg.x, "lambda": lam},
                complex(weber_kernel(params, cfg.x, lam)), 0.0, True)
            for lam in cfg.grid], EXIT_OK


def _run_eval_f(cfg: RunConfig) -> tuple[list[Row], int]:
    params = cfg.params()
    inputs = {"nu": cfg.nu, "a": cfg.a, "x": cfg.x,
              "s_re": cfg.s.real, "s_im": cfg.s.imag}
    if cfg.oracle:
        rep = F_nu_oracle(params, cfg.x, cfg.s, cfg.quadrature())
        return [Row(inputs, complex(rep.value), rep.abs_error_estimate,
                    rep.converged)], EXIT_OK
    breakdown = F_nu_closed(params, cfg.x, cfg.s)
    return [Row(inputs, breakdown.total, 0.0,
                not breakdown.cancellation_suspect)], EXIT_OK


def _family_setup(cfg: RunConfig):
    fam = TestFunctionFamily(cfg.family_p, cfg.family_q)
    return cfg.params(), fam, fam.representation(cfg.contour())


def _run_forward(cfg: RunConfig) -> tuple[list[Row], int]:
    params, fam, rep = _family_setup(cfg)
    xs = [x for x in cfg.grid if x > params.a]
    if not xs:
        raise ValueError("forward: grid must contain abscissas > a")
    out = forward_contour_profile(rep, params, np.asarray(xs), cfg.tol_abs,
                                  cfg.tol_rel)
    return [Row({"nu": cfg.nu, "a": cfg.a, "x": x}, complex(v),
                out.abs_error_estimate, out.converged)
            for x, v in zip(xs, out.value)], EXIT_OK


def _run_solve(cfg: RunConfig) -> tuple[list[Row], int]:
    params, fam, rep = _family_setup(cfg)
    qcfg = cfg.quadrature()
    if cfg.fixture == "zero":
        f = lambda ts: np.zeros_like(np.asarray(ts, dtype=np.float64),
                                     dtype=np.complex128)
    else:
        f = make_forward_function(rep, params, cfg.tol_abs, cfg.tol_rel)
    outs = [inverse_solve(f, params, lam, qcfg) for lam in cfg.grid]
    return [Row({"nu": cfg.nu, "a": cfg.a, "lambda": lam}, complex(out.value),
                out.abs_error_estimate, out.converged)
            for lam, out in zip(cfg.grid, outs)], EXIT_OK


def _run_roundtrip(cfg: RunConfig) -> tuple[list[Row], int]:
    params, fam, rep = _family_setup(cfg)
    qcfg = cfg.quadrature()
    f = make_forward_function(rep, params, cfg.tol_abs, cfg.tol_rel)
    rows, worst = [], 0.0
    for lam in cfg.grid:
        rep_out = inverse_solve(f, params, lam, qcfg)
        exact = complex(fam.phi(lam))
        err = abs(complex(rep_out.value) - exact)
        worst = max(worst, err / max(abs(exact), 1e-300))
        rows.append(Row({"lambda": lam, "phi_exact_re": exact.real},
                        complex(rep_out.value), err, rep_out.converged))
    print(f"roundtrip max relative error: {worst:.3e}")
    return rows, EXIT_INVARIANT if worst > 1e-4 else EXIT_OK


def _verify_checks(cfg: RunConfig):
    """(name, callable) list; each callable returns (defect, tolerance,
    converged)."""
    params = KernelParams(-0.75, 1.0)
    qcfg = QuadratureConfig()
    rng = np.random.default_rng(cfg.seed)

    def wronskian():
        worst = 0.0
        for lam in (0.1, 1.0, 10.0, 100.0):
            val = math.pi * params.a * lam * weber_kernel(params, params.a, lam)
            worst = max(worst, abs(val + 2.0) / 2.0)
        return worst, 1e-10, True

    def derivative_identities():
        worst = 0.0
        for nu in (-0.95, -0.75, -0.55):
            for x in (0.5, 2.0, 7.0):
                worst = max(worst, derivative_identity_check(nu, x, "J", "+"))
                worst = max(worst, derivative_identity_check(nu, x, "Y", "-"))
        return worst, 1e-7, True

    def kernel_antisymmetry():
        pts = rng.uniform(0.2, 8.0, size=(40, 2))
        worst = 0.0
        for alpha, beta in pts:
            worst = max(worst, abs(kernel_C(-0.75, alpha, beta)
                                   + kernel_C(-0.75, beta, alpha)))
            worst = max(worst, abs(kernel_C(-0.75, alpha, alpha)))
        return worst, 1e-13, True

    def specfun_golden():
        worst = abs(specfun.bessel_j(0.5, math.pi / 2) - 2.0 / math.pi)
        worst = max(worst, abs(specfun.gamma(0.5) - math.sqrt(math.pi)))
        worst = max(worst, abs(specfun.gauss_2f1(1, 1, 2, 0.5) - 2 * math.log(2)))
        worst = max(worst, abs(specfun.beta(0.5, 0.5) - math.pi))
        return worst, 1e-12, True

    def mellin_gamma_pair():
        rep = MellinRepresentation(specfun.gamma_array,
                                   ContourSpec(0.5, 40.0, 40))
        worst = 0.0
        conv = True
        for x in (0.5, 1.0, 2.0):
            out = mellin_inverse(rep, x)
            worst = max(worst, abs(complex(out.value) - math.exp(-x)))
            conv &= out.converged
        return worst, 1e-8, conv

    def parseval():
        out = parseval_check(lambda x: np.exp(-x), lambda x: np.exp(-x), 0.5,
                             qcfg)
        return float(np.real(out.value)), 1e-7, out.converged

    def class_inclusion():
        fam = TestFunctionFamily(2, 1.0)
        spec = ContourSpec(-0.875, 30.0, 32)
        strong = class_norm(MellinRepresentation(fam.symbol, spec, 0.5, 1.0))
        weak = class_norm(MellinRepresentation(fam.symbol, spec, 0.0, 0.0))
        ok = (not strong.converged) or weak.converged
        return 0.0 if ok else 1.0, 0.5, strong.converged and weak.converged

    def closedform_oracle():
        worst = 0.0
        conv = True
        for (nu, a, x, s) in ((-0.75, 1.0, 2.0, -0.5 + 0j),
                              (-0.6, 0.5, 5.0, -0.3 + 2j)):
            pp = KernelParams(nu, a)
            closed = F_nu_closed(pp, x, s).total
            orc = F_nu_oracle(pp, x, s, qcfg)
            worst = max(worst, abs(closed - complex(orc.value)) / abs(closed))
            conv &= orc.converged
        return worst, 1e-6, conv

    checks = [
        ("wronskian_at_inner_radius", wronskian),
        ("derivative_identities", derivative_identities),
        ("kernel_antisymmetry", kernel_antisymmetry),
        ("specfun_golden_values", specfun_golden),
        ("mellin_gamma_exponential_pair", mellin_gamma_pair),
        ("parseval", parseval),
        ("class_norm_inclusion", class_inclusion),
        ("closedform_vs_oracle", closedform_oracle),
    ]

    if not cfg.quick:
        fam = TestFunctionFamily(2, 1.0)
        rep = fam.representation(default_contour(params))

        def roundtrip_check():
            f = make_forward_function(rep, params)
            worst = 0.0
            conv = True
            for lam in (0.5, 2.0):
                out = inverse_solve(f, params, lam, qcfg)
                exact = fam.phi(lam)
                worst = max(worst, abs(complex(out.value) - exact) / abs(exact))
                conv &= out.converged
            return worst, 1e-4, conv

        def cross_form():
            f = make_forward_function(rep, params)
            fp = make_forward_derivative_function(rep, params)
            r1 = inverse_solve(f, params, 1.0, qcfg)
            r2 = inverse_solve_derivative_form(f, fp, params, 1.0, qcfg)
            rel = abs(complex(r1.value) - complex(r2.value)) / abs(complex(r1.value))
            return rel, 1e-6, r1.converged and r2.converged

        checks.append(("roundtrip", roundtrip_check))
        checks.append(("inverse_cross_form", cross_form))
    return checks


def _run_verify(cfg: RunConfig) -> tuple[list[Row], int]:
    rows = []
    status = EXIT_OK
    for idx, (name, fn) in enumerate(_verify_checks(cfg)):
        defect, tol, converged = fn()
        passed = defect <= tol and converged
        print(f"{'PASS' if passed else 'FAIL'} {name}: defect={defect:.3e} "
              f"tol={tol:.1e}{'' if converged else ' (non-converged)'}")
        rows.append(Row({"check": float(idx)}, complex(defect), tol, passed))
        if not passed:
            status = EXIT_NONCONVERGED if not converged else EXIT_INVARIANT
    return rows, status


_RUNNERS = {"eval-kernel": _run_eval_kernel, "eval-F": _run_eval_f,
            "forward": _run_forward, "solve": _run_solve,
            "roundtrip": _run_roundtrip, "verify": _run_verify}


def run(cfg: RunConfig) -> int:
    """Execute the configured command; emits the report, returns exit code."""
    try:
        if cfg.command not in _RUNNERS:
            raise ValueError(f"unknown command {cfg.command!r}")
        rows, status = _RUNNERS[cfg.command](cfg)
    except (WeberOrrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ValueError) else EXIT_NONCONVERGED
    if status == EXIT_OK and any(not row.converged for row in rows):
        status = EXIT_NONCONVERGED
    try:
        text = emit_report(rows, cfg.output_format, cfg.output_path, cfg.echo())
        if cfg.output_path is None:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return status


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else argv)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measure the baseline: every workload over ten seeds, twice, plus a traced set.

    python3 perfbench/sweep.py --out perfbench/BASELINE.json

Runs are sequential, one process at a time, with the `run_seconds` of
BENCHMARK.json: set 1 (seeds 1-10, every workload), then set 2 (the same),
then the traced set (seeds 1-3, each traced run right after an untraced
run of its seed, so that the pair measures the tracing overhead).  For each set, workload and metric it keeps
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and prints them as it goes.  The output also holds the
report-only metrics, the probe tallies summed over the seeds, the tracing
overhead, the profile checks of the traced set and the near-a defects of
`forward_direct`, measured at the end.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)
REPORT_ONLY = ("attempted", "failed_frac", "err_bound_ok_frac", "err_digits.with_probes",
               "op_s.samples")


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return report, result


def summarise(label: str, workload: str, runs: list) -> dict:
    reports = [r for r, _ in runs]
    metrics = {name: quartiles([res["metrics"][name]["value"] for _, res in runs])
               for name in runs[0][1]["metrics"]}
    for name, st in metrics.items():
        spread = "-" if st["spread"] is None else f"{st['spread']:.4f}"
        print(f"{label} {workload:13s} {name:45s} median {st['median']:.6g}  "
              f"spread {spread}", file=sys.stderr)
    out = {"metrics": metrics, "correct": all(res["correct"] for _, res in runs),
           "failed": sum(res["failed"] for _, res in runs)}
    if label == "traced":
        return out
    out["report_only"] = {key: quartiles([r[key] for r in reports])
                          for key in REPORT_ONLY if reports[0].get(key) is not None}
    if "op_s.tail" in reports[0]:
        out["report_only"]["op_s.tail"] = {
            "percentile": sorted({r["op_s.tail"]["percentile"] for r in reports}),
            **quartiles([r["op_s.tail"]["value"] for r in reports])}
    probes = {}
    for r in reports:
        for kind, tally in r.get("probes", {}).items():
            agg = probes.setdefault(kind, {})
            for key, val in tally.items():
                worst = key in ("worst_rel_err", "max_estimate")
                agg[key] = max(agg.get(key, 0), val) if worst else agg.get(key, 0) + val
    if probes:
        out["probes.summed_over_seeds"] = probes
    for key in reports[0]:
        if key.endswith(".count"):
            out[f"{key}.summed_over_seeds"] = sum(r[key] for r in reports)
    return out


def profile_checks(traced: dict) -> dict:
    """The expected profile, from the traced set (medians over its seeds)."""
    layer = {w: {k: v["median"] for k, v in traced[w]["metrics"].items()} for w in traced}
    incl = {w: traced[w]["seconds_per_op.first_seed"] for w in traced}
    rt = incl["roundtrip"]
    return {
        "roundtrip: fnu_matrix inclusive / inverse_solve inclusive":
            rt["closedform.fnu_matrix"]["incl_s_per_op"]
            / rt["solver.inverse_solve"]["incl_s_per_op"],
        "roundtrip: hyp2f1_matrix self / inverse_solve inclusive":
            rt["specfun.hyp2f1_matrix"]["self_s_per_op"]
            / rt["solver.inverse_solve"]["incl_s_per_op"],
        "profile: quadrature calls per op":
            layer["profile"]["quadrature.integrate_improper.calls"]
            + layer["profile"]["quadrature.integrate_oscillatory_tail.calls"],
        "oracle_sweep: bessel_jy self share of op time (%)":
            layer["oracle_sweep"]["specfun.bessel_jy.self_pct"],
        "oracle_sweep: hyp2f1_matrix calls per op":
            layer["oracle_sweep"]["specfun.hyp2f1_matrix.calls"],
        "mellin: bessel_jy and hyp2f1_matrix calls per op":
            layer["mellin"]["specfun.bessel_jy.calls"]
            + layer["mellin"]["specfun.hyp2f1_matrix.calls"],
        "bessel points in the continued-fraction middle band, any workload":
            sum(layer[w]["specfun.bessel_jy.points_middle"] for w in layer),
    }


def forward_direct_near_a() -> dict:
    """forward_direct near x = a against the contour form and the limit -2/pi,
    at nu = -0.75, a = 1, family (2, 1)."""
    sys.path.insert(0, str(ROOT / "src"))
    from weberorr import solver
    from weberorr.kernels import KernelParams

    params, family = KernelParams(-0.75, 1.0), solver.TestFunctionFamily(2, 1.0)
    contour = solver.make_forward_function(
        family.representation(solver.default_contour(params)), params)
    out = {"limit_x_to_a": -2.0 / math.pi}
    for gap in (1e-3, 1e-6):
        direct = solver.forward_direct(family.phi, params, 1.0 + gap)
        out[f"x - a = {gap:g} a"] = {
            "forward_direct": direct.value.real, "converged": direct.converged,
            "abs_error_estimate": direct.abs_error_estimate,
            "contour": complex(contour([1.0 + gap])[0]).real}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    runs = {label: {w: [bench(w, seed, 0) for seed in SEEDS] for w in WORKLOADS}
            for label in ("set1", "set2")}
    pairs = {w: [(bench(w, seed, 0), bench(w, seed, 1)) for seed in TRACED_SEEDS]
             for w in WORKLOADS}
    workloads = {}
    for w in WORKLOADS:
        runs.setdefault("traced", {})[w] = [traced for _, traced in pairs[w]]
        entry = {label: summarise(label, w, runs[label][w]) for label in runs}
        entry["traced"]["overhead_pct"] = [
            100.0 * (1.0 - traced[0]["ops_per_s"] / untraced[0]["ops_per_s"])
            for untraced, traced in pairs[w]]
        entry["traced"]["seconds_per_op.first_seed"] = pairs[w][0][1][0]["layers"]
        workloads[w] = entry
    baseline = {
        "what": f"Baseline of the weberorr benchmark: run_seconds {SPEC['run_seconds']}, "
                f"seeds {SEEDS[0]}-{SEEDS[-1]} per workload in two untraced sets, "
                f"seeds {TRACED_SEEDS[0]}-{TRACED_SEEDS[-1]} traced, each after an untraced run.",
        "machine": runs["set1"][WORKLOADS[0]][0][0]["machine"],
        "workloads": workloads,
        "profile_checks": profile_checks({w: workloads[w]["traced"] for w in WORKLOADS}),
        "forward_direct_near_a": forward_direct_near_a(),
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of weberorr: one workload per run, driven as a closed loop with
one caller for a fixed number of seconds.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports weberorr from `src/`.  The
inputs come from --seed only.  Outputs are checked against references after
the timed loop; the accuracy metrics cover a fixed check set, the first ops
of the seed, which are run after the loop if the loop did not reach them.  Standard output ends with two JSON lines: a report (the
machine and every metric, with sample counts) and the result
`{"correct", "attempted", "failed", "metrics"}`.  With --trace 0 the result
holds the end-to-end metrics; with --trace 1 the package is traced and the
result holds the per-layer metrics, and the spans are written to
`perfbench/out/`.
"""

import os

# One caller on a small machine: pin BLAS to one thread (at most the core
# count) before numpy is loaded, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("roundtrip", "profile", "oracle_sweep", "mellin")
SETUP_PROBES = 8  # fresh processes timing set-up, half before the loop, half after
REL_FLOOR = 2.0 ** -52  # err_digits tops out at double precision
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_s.p50", "s"),
              ("peak_rss_mb", "MB"), ("err_digits", "digits"))


def set_up(workload: str, seed: int, tiny: bool):
    """Import weberorr and build the workload; returns it with the seconds taken."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads  # loads numpy and weberorr

    built = workloads.WORKLOADS[workload](seed, tiny)
    return built, time.perf_counter() - start


def setup_samples(args, count: int) -> list:
    """Set-up seconds of `count` fresh processes, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(count):
        probe = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                               check=True, cwd=HERE.parent)
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def timed_loop(workload, seconds: float, tracer=None) -> list:
    """Run ops back to back until `seconds` have passed; (inputs, output,
    seconds, timed) each."""
    records = []
    loop_start = time.perf_counter()
    while not records or time.perf_counter() - loop_start < seconds:
        i = len(records)
        inputs = workload.draw(i)
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = workload.run(inputs)
        except Exception as exc:  # a failed op is counted and the loop goes on
            out = exc
            if not any(isinstance(r[1], Exception) for r in records):
                traceback.print_exc(file=sys.stderr)
        records.append((inputs, out, time.perf_counter() - start, True))
    return records


def complete_check_set(workload, records: list, count: int) -> None:
    """Run, untimed, the ops of the check set (ops 0 to count-1) that the
    timed loop did not reach, so that the accuracy metrics always cover the
    same ops whatever the program's speed."""
    for i in range(len(records), count):
        inputs = workload.draw(i)
        try:
            out = workload.run(inputs)
        except Exception as exc:
            out = exc
        records.append((inputs, out, 0.0, False))


def _digits(rel: float) -> float:
    return -math.log10(max(rel, REL_FLOOR))


def evaluate(workload, records, check_ops: int) -> dict:
    """Check every output and derive the metrics of the report.

    An op inside the promised region fails when it raises, reports
    converged=False or misses its check.  A probe of a documented defect
    fails only when it raises something other than a WeberOrrError; the
    report counts its typed refusals, non-converged results and silent
    misses (a wrong value reported as converged).

    Speed comes from the timed ops.  Accuracy comes from the check set, ops
    0 to check_ops-1, the same ops on every run of a seed: `err_digits`,
    `err_bound_ok_frac` and `failed_frac` (every op of the set that did not
    deliver a correct value, probes included).
    """
    from weberorr.errors import WeberOrrError

    failed = 0
    in_spec, checked, probes, notes, op_times = [], [], {}, {}, []
    set_ops = set_good = all_checked = 0
    for i, (inputs, out, seconds, timed) in enumerate(records):
        kind = workload.probe(inputs)
        in_set = i < check_ops
        tally = None
        if kind is not None:
            tally = probes.setdefault(kind, {"ops": 0, "ok": 0, "refused": 0,
                                             "not_converged": 0, "silent_miss": 0})
            tally["ops"] += 1
        set_ops += in_set
        if isinstance(out, Exception):
            if tally is not None and isinstance(out, WeberOrrError):
                tally["refused"] += 1
            else:
                failed += 1
            continue
        outcome = workload.check(inputs, out)
        all_checked += len(outcome.checks)
        for key, val in outcome.notes.items():
            notes[key] = notes.get(key, 0) + val
        good = outcome.converged and all(c.ok for c in outcome.checks)
        if tally is None:
            failed += not good
            if in_set:
                in_spec += outcome.checks
        else:
            tally["worst_rel_err"] = max([tally.get("worst_rel_err", 0.0)]
                                         + [c.rel_err for c in outcome.checks])
            tally["max_estimate"] = max([tally.get("max_estimate", 0.0)]
                                        + [c.estimate or 0.0 for c in outcome.checks])
            verdict = "ok" if good else "not_converged" if not outcome.converged \
                else "silent_miss"
            tally[verdict] += 1
        if in_set:
            checked += outcome.checks
            set_good += good
        if good and timed:
            op_times.append(seconds)
    timed_ops = sum(r[3] for r in records)
    timed_s = sum(r[2] for r in records)
    with_estimate = [c for c in checked if c.estimate is not None]
    report = {
        "attempted": len(records),
        "attempted.timed": timed_ops,
        "failed": failed,
        "completed": len(op_times),
        "timed_s": timed_s,
        "ops_per_s": len(op_times) / timed_s,
        "op_s.samples": len(op_times),
        "op_s.p50": statistics.median(op_times) if op_times else timed_s / timed_ops,
        "checked_values": all_checked,
        "check_set.ops": set_ops,
        "check_set.checked_values": len(checked),
        "failed_frac": 1.0 - set_good / set_ops,
        "err_digits": min((_digits(c.rel_err) for c in in_spec), default=0.0),
        "err_digits.with_probes": min((_digits(c.rel_err) for c in checked), default=0.0),
        "err_bound_ok_frac": (sum(c.estimate >= c.abs_err for c in with_estimate)
                              / len(with_estimate)) if with_estimate else None,
        **{f"{key}.count": val for key, val in notes.items()},
    }
    tail = workload.TAIL_PERCENTILE
    if tail is not None and len(op_times) * (1.0 - tail / 100.0) >= 10.0:
        cuts = statistics.quantiles(op_times, n=100, method="inclusive")
        report["op_s.tail"] = {"percentile": tail, "value": cuts[tail - 1]}
    if probes:
        report["probes"] = probes
    return report


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_requested": int(BLAS_THREADS)}
    if blas.get("openblas configuration"):
        info["blas_config"] = blas["openblas configuration"]
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None) \
            or getattr(lib, "openblas_get_num_threads", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            info["blas_threads"] = getter()
    with open("/proc/cpuinfo") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    info["cpu"] = models[0] if models else platform.processor()
    return info


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result)."""
    setup = setup_samples(args, SETUP_PROBES // 2)
    workload, _ = set_up(args.workload, args.seed, args.tiny)
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    try:
        records = timed_loop(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_samples(args, SETUP_PROBES - len(setup))
    timed_ops = len(records)
    check_ops = workload.CHECK_OPS[1 if args.tiny else 0]
    complete_check_set(workload, records, check_ops)
    report = evaluate(workload, records, check_ops)
    report.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "tiny": args.tiny, "machine": machine(),
                   "setup_s": statistics.median(setup), "setup_s.samples": setup,
                   "peak_rss_mb": peak_rss_mb})
    if tracer is not None:
        values = tracer.metrics(timed_ops, report["timed_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layertrace.per_layer_metrics()}
        report["layers"] = tracer.summary(timed_ops)
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "weberorr" / "__init__.py").is_file():
        print(f"perfbench: no weberorr package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(set_up(args.workload, args.seed, args.tiny)[1])
        return 0
    report, result = run(args)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tiny-size smoke runs of every workload through the benchmark's command.

    python3 -m pytest perfbench/tests -q

Each run must print every metric that BENCHMARK.json names, with its unit,
and must have run the reference checks.  The accuracy metrics must not
change with the number of ops a run reaches.  A directory holding only the
benchmark (no `src/`) must make the command fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT, seconds=0.5):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                             "--trace", str(trace), "--tiny"]
    return subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert report["checked_values"] >= result["attempted"]
    assert report["check_set.checked_values"] >= 1
    assert report["machine"]["nproc"] >= 1
    if trace:
        calls = {m: v["value"] for m, v in result["metrics"].items() if m.endswith(".calls")}
        # names bound by import (solver's fnu_matrix) are traced too
        if workload == "roundtrip":
            assert calls["closedform.fnu_matrix.calls"] > 0
            assert calls["solver.forward_profile.calls"] > 0
        if workload == "oracle_sweep":
            assert calls["specfun.bessel_jy.calls"] > 0
            assert calls["specfun.hyp2f1_matrix.calls"] == 0
        if workload == "mellin":
            assert calls["mellin.mellin_forward.calls"] > 0
            assert calls["specfun.bessel_jy.calls"] == 0


def test_accuracy_metrics_do_not_depend_on_the_op_count():
    reports = []
    for seconds in (0.2, 2.0):
        proc = bench("oracle_sweep", 0, seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout.splitlines()[-2])["report"])
    assert reports[0]["attempted.timed"] < reports[1]["attempted.timed"]
    for key in ("err_digits", "err_bound_ok_frac", "failed_frac", "check_set.checked_values"):
        assert reports[0][key] == reports[1][key], key


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(BENCH.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

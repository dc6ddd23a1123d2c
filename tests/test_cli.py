import json
import os
import subprocess
import sys

import pytest

from weberorr.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO,
                          EXIT_NONCONVERGED, EXIT_OK, Row, RunConfig,
                          build_config, emit_report, main, parse_complex, run)


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "weberorr.cli", *args],
                          capture_output=True, text=True, **kw)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("-0.5+0i") == complex(-0.5, 0.0)
        assert parse_complex("1.5-2i") == complex(1.5, -2.0)
        assert parse_complex("2i") == complex(0.0, 2.0)
        assert parse_complex("3") == complex(3.0, 0.0)
        with pytest.raises(ValueError):
            parse_complex("nope")

    def test_family_spec(self):
        cfg = build_config(["roundtrip", "--family", "p=1,q=2"])
        assert cfg.family_p == 1 and cfg.family_q == 2.0

    def test_config_file_and_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nnu = -0.6\na = 0.5\ntol_abs = 1e-9\n")
        cfg = build_config(["eval-kernel", "--config", str(path),
                            "--a", "2.0"])
        assert cfg.nu == -0.6
        assert cfg.a == 2.0  # flag overrides file
        assert cfg.tol_abs == 1e-9

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nope = 1\n")
        with pytest.raises(ValueError):
            build_config(["eval-kernel", "--config", str(path)])

    FILE_KEYS = ("nu a x s grid family_p family_q fixture tol_abs tol_rel "
                 "contour_mu contour_tmax panels format output seed").split()

    def test_config_file_keys(self, tmp_path):
        # the file takes the value flags' names with underscores, family_p
        # and family_q, and nothing else: no command-line-only flag, no
        # abbreviation, no dashed spelling
        good = {"nu": "-0.6", "a": "0.5", "x": "3", "s": "-0.4+1i",
                "grid": "1,2", "family_p": "1", "family_q": "3",
                "fixture": "zero", "tol_abs": "1e-9", "tol_rel": "1e-7",
                "contour_mu": "-0.8", "contour_tmax": "12", "panels": "8",
                "format": "json", "output": "out.json", "seed": "9"}
        assert sorted(good) == sorted(self.FILE_KEYS)
        path = tmp_path / "run.cfg"
        for key, val in good.items():
            path.write_text(f"{key} = {val}\n")
            build_config(["eval-kernel", "--config", str(path)])
        for key in ("oracle", "quick", "config", "family", "command", "n",
                    "tol", "tol-abs", "family_r", "output_format"):
            path.write_text(f"{key} = 1\n")
            with pytest.raises(ValueError):
                build_config(["eval-kernel", "--config", str(path)])

    @pytest.mark.parametrize("key,file_val,flag,flag_val,want", [
        ("nu", "-0.6", "--nu", "-0.7", -0.7),
        ("s", "-0.4+1i", "--s=-0.3-2i", None, complex(-0.3, -2.0)),
        ("grid", "1,2", "--grid", "3,4,5", [3.0, 4.0, 5.0]),
        ("format", "json", "--format", "csv", "csv"),
        ("panels", "8", "--panels", "12", 12),
    ])
    def test_flag_overrides_file_value(self, tmp_path, key, file_val, flag,
                                       flag_val, want):
        # one key per parser: float, complex, grid, choice, int
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {file_val}\n")
        argv = ["eval-kernel", "--config", str(path), flag]
        cfg = build_config(argv + ([flag_val] if flag_val else []))
        assert getattr(cfg, {"format": "output_format"}.get(key, key)) == want

    def test_family_parts_merge(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("family_p = 1\nfamily_q = 3\n")
        cfg = build_config(["roundtrip", "--config", str(path), "--family", "q=5"])
        assert (cfg.family_p, cfg.family_q) == (1, 5.0)
        cfg = build_config(["roundtrip", "--family", "p=1", "--family", "q=3"])
        assert (cfg.family_p, cfg.family_q) == (1, 3.0)

    def test_family_spec_rejects_other_keys(self):
        with pytest.raises(SystemExit) as exc:
            build_config(["roundtrip", "--family", "p=1,r=2"])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("line,flag", [("format = xml", "--format"),
                                           ("fixture = nope", "--fixture")])
    def test_bad_file_value_exits_2(self, tmp_path, line, flag):
        # a file value meets its flag's checks: exit 2, argparse's message
        # naming the flag, no traceback
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        out = run_cli(["eval-kernel", "--grid", "1", "--config", str(path)])
        assert out.returncode == EXIT_CONFIG
        assert f"argument {flag}: invalid choice" in out.stderr
        assert "Traceback" not in out.stderr


class TestEmit:
    def test_empty_rows_csv(self):
        text = emit_report([], "csv", None, {})
        assert text == "value_re,value_im,abs_err,converged\n"

    def test_empty_rows_json(self):
        doc = json.loads(emit_report([], "json", None, {"command": "x"}))
        assert doc["schema_version"] == 1
        assert doc["rows"] == []

    def test_csv_header_positional(self):
        rows = [Row({"nu": -0.75, "a": 1.0}, complex(1.5, -2.0), 1e-9, True)]
        text = emit_report(rows, "csv", None, {})
        lines = text.strip().split("\n")
        assert lines[0] == "input_1,input_2,value_re,value_im,abs_err,converged"
        cells = lines[1].split(",")
        assert cells[0] == "-0.75" and cells[-1] == "1"

    def test_serialization_round_trip(self):
        rows = [Row({"x": 2.0}, complex(0.1234567890123456789, 1e-17),
                    3.2e-11, False)]
        doc = json.loads(emit_report(rows, "json", None, {}))
        row = doc["rows"][0]
        assert row["inputs"]["x"] == 2.0
        assert row["value"]["re"] == pytest.approx(0.12345678901234568, abs=0)
        assert row["converged"] is False


class TestCommands:
    def test_eval_kernel(self):
        out = run_cli(["eval-kernel", "--nu", "-0.75", "--a", "1",
                       "--x", "2", "--grid", "0.5,1,2"])
        assert out.returncode == EXIT_OK
        lines = out.stdout.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("input_1")

    def test_eval_f_matches_oracle(self):
        base = ["eval-F", "--nu", "-0.75", "--a", "1", "--x", "2",
                "--s=-0.5+0i"]
        closed = run_cli(base)
        oracle = run_cli(base + ["--oracle"])
        assert closed.returncode == EXIT_OK and oracle.returncode == EXIT_OK
        v1 = float(closed.stdout.strip().split("\n")[1].split(",")[5])
        v2 = float(oracle.stdout.strip().split("\n")[1].split(",")[5])
        assert abs(v1 - v2) / abs(v1) <= 1e-6

    def test_solve_zero_fixture(self):
        out = run_cli(["solve", "--fixture", "zero", "--grid", "0.5,1,2"])
        assert out.returncode == EXIT_OK
        for line in out.stdout.strip().split("\n")[1:]:
            cells = line.split(",")
            assert float(cells[3]) == 0.0 and float(cells[4]) == 0.0

    def test_determinism_byte_identical(self, tmp_path):
        args = ["eval-kernel", "--nu", "-0.75", "--a", "1", "--x", "2",
                "--grid", "0.5,1,2", "--format", "json", "--seed", "7"]
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        assert run_cli(args + ["--output", str(p1)]).returncode == EXIT_OK
        assert run_cli(args + ["--output", str(p2)]).returncode == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_exit_code_config_error(self):
        out = run_cli(["eval-kernel", "--grid", "2,1"])  # not increasing
        assert out.returncode == EXIT_CONFIG
        out = run_cli(["eval-F", "--s", "garbage"])
        assert out.returncode == EXIT_CONFIG
        out = run_cli(["no-such-command"])
        assert out.returncode == EXIT_CONFIG

    def test_exit_code_bad_domain(self):
        # x <= a is a precondition violation -> config error exit
        out = run_cli(["eval-F", "--nu", "-0.75", "--a", "1", "--x", "0.5",
                       "--s=-0.5+0i"])
        assert out.returncode == EXIT_CONFIG

    def test_exit_code_nonconvergence(self):
        # forced non-convergence: absurdly tight tolerance with a tiny
        # half-period budget
        out = run_cli(["eval-F", "--nu", "-0.75", "--a", "1", "--x", "1.02",
                       "--s=-0.5+0i", "--oracle", "--tol-abs", "1e-15",
                       "--tol-rel", "1e-15"])
        assert out.returncode == EXIT_NONCONVERGED

    def test_exit_code_io_failure(self, tmp_path):
        out = run_cli(["eval-kernel", "--grid", "1,2",
                       "--output", str(tmp_path / "nodir" / "x.csv")])
        assert out.returncode == EXIT_IO

    def test_forward_reports_contour_error(self):
        # the rows carry the contour's own error estimate and flag: a
        # contour cut at |Im s| = 6 leaves a tail above the tolerance
        base = ["forward", "--family", "p=2,q=1", "--nu", "-0.75", "--a", "1",
                "--grid", "1.5,2,4"]
        ok = run_cli(base)
        assert ok.returncode == EXIT_OK, ok.stdout + ok.stderr
        for line in ok.stdout.strip().split("\n")[1:]:
            cells = line.split(",")
            assert 0.0 < float(cells[5]) <= 1e-9 and cells[6] == "1"
        cut = run_cli(base + ["--contour-tmax", "6"])
        assert cut.returncode == EXIT_NONCONVERGED
        for line in cut.stdout.strip().split("\n")[1:]:
            cells = line.split(",")
            assert float(cells[5]) > 1e-9 and cells[6] == "0"

    def test_roundtrip_cli(self):
        out = run_cli(["roundtrip", "--family", "p=2,q=1", "--nu", "-0.75",
                       "--a", "1", "--grid", "0.5,1,2"])
        assert out.returncode == EXIT_OK, out.stdout + out.stderr
        assert "max relative error" in out.stdout

    def test_verify_quick(self):
        out = run_cli(["verify", "--quick"])
        assert out.returncode == EXIT_OK, out.stdout + out.stderr
        assert "PASS wronskian_at_inner_radius" in out.stdout
        assert "FAIL" not in out.stdout

    def test_run_unknown_command(self):
        assert run(RunConfig(command="x")) == EXIT_CONFIG

    @pytest.mark.xfail(strict=True, reason=(
        "inverse_cross_form reports non-converged: the derivative closure's "
        "first batch reaches the endpoint-slope probes near t = a and ends "
        "unsettled at refine 16 (panel_increment 6.1e-7) although its value "
        "is correct; a per-batch flag ignores each abscissa's weight "
        "(ROADMAP item 4)"))
    def test_full_verify(self):
        assert main(["verify"]) == EXIT_OK

    def test_verify_invariant_failure_exit(self, monkeypatch):
        # a failing check must drive exit code 4
        import weberorr.cli as cli_mod

        def fake_checks(cfg):
            return [("always_fails", lambda: (1.0, 1e-6, True))]

        monkeypatch.setattr(cli_mod, "_verify_checks", fake_checks)
        code = cli_mod.main(["verify", "--quick"])
        assert code == EXIT_INVARIANT

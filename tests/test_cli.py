"""End-to-end command line checks, each through a real subprocess."""

import csv
import json
import subprocess
import sys

import pytest

from cayleykit.octonion import DEFAULT_TABLE

FAST = ("--trials", "2000")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", *map(str, args)],
        capture_output=True, text=True, timeout=240)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "cayleykit" in proc.stdout


def test_verify_single_suite_passes():
    proc = run_cli("verify", "octonion", "--seed", 42, *FAST)
    assert proc.returncode == 0
    assert "FAIL" not in proc.stdout
    assert "octonion.norm-multiplicativity" in proc.stdout
    assert "checks passed" in proc.stdout


def test_verify_writes_report(tmp_path):
    proc = run_cli("verify", "octonion", "forms", "--seed", 3, "--out", tmp_path, *FAST)
    assert proc.returncode == 0
    report = read_report(tmp_path)
    assert report["schema"] == 1
    assert report["passed"] is True
    assert report["config"]["seed"] == 3
    assert [s["suite"] for s in report["suites"]] == ["octonion", "forms"]
    assert report["summary"]["checks"] == sum(len(s["checks"]) for s in report["suites"])
    assert report["summary"]["failed"] == []
    assert "generated_at" in report["timing"]


def test_report_determinism(tmp_path):
    args = ("verify", "octonion", "forms", "kernels", "--seed", 11, *FAST)
    first = run_cli(*args, "--out", tmp_path / "a")
    second = run_cli(*args, "--out", tmp_path / "b")
    assert first.returncode == 0 and second.returncode == 0
    ra, rb = read_report(tmp_path / "a"), read_report(tmp_path / "b")
    # wall time and timestamp live in the single isolated entry
    ra.pop("timing"), rb.pop("timing")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_corrupted_table_fails_named_check(tmp_path):
    path = tmp_path / "table.csv"
    DEFAULT_TABLE.save(path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[3][5] = str(-int(rows[3][5]))  # still a valid signed index, wrong product
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    proc = run_cli("verify", "--mul-table", path, *FAST)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "octonion.table-closure" in proc.stdout


def test_malformed_table_is_usage_error(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("this,is,not,a,table\n")
    proc = run_cli("verify", "octonion", "--mul-table", path)
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_unknown_suite_is_usage_error():
    proc = run_cli("verify", "nonsense")
    assert proc.returncode == 2
    assert "unknown suite" in proc.stderr


def test_unknown_flag_and_command_are_usage_errors():
    assert run_cli("verify", "--bogus").returncode == 2
    assert run_cli("frobnicate").returncode == 2


def test_spectrum_artifacts(tmp_path):
    proc = run_cli("spectrum", "--radius", "4", "--grid", "400,800", "--out", tmp_path)
    assert proc.returncode == 0
    assert "closest approach to 121" in proc.stdout

    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["radius", "cells", "value", "coarse_value", "richardson",
                             "error_estimate", "gap", "converged"]
    assert [(float(r["radius"]), int(r["cells"])) for r in rows] == [(4.0, 400), (4.0, 800)]
    assert all(121.0 < float(r["value"]) < 124.0 for r in rows)

    with open(tmp_path / "laplacian.csv", newline="") as fh:
        curve = list(csv.DictReader(fh))
    assert list(curve[0]) == ["r", "laplacian"]
    assert len(curve) == 240
    assert float(curve[-1]["laplacian"]) == pytest.approx(22.0, abs=0.01)

    for name in ("spectrum.svg", "laplacian.svg"):
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg")
        assert 'width="800" height="600"' in text


def test_pinch_artifacts(tmp_path):
    proc = run_cli("pinch", "--starts", 5, "--steps", 1500, "--seed", 2, "--out", tmp_path)
    assert proc.returncode == 0
    assert "sectional range" in proc.stdout
    with open(tmp_path / "pinch.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["start", "direction", "sectional"]
    assert len(rows) == 10
    assert {r["direction"] for r in rows} == {"min", "max"}
    assert all(-4.0 - 1e-6 <= float(r["sectional"]) <= -1.0 + 1e-6 for r in rows)


def test_report_command_with_operator_export(tmp_path):
    search = ("--starts", 8, "--steps", 4000, "--seed", 5)
    proc = run_cli("report", "--trials", 2000, "--radius", "4,6", "--grid", "400,800",
                   *search, "--out", tmp_path, "--export-operator")
    assert proc.returncode == 0
    # report shares one operator between pinch.csv and operator.csv; same search as pinch
    assert run_cli("pinch", *search, "--out", tmp_path / "pinch").returncode == 0
    assert (tmp_path / "pinch.csv").read_bytes() == (tmp_path / "pinch" / "pinch.csv").read_bytes()
    for name in ("report.json", "spectrum.csv", "spectrum.svg", "laplacian.csv",
                 "laplacian.svg", "pinch.csv", "operator.csv"):
        assert (tmp_path / name).exists()
    report = read_report(tmp_path)
    assert report["passed"] is True
    assert len(report["suites"]) == 6
    operator = (tmp_path / "operator.csv").read_text().splitlines()
    assert len(operator) == 120
    assert all(len(line.split(",")) == 120 for line in operator)


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\ntrials = 1500\n# comment line\nradius = 4\ngrid = 400, 800\n")
    proc = run_cli("verify", "octonion", "--config", cfg, "--seed", 5, "--out", tmp_path)
    assert proc.returncode == 0
    report = read_report(tmp_path)
    assert report["config"]["seed"] == 5       # explicit flag wins
    assert report["config"]["trials"] == 1500  # file overrides the default
    assert report["config"]["radii"] == [4.0]


def test_malformed_config_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # a line without "=", a value only the flag would have rejected, a field name as key
    for text, message in (("seed 3\n", "bad.cfg:1"), ("format = xml\n", "format"),
                          ("radii = 4\n", "unknown config key 'radii'")):
        cfg.write_text(text)
        proc = run_cli("verify", "octonion", "--config", cfg, "--out", tmp_path)
        assert proc.returncode == 2
        assert message in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_csv_report_format(tmp_path):
    proc = run_cli("verify", "forms", "--format", "csv", "--out", tmp_path)
    assert proc.returncode == 0
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["suite", "check", "residual", "tolerance", "passed"]
    assert all(r["suite"] == "forms" and r["passed"] == "True" for r in rows)

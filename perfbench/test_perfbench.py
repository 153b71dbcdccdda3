"""Tests of the benchmark itself: its correctness gate, report diff and tracer.

    python3 -m pytest perfbench -q

They run cayleykit in child interpreters, so the source tree must be at
``src/`` next to this directory.  None of them runs a timed workload.
"""

import csv
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))


def soon() -> float:
    return time.monotonic() + 60


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    (tmp_path / "tmp").mkdir()
    return tmp_path


def octonion_expectation() -> dict:
    checks = json.loads((run.HERE / "expected.json").read_text())["verify-all"]["checks"]
    return {"exit": 0, "checks": {k: v for k, v in checks.items() if k.startswith("octonion.")}}


def test_flipped_table_sign_is_a_failed_run(work):
    from cayleykit.octonion import MultiplicationTable

    path = work / "flipped.csv"
    MultiplicationTable.generate().save(path)
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[1][2] = str(-int(rows[1][2]))          # e0 * e1 changes sign only
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")

    args = ["verify", "octonion", "--trials", "1000", "--mul-table", str(path)]
    record = run.run_repeat("flipped-table", args, octonion_expectation(), 0, "test", False, soon())

    assert record["exit"] == 1
    assert any("octonion.table-closure" in p for p in record["problems"])
    assert any("FAIL octonion.table-closure" in line for line in record["output_tail"])
    assert run.fail_ratio([record]) == {"failed": 1, "attempted": 1, "value": 1.0}


def test_builtin_table_passes_the_same_gate(work):
    args = ["verify", "octonion", "--trials", "1000"]
    first = run.run_repeat("builtin-table", args, octonion_expectation(), 0, "test", False, soon())
    second = run.run_repeat("builtin-table", args, octonion_expectation(), 0, "test", True, soon())
    assert first["problems"] == [] and second["problems"] == []
    assert first["differs_from_reference"] is None
    assert second["differs_from_reference"] == []
    assert second["trace"]["spans"]["octonion.mul_arrays"]["calls"] == 13


def test_command_past_the_deadline_is_killed_and_fails(work):
    args = ["verify", "octonion", "--trials", "1000"]
    record = run.run_repeat("late", args, octonion_expectation(), 0, "test", False, time.monotonic())
    assert record["timed_out"]
    assert record["problems"][0].startswith("killed")


def test_diff_names_changed_values_outside_timing():
    check = {"check": "geodesy.spectrum-bottom", "residual": 1e-3, "note": "in 1.8s"}
    a = {"suites": [{"suite": "geodesy", "checks": [check]}], "timing": {"x": 1}}
    b = json.loads(json.dumps(a))
    b["timing"]["x"] = 2
    b["suites"][0]["checks"][0]["note"] = "in 1.3s"
    assert run.diff_paths(a, b) == ["suites[geodesy].checks[geodesy.spectrum-bottom].note"]
    b["suites"][0]["checks"][0]["residual"] = 2e-3
    assert run.diff_paths(a, b)[1] == "suites[geodesy].checks[geodesy.spectrum-bottom].residual"


def test_judge_reports_outcome_and_list_changes():
    expected = {"exit": 0, "checks": {"a": True, "b": True}}
    report = {"suites": [{"checks": [{"check": "a", "passed": True},
                                     {"check": "b", "passed": False}]}]}
    assert run.judge({"exit": 1}, report, expected) == [
        "exit code 1, expected 0", "b: passed=False, expected passed=True"]
    report["suites"][0]["checks"].pop()
    assert "check list differs" in run.judge({"exit": 0}, report, expected)[0]


def test_tracer_nests_spans_and_reports_missing_names():
    from cayleykit import curvature, suites

    names = {"curvature.gone": "curvature.NoSuchFunction",
             "suites.curvature": "suites.SUITES.curvature",
             "curvature.plane_value": "curvature.SectionalCurvature.plane_value"}
    original = suites.SUITES["curvature"]
    t = tracer.Tracer.install(names)
    try:
        curvature.SectionalCurvature().plane_value([[1.0] + [0.0] * 15] * 3, [[0.0, 1.0] + [0.0] * 14] * 3)
    finally:
        t.uninstall()
    assert suites.SUITES["curvature"] is original
    summary = t.summary()
    assert summary["absent"] == ["curvature.gone"]
    assert summary["spans"]["curvature.plane_value"]["calls"] == 1
    assert summary["counts"]["curvature.plane_value.planes"] == 3
    assert [s["span"] for s in summary["top"]] == ["curvature.plane_value"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    empty = {"spans": {}, "counts": {}, "distinct": {}, "top": [], "absent": []}
    traced = {"wall_s": 1.0, "trace": empty}
    assert [m["name"] for m in spec["per_layer"]] == list(run.trace_metrics(traced, 1.0)["metrics"])
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "cpu_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""End-to-end command line checks, each through a real subprocess unless a
fault is patched into the package, which needs ``cli.main`` in process."""

import csv
import json
import os
import subprocess
import sys

import pytest

from cayleykit import cli, curvature, geodesy, suites
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
    assert report["schema"] == 4
    assert report["passed"] is True
    # every check is a record: its claim, each route's value and the evidence, with the note
    # rendered from them
    for check in (c for s in report["suites"] for c in s["checks"]):
        assert {"claim", "routes", "relative", "evidence", "note"} <= set(check), check["check"]
        assert check["routes"] and check["note"], check["check"]
    assert report["config"] == {"seed": 3, "trials": 2000, "table": "builtin"}
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


def test_small_trials_still_sample_the_pinch_range(tmp_path):
    proc = run_cli("verify", "curvature", "--trials", 10, "--out", tmp_path)
    assert proc.returncode == 0
    (curv,) = read_report(tmp_path)["suites"]
    check = next(c for c in curv["checks"] if c["check"] == "curvature.pinch-range")
    assert check["claim"] == [-4.0, -1.0] and set(check["routes"]) == {"lowest", "highest"}
    assert check["evidence"]["planes"] >= 5000  # the NaN rows of degenerate planes are not counted


THREAD_PROBE = """
import json, os, sys
import cayleykit
numpy_loaded = "numpy" in sys.modules
import cayleykit.cli, numpy, scipy.linalg
a = numpy.ones((300, 300))
a @ a
threads = len(os.listdir("/proc/self/task"))
print(json.dumps([numpy_loaded, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc; one CPU starts no OpenBLAS workers")
def test_openblas_runs_on_one_thread_unless_the_caller_sets_it():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def probe(**extra):
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env={**env, **extra},
                              capture_output=True, text=True, timeout=60, check=True)
        return json.loads(proc.stdout)

    # the policy is set before numpy loads, so both OpenBLAS copies read it
    assert probe() == [False, "1", 1]
    _, value, threads = probe(OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    assert threads > 1  # the count sees OpenBLAS workers when the caller asks for them


def flipped_table(path):
    """The builtin table saved to ``path`` with the sign of e_2 e_4 flipped: still a valid
    signed index, the wrong product."""
    DEFAULT_TABLE.save(path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[3][5] = str(-int(rows[3][5]))
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return path


def test_corrupted_table_fails_named_check(tmp_path):
    # the table reaches every builder of the model: the octonion products, the curvature
    # operator and formula, and Phi
    proc = run_cli("verify", "--mul-table", flipped_table(tmp_path / "table.csv"), *FAST)
    assert proc.returncode == 1
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert failed == ["octonion.table-closure", "octonion.alternative-laws",
                      "octonion.conjugation-reversal", "octonion.norm-multiplicativity",
                      "octonion.conjugate-square-norm", "curvature.first-bianchi",
                      "curvature.operator-roundtrip", "curvature.radial-spectrum",
                      "curvature.pinch-search", "forms.spin9-base-form",
                      "forms.spin9-top-functional"]


def test_saved_builtin_table_gives_the_builtin_report(tmp_path):
    # every suite, through --mul-table and forked workers, reads the same model as the builtin
    table = tmp_path / "builtin.csv"
    DEFAULT_TABLE.save(table)
    reports = []
    for extra in ((), ("--mul-table", table)):
        out = tmp_path / f"out{len(extra)}"
        assert run_cli("verify", *FAST, "--out", out, *extra).returncode == 0
        report = read_report(out)
        report.pop("timing")
        reports.append(report)
    assert reports[1]["config"].pop("table") == str(table)
    assert reports[0]["config"].pop("table") == "builtin"
    assert reports[0] == reports[1]


def test_pinch_reads_the_table(tmp_path):
    # report's pinch.csv holds the extremes of the operator assembled from the table under test
    table = tmp_path / "builtin.csv"
    DEFAULT_TABLE.save(table)
    runs = {}
    for name, extra, status in (("builtin", (), 0), ("saved", ("--mul-table", table), 0),
                                ("flipped", ("--mul-table", flipped_table(tmp_path / "flipped.csv")), 1)):
        proc = run_cli("report", *FAST, "--out", tmp_path / name, *extra)
        assert proc.returncode == status
        runs[name] = (tmp_path / name / "pinch.csv").read_text()
    assert runs["saved"] == runs["builtin"]
    # the flipped sign breaks the pinching: the range found leaves [-4, -1] on both sides
    values = [float(row["sectional"]) for row in csv.DictReader(runs["flipped"].splitlines())]
    assert (min(values), max(values)) == (pytest.approx(-5.289, abs=1e-3), pytest.approx(-0.277, abs=1e-3))


def test_malformed_table_is_usage_error(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("this,is,not,a,table\n")
    missing = tmp_path / "missing.csv"
    # the table is read before any suite runs, whether or not octonion is selected
    for args in (("verify", "octonion", "--mul-table", path),
                 ("verify", "forms", "--mul-table", path),
                 ("verify", "forms", "--mul-table", missing),
                 ("report", "--mul-table", missing)):
        proc = run_cli(*args, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "error" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    proc = run_cli("verify", "nonsense")
    assert proc.returncode == 2
    assert "unknown suite" in proc.stderr
    # "all" next to an unknown name does not hide it, and nothing runs or is made
    assert cli.main(["verify", "forms", "all", "bogus", "--out", str(tmp_path / "new")]) == 2
    captured = capsys.readouterr()
    assert "unknown suite: bogus" in captured.err and captured.out == ""
    assert not (tmp_path / "new").exists()


def test_out_naming_an_existing_file_is_usage_error(tmp_path):
    # rejected with the other inputs, before any check runs
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    proc = run_cli("verify", "octonion", "--out", taken, *FAST)
    assert proc.returncode == 2
    assert "not a directory" in proc.stderr
    assert proc.stdout == ""
    assert taken.read_text() == "keep me\n"


def test_out_below_an_existing_file_is_usage_error(tmp_path):
    # the nearest existing ancestor of out must be a directory, or no report could be written
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    proc = run_cli("verify", "octonion", "--out", taken / "sub" / "deeper", *FAST)
    assert proc.returncode == 2
    assert "not a directory" in proc.stderr
    assert proc.stdout == ""
    assert taken.read_text() == "keep me\n"
    # a missing chain of directories below a directory is fine
    assert run_cli("verify", "forms", "--out", tmp_path / "new" / "sub").returncode == 0
    assert (tmp_path / "new" / "sub" / "report.json").exists()


def test_out_that_cannot_be_made_is_usage_error(tmp_path):
    # a dangling symlink passes the ancestor check, which follows the link, but no directory
    # can be made there; the directory is made before any suite runs
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "gone")
    for command in ("verify", "report"):
        proc = run_cli(command, *FAST, "--out", dangling)
        assert proc.returncode == 2, command
        assert "error" in proc.stderr and proc.stdout == "", command
    assert not (tmp_path / "gone").exists() and dangling.is_symlink()


def test_unknown_flag_and_command_are_usage_errors():
    assert run_cli("verify", "--bogus").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    # report writes every file spectrum and pinch wrote, and each setting has one flag; the
    # radii and the pinch directions are the model's constants, not settings
    help_text = run_cli("--help").stdout
    assert "{verify,report}" in help_text and "spectrum" not in help_text
    for args in (("spectrum",), ("pinch",), ("verify", "--config", "run.cfg"),
                 ("verify", "--format", "csv"), ("verify", "--radius", "4"),
                 ("report", "--starts", "8")):
        assert run_cli(*args).returncode == 2, args


def test_crash_inside_a_suite_is_a_failed_check(tmp_path, monkeypatch):
    # the input is valid, so neither exception may read as a usage error
    for error in (ArithmeticError("routes disagree"), ValueError("no feasible matrix")):
        def crash(problem, error=error):
            raise error
        monkeypatch.setattr(suites.kernels, "min_bochner_ratio", crash)
        out = tmp_path / type(error).__name__
        assert cli.main(["verify", "forms", "kernels", "--trials", "2000", "--out", str(out)]) == 1
        report = read_report(out)
        assert report["summary"]["failed"] == ["kernels.crashed"]
        forms_suite, kernels_suite = report["suites"]
        assert len(forms_suite["checks"]) == 7 and forms_suite["passed"]
        assert kernels_suite["checks"] == [{
            "check": "kernels.crashed", "residual": 1.0, "tolerance": 0.5, "passed": False,
            "claim": None, "routes": {}, "relative": False,
            "evidence": {"error": f"{type(error).__name__}: {error}"},
            "note": f"{type(error).__name__}: {error}"}]


def test_spectrum_artifacts(tmp_path):
    proc = run_cli("report", *FAST, "--out", tmp_path)
    assert proc.returncode == 0

    with open(tmp_path / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["radius", "nodes", "value", "coarse_value", "error_estimate",
                             "jacobi", "gap", "converged"]
    assert [(float(r["radius"]), int(r["nodes"])) for r in rows] == [(r, 64) for r in geodesy.RADII]
    for r in rows:
        assert 121.0 < float(r["value"]) < 124.0 and r["converged"] == "True"
        assert float(r["value"]) == pytest.approx(float(r["jacobi"]), rel=1e-10)
        assert float(r["gap"]) == pytest.approx(float(r["value"]) - 121.0)
        assert float(r["error_estimate"]) <= 1e-10 * float(r["value"])

    # each row is the data of geodesy.sturm-crosscheck at its radius, float for float: JSON and
    # repr both round-trip floats
    geo = next(s for s in read_report(tmp_path)["suites"] if s["suite"] == "geodesy")
    check = next(c for c in geo["checks"] if c["check"] == "geodesy.sturm-crosscheck")
    for r, nodes in zip(rows, check["evidence"]["nodes"], strict=True):
        route = f"collocation, R = {float(r['radius']):g}"
        assert float(r["value"]) == check["routes"][route]
        assert float(r["jacobi"]) == check["claim"][route]
        assert int(r["nodes"]) == nodes

    # the file holds the geodesy suite's route pairs: those of each radius solved afresh
    (tmp_path / "each").mkdir()
    cli.write_spectrum_artifacts(tmp_path / "each", [(geodesy.dirichlet_value(r), geodesy.jacobi_dirichlet(r))
                                                     for r in geodesy.RADII])
    assert (tmp_path / "spectrum.csv").read_bytes() == (tmp_path / "each" / "spectrum.csv").read_bytes()


def test_pinch_artifacts(tmp_path):
    runs = {}
    for seed in (2, 3):
        proc = run_cli("report", *FAST, "--seed", seed, "--out", tmp_path / str(seed))
        assert proc.returncode == 0
        with open(tmp_path / str(seed) / "pinch.csv", newline="") as fh:
            runs[seed] = rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["start", "direction", "sectional"]
        # one row per start and direction: the minima of every start, then their maxima
        assert [(r["start"], r["direction"]) for r in rows] == [
            (str(i), direction) for direction in ("min", "max") for i in range(curvature.PINCH_STARTS)]
        assert all(-4.0 - 1e-9 <= float(r["sectional"]) <= -1.0 + 1e-9 for r in rows)
    # --seed draws the start directions, from the curvature suite's substream
    assert runs[2] != runs[3]


def test_report_command_with_operator_export(tmp_path):
    proc = run_cli("report", *FAST, "--seed", 5, "--out", tmp_path, "--export-operator")
    assert proc.returncode == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["operator.csv", "pinch.csv", "report.json",
                                                         "spectrum.csv"]
    report = read_report(tmp_path)
    assert report["passed"] is True
    assert len(report["suites"]) == 6
    operator = (tmp_path / "operator.csv").read_text().splitlines()
    assert len(operator) == 120
    assert all(len(line.split(",")) == 120 for line in operator)


REPORT_FAST = ("--trials", "2000")


def test_report_assembles_once_and_searches_once(tmp_path, monkeypatch):
    # each call appends a line to a file, as the curvature suite may run in a forked worker
    calls = tmp_path / "calls.log"
    for name in ("assemble_operator", "pinch_extremes"):
        def counted(*args, _real=getattr(curvature, name), _name=name, **kwargs):
            with open(calls, "a") as log:
                log.write(_name + "\n")
            return _real(*args, **kwargs)
        monkeypatch.setattr(curvature, name, counted)
    out = tmp_path / "out"
    assert cli.main(["report", *REPORT_FAST, "--out", str(out), "--export-operator"]) == 0
    assert sorted(calls.read_text().split()) == ["assemble_operator", "pinch_extremes"]


def test_report_pinch_note_describes_pinch_csv(tmp_path, monkeypatch):
    # a scale fault moves the extremes off [-4, -1]; the record gives the ones pinch.csv holds,
    # and the note renders them
    monkeypatch.setattr(curvature, "ALPHA", -3.0)
    monkeypatch.setattr(curvature, "PINCH_STARTS", 2)
    assert cli.main(["report", *REPORT_FAST, "--out", str(tmp_path)]) == 1
    report = read_report(tmp_path)
    assert "curvature.pinch-search" in report["summary"]["failed"]
    curv = next(s for s in report["suites"] if s["suite"] == "curvature")
    check = next(c for c in curv["checks"] if c["check"] == "curvature.pinch-search")
    with open(tmp_path / "pinch.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [float(r["sectional"]) for r in rows]
    assert len(rows) == 4 and min(values) == pytest.approx(-3.0) and max(values) == pytest.approx(-0.75)
    assert (check["routes"]["minimum"], check["routes"]["maximum"]) == (min(values), max(values))
    assert check["claim"]["minimum"] == -4.0 and check["claim"]["maximum"] == -1.0
    assert check["evidence"] == {"starts": 2}
    assert f"minimum {min(values):.12g}, maximum {max(values):.12g}" in check["note"]


def test_report_with_crashed_curvature_suite(tmp_path, monkeypatch):
    def crash(table):
        raise ArithmeticError("assembly diverged")
    monkeypatch.setattr(curvature, "assemble_operator", crash)
    assert cli.main(["report", *REPORT_FAST, "--out", str(tmp_path), "--export-operator"]) == 1
    assert read_report(tmp_path)["summary"]["failed"] == ["curvature.crashed"]
    assert (tmp_path / "spectrum.csv").exists()
    assert not (tmp_path / "pinch.csv").exists()
    assert not (tmp_path / "operator.csv").exists()


def test_report_with_crashed_geodesy_suite(tmp_path, monkeypatch):
    # the spectrum files are the geodesy suite's route pairs: none without the suite
    def crash(radius):
        raise ArithmeticError("collocation diverged")
    monkeypatch.setattr(geodesy, "dirichlet_value", crash)
    assert cli.main(["report", *REPORT_FAST, "--out", str(tmp_path)]) == 1
    assert read_report(tmp_path)["summary"]["failed"] == ["geodesy.crashed"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pinch.csv", "report.json"]


def test_report_solves_each_radius_once(tmp_path, monkeypatch):
    # both spectrum routes run inside the geodesy suite, once at each of RADII, read when the
    # suite runs, and report writes what they found; each call appends a line, as the suite may
    # run in a worker
    calls = tmp_path / "calls.log"
    for name in ("dirichlet_value", "jacobi_dirichlet"):
        def counted(radius, _real=getattr(geodesy, name), _name=name):
            with open(calls, "a") as log:
                log.write(f"{_name} {radius:g}\n")
            return _real(radius)
        monkeypatch.setattr(geodesy, name, counted)
    for radii in (geodesy.RADII, (5.0, 10.0)):
        monkeypatch.setattr(geodesy, "RADII", radii)
        calls.write_text("")
        out = tmp_path / str(len(radii))
        assert cli.main(["report", *REPORT_FAST, "--out", str(out)]) == 0
        assert sorted(calls.read_text().splitlines()) == sorted(
            f"{name} {radius:g}" for name in ("dirichlet_value", "jacobi_dirichlet") for radius in radii)
        assert spectrum_column(out, "radius") == list(radii)


def spectrum_column(out_dir, column):
    with open(out_dir / "spectrum.csv", newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def test_ground_values_are_solved_again_in_each_run(tmp_path, monkeypatch):
    # nothing is kept between runs: a route patched between two runs in one process
    # reaches the second run's checks and its spectrum.csv
    assert cli.main(["report", *REPORT_FAST, "--out", str(tmp_path / "a")]) == 0
    real = geodesy.jacobi_dirichlet
    monkeypatch.setattr(geodesy, "jacobi_dirichlet", lambda radius: real(radius) + 1e-6)
    assert cli.main(["report", *REPORT_FAST, "--out", str(tmp_path / "b")]) == 1
    assert read_report(tmp_path / "b")["summary"]["failed"] == ["geodesy.spectrum-bottom",
                                                                "geodesy.sturm-crosscheck"]
    assert spectrum_column(tmp_path / "b", "value") == spectrum_column(tmp_path / "a", "value")
    assert spectrum_column(tmp_path / "b", "jacobi") == [
        v + 1e-6 for v in spectrum_column(tmp_path / "a", "jacobi")]


NOT_AT_RUNTIME = """
import sys


class NotAtRuntime:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy" or name.startswith(("numpy.random", "numpy.polynomial")):
            raise ImportError(f"{name} is not a runtime dependency")


sys.meta_path.insert(0, NotAtRuntime())
"""


def test_commands_run_without_scipy_or_numpy_random(tmp_path):
    # the runtime needs numpy's core only: scipy is a test oracle, the draws are the package's
    # own streams and the Gauss-Legendre rule is its own Newton solve, so each import of scipy,
    # numpy.random or numpy.polynomial fails here, in the forked workers too, where it would
    # fail a suite as <suite>.crashed
    (tmp_path / "sitecustomize.py").write_text(NOT_AT_RUNTIME)
    path = [str(tmp_path), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for module in ("scipy.linalg", "numpy.random", "numpy.polynomial"):
        blocked = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                                 capture_output=True, text=True, timeout=60)
        assert blocked.returncode == 1 and "not a runtime dependency" in blocked.stderr
    expected = {"verify": ["report.json"],
                "report": ["operator.csv", "pinch.csv", "report.json", "spectrum.csv"]}
    for command, names in expected.items():
        extra = ["--export-operator"] if command == "report" else []
        proc = subprocess.run(
            [sys.executable, "-m", "cayleykit.cli", command, *REPORT_FAST, *extra,
             "--out", str(tmp_path / command)], env=env, capture_output=True, text=True, timeout=240)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / command).iterdir()) == names
    # unblocked, a command leaves numpy.random, OpenSSL's _hashlib, which numpy.random's
    # seeding loads through secrets, and numpy.polynomial unimported
    script = ("import contextlib, io, sys\nfrom cayleykit import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(['verify', '--trials', '1']) == 0\n"
              "print(sorted({'numpy.random', '_hashlib', 'numpy.polynomial'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


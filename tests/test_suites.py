"""Unit checks for the suite layer: substreams, ordering, config contract."""

import dataclasses
import itertools
from functools import partial

import numpy as np
import pytest

from cayleykit import suites
from cayleykit.octonion import DEFAULT_TABLE
from cayleykit.suites import (
    SUITE_ORDER,
    SUITES,
    RunConfig,
    SuiteResult,
    run_suites,
)

FAST = dict(trials=2000, radii=(4.0,), grids=(400, 800), starts=8, steps=4000)


def test_suite_registry_matches_order():
    assert SUITE_ORDER == ("octonion", "exterior", "curvature", "geodesy", "forms", "kernels")
    assert set(SUITES) == set(SUITE_ORDER)


def test_config_validation():
    for bad in (dict(trials=0), dict(steps=0), dict(radii=()), dict(radii=(0.5,)),
                dict(grids=(150,)), dict(seed=-1), dict(fmt="xml")):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().steps = 0  # construction is the only place values are checked


def test_suite_rng_substreams_are_stable_and_distinct():
    cfg = RunConfig(seed=9)
    first = cfg.suite_rng("octonion").integers(0, 1 << 30, 6)
    again = cfg.suite_rng("octonion").integers(0, 1 << 30, 6)
    other = cfg.suite_rng("kernels").integers(0, 1 << 30, 6)
    reseeded = RunConfig(seed=10).suite_rng("octonion").integers(0, 1 << 30, 6)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert not np.array_equal(first, reseeded)


def test_run_suites_fixed_order_and_timings():
    results, timings = run_suites(["kernels", "octonion"], RunConfig(**FAST))
    assert [r.suite for r in results] == ["octonion", "kernels"]
    assert set(timings) == {"octonion", "kernels"}
    assert all(r.passed for r in results)
    assert all(np.isfinite(c.residual) for r in results for c in r.checks)


def test_single_suite_matches_stream_inside_selection():
    alone, _ = run_suites(["kernels"], RunConfig(**FAST))
    both, _ = run_suites(["octonion", "kernels"], RunConfig(**FAST))
    assert alone[0].as_dict() == both[1].as_dict()


def test_geodesy_results_ignore_wall_clock(monkeypatch):
    # timings belong in the report's timing block only; checks must not see the clock
    runs = []
    for step in (0.0, 1000.0):
        monkeypatch.setattr(suites.time, "monotonic", partial(next, itertools.count(0.0, step)))
        runs.append(SUITES["geodesy"](RunConfig(**FAST)).as_dict())
    assert runs[0] == runs[1]


def test_unconverged_spectrum_fails(monkeypatch):
    real = suites.geodesy.spectrum_estimate
    monkeypatch.setattr(suites.geodesy, "spectrum_estimate",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), converged=False))
    result = SUITES["geodesy"](RunConfig(**FAST))
    check = next(c for c in result.checks if c.check == "geodesy.spectrum-bottom")
    assert not check.passed and check.residual == 1.0
    assert "unconverged" in check.note


def test_check_bookkeeping():
    suite = SuiteResult("demo")
    at_tolerance = suite.add("demo.on-the-line", 1e-10, 1e-10)
    failing = suite.add("demo.too-big", 2e-10, 1e-10, "context note")
    assert at_tolerance.passed and not failing.passed
    assert not suite.passed
    assert suite.max_residual == 2e-10
    d = suite.as_dict()
    assert [c["check"] for c in d["checks"]] == ["demo.on-the-line", "demo.too-big"]
    assert "note" not in d["checks"][0] and d["checks"][1]["note"] == "context note"


def test_table_path_failure_is_localized(tmp_path):
    path = tmp_path / "table.csv"
    DEFAULT_TABLE.save(path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[4][1] = str(-int(rows[4][1]))
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    result = SUITES["octonion"](RunConfig(table_path=str(path), **FAST))
    failed = [c.check for c in result.checks if not c.passed]
    assert "octonion.table-closure" in failed

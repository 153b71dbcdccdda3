"""Unit checks for the suite layer: substreams, ordering, config contract."""

import dataclasses
import itertools
import os
import pickle
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from cayleykit import exterior, forms, octonion, suites
from cayleykit.octonion import DEFAULT_TABLE
from cayleykit.suites import (
    SUITE_ORDER,
    SUITES,
    RunConfig,
    SuiteResult,
    run_suites,
)

FAST = dict(trials=2000)


def test_suite_registry_matches_order():
    assert SUITE_ORDER == ("octonion", "exterior", "curvature", "geodesy", "forms", "kernels")
    assert set(SUITES) == set(SUITE_ORDER)


def test_config_validation():
    for bad in (dict(trials=0), dict(seed=-1)):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    with pytest.raises(TypeError):
        RunConfig(grids=(2000,))  # the spectrum routes pick their own node counts
    for constant in (dict(radii=(4.0,)), dict(starts=8)):  # geodesy.RADII, curvature.PINCH_STARTS
        with pytest.raises(TypeError):
            RunConfig(**constant)
    with pytest.raises(TypeError):
        RunConfig(fmt="csv")  # report.json is the one report format
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().trials = 0  # construction is the only place values are checked


def test_suite_rng_substreams_are_stable_and_distinct():
    cfg = RunConfig(seed=9)
    first = cfg.suite_rng("octonion").integers(0, 1 << 30, 6)
    again = cfg.suite_rng("octonion").integers(0, 1 << 30, 6)
    assert np.array_equal(first, again)
    # every (seed, suite) key draws its own stream, and so do their spawned streams, the
    # seeds past 64 bits too
    streams = [RunConfig(seed=seed).suite_rng(name) for seed in (0, 1, 9, 10, 2**64, 2**64 + 9)
               for name in SUITE_ORDER]
    streams += [child for stream in streams[:12] for child in stream.spawn(2)]
    draws = {tuple(stream.integers(0, 1 << 30, 6).tolist()) for stream in streams}
    assert len({stream.key for stream in streams}) == len(draws) == len(streams) == 60


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


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_two_workers_and_one_give_the_same_results(monkeypatch):
    runs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        results, timings = run_suites(SUITE_ORDER, RunConfig(**FAST))
        no_child_left()
        assert set(timings) == set(SUITE_ORDER)
        runs.append(([r.as_dict() for r in results], [pickle.dumps(r.artifacts) for r in results]))
    assert runs[0] == runs[1]
    assert runs[0][1][SUITE_ORDER.index("curvature")] != pickle.dumps({})


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_each_worker_runs_a_fixed_share_of_the_suites(monkeypatch):
    # which suites share a process sets each process's peak memory, so it may not depend
    # on timing: four workers are dealt the six suites 0, 1, 2, 3, 3, 2.  Octonion's slot is
    # this process, which builds its record from the blocks of the chunks any worker claimed
    def fake(name, cfg, blocks=None):
        result = SuiteResult(name)
        result.add(f"{name}.ran", 1.0, {"ran": True}, claim=True,
                   evidence={"pid": os.getpid(), "blocks": blocks and len(blocks)})
        return result

    for name in SUITE_ORDER:
        monkeypatch.setitem(SUITES, name, partial(fake, name))
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for _ in range(2):
        results, _ = run_suites(SUITE_ORDER, RunConfig(**FAST))
        no_child_left()
        pids = [r.checks[0].evidence["pid"] for r in results]
        assert pids[0] == os.getpid() and pids[2] == pids[5] and pids[3] == pids[4]
        assert len(set(pids)) == 4
        assert [r.checks[0].evidence["blocks"] for r in results] == [2, None, None, None, None, None]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_a_dead_worker_fails_its_suites(monkeypatch, tmp_path):
    # each fake suite exits in a forked worker; in this process it waits for that exit.
    # forms comes first in SUITE_ORDER, so this process runs it and the worker kernels
    parent, exited = os.getpid(), tmp_path / "exited"

    def fake(name, cfg):
        if os.getpid() != parent:
            exited.touch()
            os._exit(3)
        deadline = time.monotonic() + 60
        while not exited.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        result = SuiteResult(name)
        result.add(f"{name}.ran", 1.0, {"ran": True}, claim=True)
        return result

    for name in ("forms", "kernels"):
        monkeypatch.setitem(SUITES, name, partial(fake, name))
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results, timings = run_suites(["kernels", "forms"], RunConfig(**FAST))
    no_child_left()
    assert [r.suite for r in results] == ["forms", "kernels"]
    ran, dead = results
    assert [c.check for c in dead.checks] == ["kernels.crashed"]
    assert dead.checks[0].note == dead.checks[0].evidence["error"] == "worker exited with status 3"
    assert [c.check for c in ran.checks] == ["forms.ran"] and ran.passed
    assert list(timings) == ["forms"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
def test_a_dead_worker_loses_the_octonion_chunks_it_claimed(monkeypatch, tmp_path):
    # this process claims the first of two one-block chunks and waits in it until the worker,
    # after its forms, has claimed the second and exited
    parent, exited = os.getpid(), tmp_path / "exited"
    real = suites._octonion_residuals

    def residuals(*args):
        if os.getpid() != parent:
            exited.touch()
            os._exit(3)
        deadline = time.monotonic() + 60
        while not exited.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real(*args)

    def forms_ran(cfg):
        result = SuiteResult("forms")
        result.add("forms.ran", 1.0, {"ran": True}, claim=True)
        return result

    monkeypatch.setattr(suites, "_octonion_residuals", residuals)
    monkeypatch.setattr(suites, "OCTONION_CHUNK_BLOCKS", 1)
    monkeypatch.setitem(SUITES, "forms", forms_ran)
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results, timings = run_suites(["octonion", "forms"], RunConfig(**FAST))
    no_child_left()
    assert exited.exists()
    assert [[c.check for c in r.checks] for r in results] == [["octonion.crashed"], ["forms.crashed"]]
    assert {r.checks[0].note for r in results} == {"worker exited with status 3"}
    assert timings == {}


@pytest.mark.parametrize("cpus", [{0, 1}, {0}])
def test_a_raising_octonion_chunk_fails_the_suite(monkeypatch, cpus):
    def residuals(*args):
        raise FloatingPointError("block diverged")

    monkeypatch.setattr(suites, "_octonion_residuals", residuals)
    monkeypatch.setattr(suites, "OCTONION_CHUNK_BLOCKS", 1)
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    (octonion_result, kernels_result), timings = run_suites(["octonion", "kernels"], RunConfig(**FAST))
    no_child_left()
    assert [c.check for c in octonion_result.checks] == ["octonion.crashed"]
    assert octonion_result.checks[0].note == "FloatingPointError: block diverged"
    assert kernels_result.passed and set(timings) == {"octonion", "kernels"}


def test_a_single_suite_runs_in_this_process(monkeypatch):
    def fork():
        raise AssertionError("forked for a single suite")

    monkeypatch.setattr(suites.os, "fork", fork, raising=False)
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    (result,), _ = run_suites(["kernels"], RunConfig(**FAST))
    assert result.passed
    # one block is one octonion chunk, a single unit of work too
    (result,), _ = run_suites(["octonion"], RunConfig(**dict(FAST, trials=1000)))
    assert result.passed


def test_a_failed_fork_leaves_the_suites_to_this_process(monkeypatch):
    # and the octonion chunks still queued, here two of one block each
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(suites.os, "fork", fork, raising=False)
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(suites, "OCTONION_CHUNK_BLOCKS", 1)
    results, timings = run_suites(["octonion", "forms", "kernels"], RunConfig(**FAST))
    assert [r.suite for r in results] == ["octonion", "forms", "kernels"] and all(r.passed for r in results)
    assert results[0].as_dict() == SUITES["octonion"](RunConfig(**FAST)).as_dict()
    assert set(timings) == {"octonion", "forms", "kernels"}


def test_geodesy_results_ignore_wall_clock(monkeypatch):
    # timings belong in the report's timing block only; checks must not see the clock
    runs = []
    for step in (0.0, 1000.0):
        monkeypatch.setattr(suites.time, "monotonic", partial(next, itertools.count(0.0, step)))
        runs.append(SUITES["geodesy"](RunConfig(**FAST)).as_dict())
    assert runs[0] == runs[1]


def test_unconverged_spectrum_fails(monkeypatch):
    # 8 and 16 Chebyshev intervals are far apart at every radius: no spectrum check may pass
    monkeypatch.setattr(suites.geodesy, "COLLOCATION_NODES", (8, 16))
    result = SUITES["geodesy"](RunConfig(**FAST))
    failed = [c for c in result.checks if not c.passed]
    assert [c.check for c in failed] == ["geodesy.spectrum-bottom", "geodesy.spectrum-domain-monotone",
                                         "geodesy.sturm-crosscheck"]
    assert all(c.residual == 1.0 and c.evidence["converged"] is False for c in failed)
    assert failed[0].evidence["R"] == 10.0 and failed[0].evidence["nodes"] == 16
    assert failed[0].evidence["N/2N gap"] > suites.geodesy.TOL_DIRICHLET * failed[0].routes["collocation"]
    assert failed[1].evidence["nodes"] == failed[2].evidence["nodes"] == [16] * len(suites.geodesy.RADII)


def test_model_faults_fail_named_checks(monkeypatch):
    # each model fault is one patched constant or function and must fail exactly these checks
    real_matrices, real_quadratic = octonion.product_matrices, suites.curvature.SectionalCurvature.quadratic
    twisted = suites.curvature.assemble_operator().matrix.copy()
    twisted[0, 1] += 1e-6
    twisted[1, 0] -= 1e-6
    real_potential, real_log_gamma = suites.geodesy.liouville_potential, suites.geodesy.log_gamma
    (phi_masks,), (phi_coeffs,) = forms.spin9_form()
    without_v_top = phi_masks != forms.V_TOP

    real_kahler_forms, real_to_text = forms.quaternionic_kahler_forms, exterior.to_text
    real_standard, real_min_ratio = forms.standard_constraints, suites.kernels.min_bochner_ratio
    real_so_action = forms.so_action
    # Phi with a (7,1) term 0.5 theta^{0..6,8}, in ascending mask order as Phi's terms are
    leaky_masks, leaky_coeffs = np.append(phi_masks, 0x17F), np.append(phi_coeffs, 0.5)
    leaky = np.argsort(leaky_masks)

    def j_row_first_term_flipped(n):
        masks, coeffs = real_kahler_forms(n)
        coeffs = coeffs.copy()
        coeffs[1, 0] *= -1.0
        return masks, coeffs

    def to_text_to_six_digits(masks, coeffs):
        (masks,), (coeffs,) = exterior.collect(masks, coeffs)
        return "".join(",".join(map(str, exterior.indices_of(m))) + f":{c:.6g}\n"
                       for m, c in zip(masks.tolist(), coeffs.tolist()))

    def nan_in_full_sweep_blocks(self, u, v):
        # the formula's NaN at the first plane of each full block of the sweep, planes the
        # Gram mask keeps; the mirrored reading and the smaller batches stay as they are
        q = real_quadratic(self, u, v)
        if len(q) == octonion.MUL_BLOCK_ROWS and not self.swap_products:
            q[0] = np.nan
        return q

    def kato_halved(ratio, ricci_norm):
        k = (3 - ratio) / 2
        return k, k * Fraction(ricci_norm)

    def index_form_without_potential(c, L, nodes):
        # int_0^L f'^2 dt alone: the c^2 f^2 term of the index form dropped
        x, w = suites.geodesy._gauss_legendre(nodes)
        slope = c * np.cosh(c * 0.5 * L * (x + 1.0)) / np.sinh(c * L)
        return 0.5 * L * float(w @ slope**2)

    def gauss_legendre_without_newton(nodes):
        # the cosine guesses taken as the points, with the recurrence's weights at them
        x = -np.cos(np.pi * (np.arange(nodes) + 0.75) / (nodes + 0.5))
        return x, 2.0 / ((1.0 - x * x) * suites.geodesy._legendre(nodes, x)[1] ** 2)

    faults = (
        # rho^2 = 100: both spectrum routes follow the classes, so the claim 121 and the
        # vanishing thresholds built on rho^2 catch it; |Ric| = 32 moves every nonzero drift
        (suites.geodesy, "CLASSES", ((2.0, 6), (1.0, 8)), ("geodesy", "kernels"),
         ("geodesy.distance-laplacian-value", "geodesy.distance-laplacian-limits",
          "geodesy.area-volume", "geodesy.volume-growth-rate", "geodesy.spectrum-bottom",
          "geodesy.warped-constants", "kernels.ratio-quaternionic", "kernels.kato-transform",
          "kernels.vanishing-thresholds")),
        # route C on a potential 1 too low: below McKean's bound and off route J
        (suites.geodesy, "liouville_potential", lambda r: real_potential(r) - 1.0, ("geodesy",),
         ("geodesy.spectrum-bottom", "geodesy.spectrum-domain-monotone", "geodesy.sturm-crosscheck")),
        # route J with the phase of c(s) reversed
        (suites.geodesy, "log_gamma", lambda z: real_log_gamma(z).conjugate(), ("geodesy",),
         ("geodesy.spectrum-bottom", "geodesy.sturm-crosscheck")),
        # the quadrature is the second route of the consistency triangle as well
        (suites.geodesy, "index_form", index_form_without_potential, ("geodesy",),
         ("geodesy.consistency-triangle", "geodesy.jacobi-index-form")),
        # points off the zeros of P_n, so the rule is not exact to degree 2n - 1: the 12 and 24
        # point sums differ by far more than the tolerance, and the 24 point one is off the
        # closed form
        (suites.geodesy, "_gauss_legendre", gauss_legendre_without_newton, ("geodesy",),
         ("geodesy.consistency-triangle", "geodesy.jacobi-index-form")),
        # Phi without its v-top term: the w-top block sum and the trace still force the
        # v-top one, so the kernels keep 8/7
        (forms, "spin9_form",
         lambda table: (phi_masks[without_v_top][None], phi_coeffs[without_v_top][None]),
         ("forms", "kernels"), ("forms.spin9-base-form", "forms.spin9-top-functional")),
        # the so(16) action alone of Phi without its last term: the stabilizer reads 28, not 36
        (forms, "so_action", lambda n, masks, coeffs: real_so_action(n, masks[..., :-1], coeffs[..., :-1]),
         ("forms",), ("forms.spin9-base-form",)),
        (suites.curvature, "ALPHA", -3.0, ("curvature",),
         tuple(f"curvature.{c}" for c in ("adapted-sectional", "pinch-range", "product-order-reading",
                                          "einstein-constant", "radial-spectrum", "pinch-search"))),
        # the trace row dropped: every standard set holds the trace already, so only the
        # trace-only set moves, from 16/15 to 1
        (forms.ConstraintSet, "trace_free_rows", lambda self: self.rows, ("kernels",),
         ("kernels.constraint-monotonicity",)),
        # the mirrored product reading is pinched too; only the spin(9) closed form tells it
        # apart, in the roundtrip and at the witness planes of its Jacobi eigenvalues
        (octonion, "product_matrices",
         lambda x, table=DEFAULT_TABLE, left=False: real_matrices(x, table, not left),
         ("curvature",), ("curvature.operator-roundtrip", "curvature.pinch-search")),
        # right matrices where left ones are asked for: the octonion suite's L(a) pass turns
        # a(ab) and a(bb) into (ab)a and (bb)a, and the curvature formula reads the mirror
        (octonion, "product_matrices",
         lambda x, table=DEFAULT_TABLE, left=False: real_matrices(x, table), ("octonion", "curvature"),
         ("octonion.alternative-laws", "curvature.operator-roundtrip", "curvature.pinch-search")),
        # an antisymmetric part, which no quadratic form sees: the roundtrip passes, and what
        # reads the matrix itself fails
        (suites.curvature, "assemble_operator", lambda table: suites.curvature.CurvatureOperator(twisted),
         ("curvature",), tuple(f"curvature.{c}" for c in ("operator-pair-symmetry", "first-bianchi",
                                                         "einstein-constant", "radial-spectrum",
                                                         "pinch-search"))),
        # only the Gram mask marks a plane degenerate, so a NaN on a plane it keeps fails
        (suites.curvature.SectionalCurvature, "quadratic", nan_in_full_sweep_blocks, ("curvature",),
         ("curvature.pinch-range", "curvature.operator-roundtrip")),
        # a second difference at h = 0.1 is off by its truncation term, 4.4e-6
        (suites.geodesy, "WARP_STEP", 0.1, ("geodesy",), ("geodesy.warped-curvature-fd",)),
        # theta^i ^ theta^{n+i+1}: another form with another set of n pair functionals
        (forms, "kahler_targets",
         lambda n: tuple(1 << i | 1 << (n + i + 1) % (2 * n) for i in range(n)),
         ("forms",), ("forms.kahler-constraints",)),
        (forms, "quaternionic_kahler_forms", j_row_first_term_flipped, ("forms",),
         ("forms.quaternionic-volume",)),
        # raw rows are no canonical form, so equal constraint spaces no longer compare equal
        (forms.ConstraintSet, "from_functionals",
         classmethod(lambda cls, n, rows: cls(n, rows[np.abs(rows).max(axis=1) > forms.ROUND_TOL])),
         ("forms",), ("forms.kahler-constraints", "forms.quaternionic-constraints",
                      "forms.extraction-invariance")),
        (forms, "spin9_form", lambda table: (leaky_masks[leaky][None], leaky_coeffs[leaky][None]),
         ("forms",), ("forms.spin9-base-form", "forms.spin9-top-functional", "forms.spin9-no-leak")),
        (suites.kernels, "kato_transform", kato_halved, ("kernels",),
         ("kernels.ratio-kahler", "kernels.ratio-quaternionic", "kernels.kato-transform")),
        # the minimizer's sign, which only its shape against diag(-7, 1 x 7, 0 x 8) sees
        (suites.kernels, "min_bochner_ratio",
         lambda cs: dataclasses.replace(r := real_min_ratio(cs), minimizer=-np.abs(r.minimizer)),
         ("kernels",), ("kernels.spin9-minimizer",)),
        # the eigen route alone off the certified ratio: every ratio record keeps that route
        (suites.kernels, "min_bochner_ratio",
         lambda cs: dataclasses.replace(r := real_min_ratio(cs), eigen_ratio=r.eigen_ratio + 1e-6),
         ("kernels",), ("kernels.ratio-spin9", "kernels.ratio-kahler", "kernels.ratio-quaternionic")),
        (exterior, "to_text", to_text_to_six_digits, ("exterior",), ("exterior.serialization-roundtrip",)),
        # last, as its results are read below: the trace alone is left, with ratio 16/15
        (forms, "standard_constraints",
         lambda kind, n=None, **table: (forms.ConstraintSet(16, real_standard(kind, **table).rows[:0])
                                        if kind == "spin9" else real_standard(kind, n)),
         ("kernels",), ("kernels.ratio-spin9", "kernels.spin9-minimizer", "kernels.sharpness",
                        "kernels.kato-transform")),
    )
    for owner, name, value, names, expected in faults:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, value)
            results, _ = run_suites(names, RunConfig(**FAST))
        failed = [c.check for r in results for c in r.checks if not c.passed]
        assert failed == list(expected), name
    (ratio, *_), = (r.checks for r in results)
    assert ratio.check == "kernels.ratio-spin9" and ratio.routes["certified"] == Fraction(16, 15)


def test_failing_notes_give_what_was_measured(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(suites.geodesy, "CLASSES", ((2.0, 6), (1.0, 8)))
        failed = {c.check: c for c in SUITES["geodesy"](RunConfig(**FAST)).checks if not c.passed}
    growth = failed["geodesy.volume-growth-rate"]
    assert (growth.claim, growth.relative) == (22.0, True)
    assert growth.residual == abs(growth.routes["log A(50) / 50"] - 22.0) / 22.0
    assert growth.residual == pytest.approx(0.0997, abs=5e-5)
    # both routes agree on the faulted model; only the claim 121 sets them apart
    bottom = failed["geodesy.spectrum-bottom"]
    assert bottom.routes["collocation"] == pytest.approx(100.1670804873, abs=1e-10)
    assert bottom.claim["collocation"] == pytest.approx(bottom.routes["collocation"], rel=1e-14)
    assert (bottom.routes["rho^2"], bottom.claim["rho^2"], bottom.residual) == (100.0, 121.0, 21.0 / 121.0)
    assert bottom.evidence == {"R": 10.0, "nodes": 64, "N/2N gap": bottom.evidence["N/2N gap"],
                               "converged": True}
    assert "rho^2: 121}; collocation 100.167080487, rho^2 100; R 10, nodes 64" in bottom.note
    with monkeypatch.context() as patch:
        patch.setattr(suites.geodesy, "dirichlet_value",
                      lambda r: suites.geodesy.DirichletValue(r, 64, 125.0 + r, 125.0 + r))
        (check,) = [c for c in SUITES["geodesy"](RunConfig(**FAST)).checks
                    if c.check == "geodesy.spectrum-domain-monotone"]
    assert suites.geodesy.RADII == (4.0, 6.0, 8.0, 10.0)
    assert check.routes == {"decreases with R": False, "above rho^2": True, "McKean": True}
    assert check.evidence == {"lowest": 129.0, "rho^2": 121.0, "inf q - rho^2": 0.0, "nodes": [64] * 4,
                              "N/2N gaps": [0.0] * 4, "converged": True}
    assert check.note == ("claim True; decreases with R False, above rho^2 True, McKean True; lowest 129, "
                          "rho^2 121, inf q - rho^2 0, nodes [64, 64, 64, 64], N/2N gaps [0, 0, 0, 0], "
                          "converged True")
    real_certify = suites.kernels.certify_ratio
    claims = []

    def counted(problem, r):
        claims.append(r)
        return real_certify(problem, r)

    def sharpness():
        (check,) = [c for c in SUITES["kernels"](RunConfig(**FAST)).checks if c.check == "kernels.sharpness"]
        return check

    # min_bochner_ratio certifies its candidate 8/7, and kernels.sharpness reads that proof
    with monkeypatch.context() as patch:
        patch.setattr(suites.kernels, "certify_ratio", counted)
        check = sharpness()
    assert (check.passed, check.residual, check.evidence) == (True, 0.0, {"refused": None})
    assert claims.count(Fraction(8, 7)) == 1
    # the trace alone in place of Spin(9)'s rows: the eigen route's candidate is 16/15, so
    # the claim 8/7 is put to the certificate on its own, which refuses it
    real_standard = forms.standard_constraints
    monkeypatch.setattr(forms, "standard_constraints",
                        lambda kind, n=None, **table: (forms.ConstraintSet(16, real_standard(kind).rows[:0])
                                                       if kind == "spin9" else real_standard(kind, n)))
    check = sharpness()
    refused = "8/7 is above the minimum: pivot 21 of B^T (P - r Q) B is zero, its row not"
    assert (check.passed, check.residual, check.evidence) == (False, 1.0, {"refused": refused})
    assert check.note.endswith(f" singular False; {refused}")


def test_roundtrip_covers_the_curvature_tensors_at_any_trials(monkeypatch):
    # a curvature-type tensor on R^16 is fixed by its values on 5,440 generic planes
    planes = []
    real_sweep = suites.curvature.sweep_planes
    real_value = suites.curvature.SectionalCurvature.quadratic

    def counted(self, u, v):
        if not self.swap_products:
            planes.append(len(u))
        return real_value(self, u, v)

    def sweep(*args):
        with monkeypatch.context() as patch:
            patch.setattr(suites.curvature.SectionalCurvature, "quadratic", counted)
            return real_sweep(*args)

    monkeypatch.setattr(suites.curvature, "sweep_planes", sweep)
    assert SUITES["curvature"](RunConfig(**dict(FAST, trials=10))).passed
    # the pinch range and the roundtrip share one pass: the formula sees each plane once
    assert sum(planes) == suites.curvature.CURVATURE_TENSOR_DIM == 5440


def test_curvature_ranges_of_no_planes_fail(monkeypatch):
    # no Gram determinant exceeds |x|^2 |y|^2: every plane is degenerate, so the formula
    # gives NaN everywhere and no check that reads it may pass on what is left
    monkeypatch.setattr(suites.curvature, "DEGENERATE_GRAM", 2.0)
    result = SUITES["curvature"](RunConfig(**FAST))
    failed = [c.check for c in result.checks if not c.passed]
    assert failed == [f"curvature.{check}" for check in
                      ("adapted-sectional", "pinch-range", "product-order-reading", "pinch-search")]


def test_cayley_sign_fault_fails_named_checks(monkeypatch):
    # psi_ijkl with +om_ik ^ om_jl: 822 terms, tops +-560 / 5040, and no Spin(9) invariance
    with monkeypatch.context() as patch:
        patch.setattr(forms, "PSI_SIGNS", (1.0, 1.0, 1.0))
        forms._cayley_terms.cache_clear()
        try:
            assert forms.spin9_form()[0].size == 822
            result = SUITES["forms"](RunConfig(**FAST))
        finally:
            forms._cayley_terms.cache_clear()
    failed = [c.check for c in result.checks if not c.passed]
    assert failed == ["forms.spin9-base-form", "forms.spin9-top-functional"]


def test_forms_suite_ignores_seed_and_trials():
    # the forms and kernels suites draw nothing: Phi, the ratios and their proofs are exact
    for name in ("forms", "kernels"):
        default = SUITES[name](RunConfig(seed=0)).as_dict()
        assert SUITES[name](RunConfig(seed=7, trials=1000)).as_dict() == default, name


def test_exterior_faults_fail_named_checks(monkeypatch):
    real_hodge, real_epsilon, real_sign = exterior.hodge, exterior.epsilon, exterior.wedge_sign

    def hodge_off_by_one_grade(n, masks, coeffs):
        # the Hodge sign of grade p taken as that of grade p + 1: an extra (-1)^p
        out_masks, out_coeffs = real_hodge(n, masks, coeffs)
        return out_masks, np.where(np.bitwise_count(masks) & 1, -out_coeffs, out_coeffs)

    def epsilon_parity_flipped(k, masks, coeffs):
        out_masks, out_coeffs = real_epsilon(k, masks, coeffs)
        return out_masks, -out_coeffs

    def sign_of_reversed_order(a, b):
        # theta^b ^ theta^a in place of theta^a ^ theta^b
        return real_sign(b, a)

    faults = (
        ("hodge", hodge_off_by_one_grade,
         ("star-involution", "star-after-epsilon", "epsilon-after-star", "star-epsilon-star",
          "duality-chain")),
        ("epsilon", epsilon_parity_flipped,
         ("star-after-epsilon", "epsilon-after-star", "star-epsilon-star",
          "contraction-anticommutator", "epsilon-interior-adjoint", "duality-chain")),
        # epsilon and interior stay adjoint under the mirrored rule; the star does not
        ("wedge_sign", sign_of_reversed_order,
         ("star-involution", "star-after-epsilon", "epsilon-after-star", "star-epsilon-star",
          "duality-chain")),
    )
    for name, fault, expected in faults:
        with monkeypatch.context() as patch:
            patch.setattr(exterior, name, fault)
            result = SUITES["exterior"](RunConfig(**FAST))
        failed = [c.check for c in result.checks if not c.passed]
        assert failed == [f"exterior.{check}" for check in expected], name


def test_every_adjoint_row_tests_something():
    # <eps_j xi, eta> is 0 unless a term of xi plus bit j is a term of eta; drawn at random,
    # about one row in ten made one, so the check passed faults on rows that tested nothing
    for seed, trials in ((0, 2000), (1, 2000), (7, 100), (0, 30_000)):
        result = SUITES["exterior"](RunConfig(seed=seed, trials=trials))
        (adjoint,) = [c for c in result.checks if c.check == "exterior.epsilon-interior-adjoint"]
        assert adjoint.passed
        assert adjoint.evidence["nonzero rows"] == adjoint.evidence["random forms"] == trials // 100


def test_exterior_suite_call_count_and_peak_do_not_grow_with_trials(monkeypatch):
    names = ("epsilon", "interior", "hodge", "inner", "residual", "sum_terms",
             "hessian_action", "random_forms")
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(exterior, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(exterior, name, counted)

    def calls(cfg):
        counts.update(dict.fromkeys(names, 0))
        assert SUITES["exterior"](cfg).passed
        return dict(counts)

    small = calls(RunConfig(trials=1_000))
    tracemalloc.start()
    try:
        default = calls(RunConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert RunConfig().trials == 100_000
    assert small == default
    # live terms of 8 duality rows at a time: about 2.6 MiB at 100,000 trials; 10 MiB with
    # all 100 rows of a grade at once, 20 MiB with the full n x n pair grid as well
    assert peak < 4 * 2**20


def test_quadrature_depth_cap_fails_the_index_form(monkeypatch):
    # the quadrature's only depth is its node count: 2 nodes are far off 4, and the
    # consistency triangle's index-form route runs at 4
    monkeypatch.setattr(suites.geodesy, "QUAD_NODES", 2)
    result = SUITES["geodesy"](RunConfig(**FAST))
    failed = [c for c in result.checks if not c.passed]
    assert [c.check for c in failed] == ["geodesy.consistency-triangle", "geodesy.jacobi-index-form"]
    assert failed[1].residual == 1.0
    assert failed[1].evidence["nodes"] == 2 and failed[1].evidence["converged"] is False
    assert failed[1].evidence["N/2N gap"] > 1e-3


def test_check_bookkeeping():
    suite = SuiteResult("demo")
    at_tolerance = suite.add("demo.on-the-line", 1e-10, {"gap": 1e-10}, claim=0.0)
    failing = suite.add("demo.too-big", 1e-10, {"gap": 2e-10}, claim=0.0, evidence={"samples": 3})
    assert at_tolerance.passed and not failing.passed
    assert not suite.passed
    assert suite.max_residual == 2e-10
    d = suite.as_dict()
    assert [c["check"] for c in d["checks"]] == ["demo.on-the-line", "demo.too-big"]
    assert d["checks"][1] == {"check": "demo.too-big", "residual": 2e-10, "tolerance": 1e-10,
                              "passed": False, "claim": 0.0, "routes": {"gap": 2e-10}, "relative": False,
                              "evidence": {"samples": 3}, "note": "claim 0; gap 2e-10; samples 3"}


def test_a_check_scores_its_worst_route():
    s = SuiteResult("demo")
    assert s.add("demo.relative", 1.0, {"x": 11.0, "y": 8.0}, claim=10.0, relative=True).residual == 0.2
    # a Fraction is exact, and the report writes it as such
    ratio = s.add("demo.fraction", 1e-9, {"certified": Fraction(16, 15), "eigen": 8 / 7}, claim=Fraction(8, 7))
    assert ratio.residual == float(Fraction(8, 105)) and not ratio.passed
    assert (ratio.as_dict()["claim"], ratio.as_dict()["routes"]["certified"]) == ("8/7", "16/15")
    # bools and other non-numbers score 0 when they equal their claim, else 1
    exact = {"holds": True, "rows": [1, 2]}
    assert s.add("demo.exact", 0.5, exact, claim=dict(exact)).residual == 0.0
    assert s.add("demo.inexact", 0.5, dict(exact, rows=[1, 3]), claim=exact).residual == 1.0
    assert s.add("demo.false", 0.5, {"holds": np.False_}, claim=True).residual == 1.0
    # an interval claim scores the distance outside it
    assert s.add("demo.interval", 1e-9, {"lowest": -4.5, "highest": -1.0}, claim=(-4.0, -1.0)).residual == 0.5
    # an array is kept at its worst entry, with the claim there; where all agree, the largest claim
    worst = s.add("demo.array", 1e-9, {"m": np.array([[1.0, 2.0], [3.0, 4.5]])}, claim=np.array([1.0, 2.0]))
    assert (worst.residual, worst.routes, worst.claim) == (2.5, {"m": 4.5}, {"m": 2.0})
    agree = s.add("demo.agree", 1e-9, {"v": np.array([0.0, -1.0, 0.5])}, claim=np.array([0.0, -1.0, 0.5]))
    assert (agree.residual, agree.routes, agree.claim) == (0.0, {"v": -1.0}, {"v": -1.0})
    # a NaN fails, and so do an unconverged route and a check with no routes
    for nan in ({"v": np.array([1.0, np.nan])}, {"v": np.nan}):
        assert not s.add("demo.nan", 1.0, nan, claim=0.0).passed
    assert not s.add("demo.nan-interval", 1.0, {"v": np.nan}, claim=(-4.0, -1.0)).passed
    assert s.add("demo.unconverged", 1.0, {"v": 0.0}, claim=0.0, evidence={"converged": False}).residual == 1.0
    crashed = s.add("demo.crashed", 0.5, {}, claim=None, evidence={"error": "ValueError: no"})
    assert (crashed.residual, crashed.passed, crashed.note) == (1.0, False, "ValueError: no")


def test_table_path_failure_is_localized(tmp_path):
    # the closure note names the first entry (i, j) in row-major order where the table differs
    # from the one closed from the seven triples, with both signed products
    sampled = ("alternative-laws", "conjugation-reversal", "norm-multiplicativity",
               "conjugate-square-norm")
    for (i, j), first, witness in (((4, 1), "at (4, 1): -e1 against +e1 from the seven triples", ()),
                                   ((1, 2), "at (1, 2): -e3 against +e3 from the seven triples",
                                    ("association-witness",))):
        path = tmp_path / f"table-{i}{j}.csv"
        DEFAULT_TABLE.save(path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[i][j] = str(-int(rows[i][j]))
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
        # three full row blocks and a partial one, so the faulty table goes through the blocked loop
        trials = 3 * octonion.MUL_BLOCK_ROWS + 7
        result = SUITES["octonion"](RunConfig(table_path=str(path), **dict(FAST, trials=trials)))
        failed = [c for c in result.checks if not c.passed]
        assert [c.check for c in failed] == [f"octonion.{check}" for check in
                                             ("table-closure", *sampled, *witness)]
        assert failed[0].evidence["first break"] == first and failed[0].note.endswith(first)


def test_octonion_blocks_do_not_change_the_residuals(monkeypatch):
    trials = 3 * 16384 + 7
    runs = []
    for rows in (1000, trials + 1):
        monkeypatch.setattr(octonion, "MUL_BLOCK_ROWS", rows)
        runs.append(SUITES["octonion"](RunConfig(trials=trials)).as_dict())
    assert runs[0] == runs[1]


def count_products(monkeypatch) -> dict:
    """Wrap ``mul_arrays`` and ``product_matrices``; the dict returned counts their products
    and matrix builds."""
    counts = dict.fromkeys(("builds", "products"), 0)
    real_mul, real_matrices = octonion.mul_arrays, octonion.product_matrices

    def mul(*args, **kwargs):
        out = real_mul(*args, **kwargs)
        counts["products"] += out.size // 8
        return out

    def matrices(*args, **kwargs):
        counts["builds"] += 1
        return real_matrices(*args, **kwargs)

    monkeypatch.setattr(octonion, "mul_arrays", mul)
    monkeypatch.setattr(octonion, "product_matrices", matrices)
    return counts


def test_octonion_suite_takes_four_passes_per_block(monkeypatch):
    # per block, one build of product matrices for each of the four shared operands, and nine
    # products per pair; the association witness adds four builds and four products
    trials = 3 * octonion.MUL_BLOCK_ROWS + 7
    counts = count_products(monkeypatch)
    assert SUITES["octonion"](RunConfig(**dict(FAST, trials=trials))).passed
    blocks = 4
    assert counts == {"builds": 4 * blocks + 4, "products": 9 * trials + 4}


def test_sweep_takes_every_product_through_mul_arrays(monkeypatch):
    # per block, each reading builds the matrices of a, then of c, and multiplies the stack
    # [b, d] by them: four builds, and eight products per plane
    planes = 3 * octonion.MUL_BLOCK_ROWS + 7
    counts = count_products(monkeypatch)
    op = suites.curvature.assemble_operator()
    assert suites.curvature.sweep_planes(op, octonion.Stream(3), planes).roundtrip <= 1e-9
    blocks = 4
    assert counts == {"builds": 4 * blocks, "products": 8 * planes}


def test_octonion_chunks_do_not_change_the_residuals(monkeypatch):
    # 50 blocks of 1000 rows, in chunks of 1 block, of 16 and of all 50, claimed by one worker
    # or two, against the suite run here in one piece
    monkeypatch.setattr(octonion, "MUL_BLOCK_ROWS", 1000)
    cfg = RunConfig(**dict(FAST, trials=3 * 16384 + 7))
    expected = SUITES["octonion"](cfg).as_dict()
    for blocks, cpus in itertools.product((1, 16, 50), ({0, 1}, {0})):
        monkeypatch.setattr(suites, "OCTONION_CHUNK_BLOCKS", blocks)
        monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        (result,), timings = run_suites(["octonion"], cfg)
        no_child_left()
        assert result.as_dict() == expected and list(timings) == ["octonion"], (blocks, cpus)


def test_octonion_chunks_fit_one_pipe():
    # a one-byte index per chunk, all written before the fork: a large budget widens the chunks
    for trials in (1, 16 * octonion.MUL_BLOCK_ROWS + 1, 300 * 16 * octonion.MUL_BLOCK_ROWS + 1):
        chunks = suites._octonion_chunks(trials)
        assert len(chunks) <= 255
        assert [start for chunk in chunks for start in chunk] == list(range(0, trials, octonion.MUL_BLOCK_ROWS))
    assert len(suites._octonion_chunks(16 * octonion.MUL_BLOCK_ROWS + 1)) == 2


def test_curvature_blocks_do_not_change_the_residuals(monkeypatch):
    trials = 10 * (3 * 16384 + 7)  # planes = trials / 10
    runs = []
    for rows in (1000, trials // 10 + 1):
        monkeypatch.setattr(octonion, "MUL_BLOCK_ROWS", rows)
        runs.append(SUITES["curvature"](RunConfig(**dict(FAST, trials=trials))).as_dict())
    assert runs[0] == runs[1]


def _traced_peak(suite, trials):
    tracemalloc.start()
    try:
        assert SUITES[suite](RunConfig(**dict(FAST, trials=trials))).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("trials", [20_000, 200_000])
def test_octonion_suite_peak_does_not_grow_with_trials(trials):
    # one block workspace of 1024 rows; a (trials, 8) draw alone would be 12.8 MB at 200,000
    assert _traced_peak("octonion", trials) < 6 * 2**20


@pytest.mark.parametrize("trials", [20_000, 200_000])
def test_curvature_suite_peak_does_not_grow_with_trials(trials):
    assert _traced_peak("curvature", trials) < 6 * 2**20


def test_forms_suite_peak():
    # Phi's so(16) action expanded at its live pairs, 64 terms at a time, and its Gram matrix
    # filled into two buffers of 256 columns: about 1.8 MiB, Phi's build included. One expansion
    # of all 702 terms, and a new 120 x 1024 block per step, took 3.5 MiB
    assert _traced_peak("forms", 2000) < 2.5 * 2**20


def test_so_action_peak():
    # int32 rows and columns and a presence table over the 2^16 masks: about 1.5 MiB, against
    # 3.5 MiB for one expansion of all 702 terms and np.unique
    phi = forms.spin9_form()
    tracemalloc.start()
    try:
        forms.so_action(forms.SPIN9_DIM, *phi)
        assert tracemalloc.get_traced_memory()[1] < 2 * 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("trials", [20_000, 200_000])
def test_kernels_suite_peak_does_not_grow_with_trials(trials):
    assert _traced_peak("kernels", trials) < 6 * 2**20


def test_octonion_scores_take_the_absolute_deviation(monkeypatch):
    # a product off by a constant e: on zero rows conj(ab) - conj(b) conj(a) = conj(e) - e,
    # here (0, -0.5, 0, -0.25, 0, 0, 0, 0), nonpositive in every component
    offset = np.array([0.0, 0.25, 0.0, 0.125, 0.0, 0.0, 0.0, 0.0])
    real = octonion.mul_arrays
    monkeypatch.setattr(octonion, "mul_arrays", lambda a, b, table=DEFAULT_TABLE, out=None:
                        np.add(real(a, b, table), offset, out=out))
    zero = np.zeros((3, 8))
    scores = suites._octonion_residuals(zero, zero, DEFAULT_TABLE, np.empty((11, 3, 8)))
    assert scores["conjugation-reversal"] == 0.5 / (1.0 + 0.25)

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import oracles
from cayleykit.forms import ConstraintSet, standard_constraints
from cayleykit.kernels import (
    MODEL_LAMBDA1,
    RatioProblem,
    canonical_minimizer,
    kato_transform,
    min_bochner_ratio,
    rayleigh_ratio,
    sharpness_sample,
    vanishing_threshold,
)

RNG = np.random.default_rng(57721566)

SPIN9 = RatioProblem(16, standard_constraints("spin9"))
SPIN9_RESULT = min_bochner_ratio(SPIN9)


def test_spin9_ratio_exact():
    r = SPIN9_RESULT
    assert r.rational == Fraction(8, 7)
    assert abs(r.eigen_ratio - 8.0 / 7.0) <= 1e-9
    assert abs(r.closed_ratio - 8.0 / 7.0) <= 1e-12
    assert abs(r.eigen_ratio - r.closed_ratio) <= 1e-9


def test_spin9_minimizer_canonical_form():
    canon = canonical_minimizer(SPIN9_RESULT.minimizer, SPIN9)
    want = np.diag([-7.0] + [1.0] * 7 + [0.0] * 8)
    assert np.abs(canon - want).max() <= 1e-9


def minimal_eigenspace_dim(problem):
    """Dimension of the minimizing eigenspace: how flat the equality case is."""
    basis = problem.nullspace()
    p, q = problem.quadratic_forms()
    mu = scipy.linalg.eigh(basis.T @ q @ basis, basis.T @ p @ basis, eigvals_only=True)
    return int(np.sum(mu > mu[-1] - 1e-9))


def test_spin9_equality_diagnostics():
    a = SPIN9_RESULT.minimizer
    assert abs(SPIN9.objective(a) - 8.0 / 7.0) <= 1e-12
    assert np.abs(a - np.diag(np.diag(a))).max() <= 1e-12
    assert minimal_eigenspace_dim(SPIN9) == 1


def test_kahler_ratio_and_flat_directions():
    for n in (2, 4):
        prob = RatioProblem(2 * n, standard_constraints("kahler", n))
        res = min_bochner_ratio(prob)
        assert res.rational == Fraction(2, 1)
        assert minimal_eigenspace_dim(prob) == 2 * n


def test_quaternionic_ratio():
    for n in (1, 2):
        prob = RatioProblem(4 * n, standard_constraints("quaternionic", n))
        res = min_bochner_ratio(prob)
        assert res.rational == Fraction(4, 3)
        assert res.drift == pytest.approx(24.0, abs=1e-12)
        assert res.exponent == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_objective_matches_definition():
    a = SPIN9_RESULT.minimizer
    num = float(np.sum(a * a))
    den = float(np.sum(a[0] * a[0]))
    assert SPIN9.objective(a) == pytest.approx(num / den, rel=1e-12)


def test_objective_rejects_vanishing_row():
    a = np.zeros((16, 16))
    a[1, 1], a[2, 2] = 1.0, -1.0
    with pytest.raises(ZeroDivisionError):
        SPIN9.objective(a)


def test_sharpness_sampling_never_beats_minimum():
    sample = sharpness_sample(SPIN9, SPIN9_RESULT, RNG, samples=100000)
    assert sample["samples"] == 100000
    assert sample["violations"] == 0
    assert sample["min_ratio_observed"] >= 8.0 / 7.0 - 1e-12


def test_ratio_monotone_under_extra_constraints():
    base, _ = rayleigh_ratio(SPIN9)
    extra = list(standard_constraints("spin9").rows) + [(((1, 1), 1.0), ((9, 9), 1.0))]
    tightened, _ = rayleigh_ratio(RatioProblem(16, extra))
    assert tightened >= base - 1e-12
    assert tightened > base + 1e-3  # this particular row genuinely bites


def test_trace_only_problem_hits_closed_form():
    # trace freeness alone is the k = n - 1 partner case: ratio 1 + 1/(n-1)
    prob = RatioProblem(4)
    res = min_bochner_ratio(prob)
    assert res.rational == Fraction(4, 3)
    canon = canonical_minimizer(res.minimizer, prob)
    assert np.abs(canon - np.diag([-3.0, 1.0, 1.0, 1.0])).max() <= 1e-9


def test_kato_transform_values():
    t = kato_transform(8.0 / 7.0)
    assert t.exponent == pytest.approx(6.0 / 7.0, abs=1e-15)
    assert float(t.drift) == pytest.approx(216.0 / 7.0, abs=1e-12)
    assert not t.degenerate

    q = kato_transform(4.0 / 3.0)
    assert q.exponent == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert float(q.drift) == pytest.approx(24.0, abs=1e-12)

    degen = kato_transform(2.0)
    assert degen.degenerate
    assert degen.exponent == 0
    assert float(degen.drift) == 0.0


def test_kato_transform_validation():
    with pytest.raises(ValueError):
        kato_transform(1.0)
    with pytest.raises(ValueError):
        kato_transform(2.5)
    with pytest.raises(ValueError):
        kato_transform(1.5, ricci=1.0)


def test_vanishing_thresholds():
    assert vanishing_threshold(1.0) == pytest.approx(-242.0)
    assert vanishing_threshold(1.0 / 7.0) == pytest.approx(-8.0 / 7.0 * MODEL_LAMBDA1)
    assert vanishing_threshold(1.0, lam1=100.0) == pytest.approx(-200.0)
    with pytest.raises(ValueError):
        vanishing_threshold(-1.0)
    with pytest.raises(ValueError):
        vanishing_threshold(1.0, lam1=0.0)


def test_degenerate_constraints_rejected():
    # forcing the whole distinguished row to zero kills the denominator
    rows = [tuple([((0, j), 1.0)]) for j in range(16)]
    with pytest.raises(ValueError):
        min_bochner_ratio(RatioProblem(16, rows))


def test_overconstrained_problem_rejected():
    full = [tuple([((i, j), 1.0)]) for i in range(4) for j in range(i, 4)]
    with pytest.raises(ValueError):
        rayleigh_ratio(RatioProblem(4, full))


def test_constraint_convention_matches_evaluate():
    # the nullspace honors the collected off-diagonal convention
    row = (((0, 1), 1.0),)
    prob = RatioProblem(3, [row])
    basis = prob.nullspace()
    cs = ConstraintSet(3, [row])
    for k in range(basis.shape[1]):
        mat = prob.matrix_from_coordinates(basis[:, k])
        assert np.abs(oracles.evaluate(cs, mat)).max() <= 1e-9
        assert abs(np.trace(mat)) <= 1e-9

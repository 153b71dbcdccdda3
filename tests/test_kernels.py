import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import oracles
from cayleykit.exterior import collect, hessian_action, mask_of
from cayleykit.forms import ConstraintSet, diagonal_rows, extract_constraints, standard_constraints
from cayleykit.geodesy import spectrum_bottom
from cayleykit.kernels import (
    RatioProblem,
    canonical_minimizer,
    certify_ratio,
    kato_transform,
    min_bochner_ratio,
    rayleigh_ratio,
    vanishing_threshold,
)
from cayleykit.octonion import mul_arrays

RNG = np.random.default_rng(57721566)

SPIN9 = RatioProblem(16, standard_constraints("spin9").rows)
SPIN9_RESULT = min_bochner_ratio(SPIN9)


def test_spin9_ratio_exact():
    r = SPIN9_RESULT
    assert r.rational == Fraction(8, 7) and r.ratio == 8.0 / 7.0
    assert abs(r.eigen_ratio - 8.0 / 7.0) <= 1e-9


def test_spin9_minimizer_canonical_form():
    canon = canonical_minimizer(SPIN9_RESULT.minimizer)
    want = np.diag([-7.0] + [1.0] * 7 + [0.0] * 8)
    assert np.abs(canon - want).max() <= 1e-9


def minimal_eigenspace_dim(problem):
    """Dimension of the minimizing eigenspace: how flat the equality case is."""
    basis = problem.nullspace()
    p, q = problem.quadratic_weights()
    mu = scipy.linalg.eigh((basis.T * q) @ basis, (basis.T * p) @ basis, eigvals_only=True)
    return int(np.sum(mu > mu[-1] - 1e-9))


def test_spin9_equality_diagnostics():
    a = SPIN9_RESULT.minimizer
    assert abs(SPIN9.objective(a) - 8.0 / 7.0) <= 1e-12
    assert np.abs(a - np.diag(np.diag(a))).max() <= 1e-12
    assert minimal_eigenspace_dim(SPIN9) == 1


def test_kahler_ratio_and_flat_directions():
    for n in (2, 4):
        prob = RatioProblem(2 * n, standard_constraints("kahler", n).rows)
        res = min_bochner_ratio(prob)
        assert res.rational == Fraction(2, 1)
        assert minimal_eigenspace_dim(prob) == 2 * n


def test_quaternionic_ratio():
    for n in (1, 2):
        prob = RatioProblem(4 * n, standard_constraints("quaternionic", n).rows)
        res = min_bochner_ratio(prob)
        assert res.rational == Fraction(4, 3)
        assert res.drift == pytest.approx(24.0, abs=1e-12)


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
    # a Monte Carlo cross-check of the certificate, on the whole feasible space
    sample = oracles.sharpness_full_draw(SPIN9, 8.0 / 7.0, RNG, samples=20_000)
    assert sample["samples"] == 20_000
    assert sample["violations"] == 0


CERTIFIED = (
    (SPIN9, Fraction(8, 7)),
    *((RatioProblem(2 * n, standard_constraints("kahler", n).rows), Fraction(2)) for n in (2, 4)),
    *((RatioProblem(4 * n, standard_constraints("quaternionic", n).rows), Fraction(4, 3))
      for n in (1, 2)),
    (RatioProblem(4, np.zeros((0, 10))), Fraction(4, 3)),
)


@pytest.mark.parametrize("problem, ratio", CERTIFIED)
def test_certificate_proves_the_sharp_ratio_and_nothing_near_it(problem, ratio):
    assert certify_ratio(problem, ratio) is None
    eps = Fraction(1, 10**9)
    above, below = certify_ratio(problem, ratio + eps), certify_ratio(problem, ratio - eps)
    assert above.startswith(f"{ratio + eps} is above the minimum: pivot ")
    assert below == f"{ratio - eps} is below the minimum: B^T (P - r Q) B is positive definite"


def test_certificate_sees_a_zero_pivot_with_a_live_row():
    # a_00 + a_01 = 0 on 3 x 3: the free a_02 alone gives ratio 2, the block of a_11 and
    # a_22 gives 7/4; at r = 2 the first pivot is zero and decoupled, the block's is zero
    # with a nonzero row, so 2 is not the minimum although M is singular there
    prob = RatioProblem(3, np.array([[1.0, 1.0, 0.0, 0.0, 0.0, 0.0]]))
    assert min_bochner_ratio(prob).rational == Fraction(7, 4)
    assert certify_ratio(prob, Fraction(2)) == (
        "2 is above the minimum: pivot 1 of B^T (P - r Q) B is zero, its row not")


def test_certificate_reads_rows_as_snapped_fractions():
    # a_00 + a_11 / 3 = 0: the float 1/3 reads back as the fraction; 0.1 + 1e-12 is none
    third = RatioProblem(3, np.array([[1.0, 0.0, 0.0, 1.0 / 3.0, 0.0, 0.0]]))
    assert min_bochner_ratio(third).rational == 2 and certify_ratio(third, Fraction(2)) is None
    off = RatioProblem(3, np.array([[1.0, 0.0, 0.0, 0.1 + 1e-12, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="not a fraction"):
        certify_ratio(off, Fraction(2))


def test_certificate_rejection_is_a_crash_of_min_bochner_ratio(monkeypatch):
    monkeypatch.setattr("cayleykit.kernels.certify_ratio", lambda problem, r: "refused")
    with pytest.raises(ArithmeticError, match="not certified: refused"):
        min_bochner_ratio(SPIN9)


def test_spin9_free_coordinates_are_the_off_diagonal_entries():
    # every constraint row, the trace among them, touches the diagonal alone; the free
    # entries fall into two weight classes: a_ij with 1 <= i < j, weighed (2, 0), and the
    # gradient row's a_0j, j >= 1, weighed (2, 1)
    upper = np.triu_indices(16)
    free = SPIN9.free_coordinates()
    assert np.array_equal(free, upper[0] < upper[1])
    weights = np.stack(SPIN9.quadratic_weights(), axis=1)
    classes, sizes = np.unique(weights[free], axis=0, return_counts=True)
    assert classes.tolist() == [[2.0, 0.0], [2.0, 1.0]] and sizes.tolist() == [105, 15]
    assert np.array_equal(weights[free, 1] == 1.0, upper[0][free] == 0)
    # the 16 diagonal entries under constraints of rank 2: 14 normals per sample
    assert np.linalg.matrix_rank(SPIN9.constraint_rows()[:, ~free]) == 2


def test_batched_kernels_peak_memory():
    """The traced peak of the octonion product follows its block size, not the number of rows."""
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1.0, 1.0, (2, 200_000, 8))
    tracemalloc.start()
    try:
        out = mul_arrays(a, b)
        mul_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mul_peak < 4 * out.nbytes


def test_ratio_monotone_under_extra_constraints():
    base, _ = rayleigh_ratio(SPIN9)
    extra = np.vstack([SPIN9.rows, diagonal_rows(16, [(1, 9)])])
    tightened, _ = rayleigh_ratio(RatioProblem(16, extra))
    assert tightened >= base - 1e-12
    assert tightened > base + 1e-3  # this particular row genuinely bites


def test_trace_only_problem_hits_closed_form():
    # trace freeness alone is the k = n - 1 partner case: ratio 1 + 1/(n-1)
    prob = RatioProblem(4, np.zeros((0, 10)))
    res = min_bochner_ratio(prob)
    assert res.rational == Fraction(4, 3)
    canon = canonical_minimizer(res.minimizer)
    assert np.abs(canon - np.diag([-3.0, 1.0, 1.0, 1.0])).max() <= 1e-9


def test_kato_transform_values():
    # exact ratios give the exact fractions rounded once
    t = kato_transform(Fraction(8, 7))
    assert t.exponent == 6.0 / 7.0 and t.drift == 216.0 / 7.0
    assert not t.degenerate

    q = kato_transform(Fraction(4, 3))
    assert q.exponent == 2.0 / 3.0 and q.drift == 24.0

    degen = kato_transform(Fraction(2))
    assert degen.degenerate
    assert degen.exponent == 0
    assert float(degen.drift) == 0.0


def test_kato_transform_validation():
    with pytest.raises(ValueError):
        kato_transform(Fraction(1))
    with pytest.raises(ValueError):
        kato_transform(Fraction(5, 2))


def test_vanishing_thresholds():
    assert vanishing_threshold(1.0, spectrum_bottom()) == pytest.approx(-242.0)
    assert vanishing_threshold(1.0 / 7.0, spectrum_bottom()) == pytest.approx(-8.0 / 7.0 * 121.0)
    assert vanishing_threshold(1.0, lam1=100.0) == pytest.approx(-200.0)
    with pytest.raises(ValueError):
        vanishing_threshold(-1.0, spectrum_bottom())
    with pytest.raises(ValueError):
        vanishing_threshold(1.0, lam1=0.0)


def test_degenerate_constraints_rejected():
    # forcing the whole gradient row to zero kills the denominator
    # the coordinates (0, j) of the gradient row are the first 16 of the 136
    rows = np.eye(136)[:16]
    with pytest.raises(ValueError):
        min_bochner_ratio(RatioProblem(16, rows))


def test_overconstrained_problem_rejected():
    full = np.eye(10)
    with pytest.raises(ValueError):
        rayleigh_ratio(RatioProblem(4, full))


def test_constraint_convention_matches_evaluate():
    # a_00 + a_01 = 0, the coefficient of (0, 1) multiplying a_01 once: a
    # factor on the off-diagonal coordinate would tilt the nullspace
    cs = ConstraintSet(3, np.array([[1.0, 1.0, 0.0, 0.0, 0.0, 0.0]]))
    prob = RatioProblem(3, cs.rows)
    basis = prob.nullspace()
    assert basis.shape[1] == 4
    for k in range(basis.shape[1]):
        mat = prob.matrix_from_coordinates(basis[:, k])
        assert np.abs(oracles.evaluate(cs, mat)).max() <= 1e-9
        assert abs(np.trace(mat)) <= 1e-9


def test_feasible_set_annihilates_off_diagonal_targets():
    # a generic 2-form on R^4: every target functional has off-diagonal entries,
    # so forms and kernels must read an off-diagonal coordinate the same way
    omega = (np.array([[mask_of((0, 1)), mask_of((0, 2)), mask_of((1, 3)), mask_of((2, 3))]]),
             np.array([[1.0, 0.7, -0.4, 0.3]]))
    targets = [mask_of((0, 1)), mask_of((0, 2)), mask_of((1, 3))]
    cs = extract_constraints(4, *omega, targets)
    upper = np.triu_indices(4)
    assert cs.rows[:, upper[0] != upper[1]].any(axis=1).all()
    prob = RatioProblem(4, cs.rows)
    basis = prob.nullspace()
    assert basis.shape[1] > 0
    for column in basis.T:
        a = prob.matrix_from_coordinates(column)
        (t_masks,), (t_coeffs,) = collect(*hessian_action(a, *omega))
        assert np.abs(t_coeffs[np.isin(t_masks, targets)]).max(initial=0.0) <= 1e-12

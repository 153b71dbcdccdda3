import json

import numpy as np
import pytest

import oracles
from cayleykit.exterior import Form, hessian_action, mask_of
from cayleykit.forms import (
    SPIN9_DIM,
    V_TOP,
    W_TOP,
    ConstraintSet,
    FSpec,
    FWord,
    build_correction,
    diagonal_rows,
    extract_constraints,
    kahler_form,
    kahler_targets,
    monomial_functionals,
    no_leak_report,
    quaternionic_form,
    quaternionic_kahler_forms,
    quaternionic_targets,
    random_f_spec,
    spin9_form,
    spin9_targets,
    standard_constraints,
)

RNG = np.random.default_rng(1618)


def test_kahler_form_structure():
    for n in (1, 2, 4):
        omega = kahler_form(n)
        assert omega.grade == 2
        assert len(omega.coeffs) == n
        for i in range(n):
            assert omega.coeffs.get(mask_of((i, i + n)), 0.0) == -1.0
        assert kahler_targets(n) == tuple(1 << i | 1 << (i + n) for i in range(n))


def test_kahler_constraints_exact():
    got = standard_constraints("kahler", 2)
    assert got.n == 4
    assert np.array_equal(got.rows, diagonal_rows(4, [(0, 2), (1, 3)]))
    got8 = standard_constraints("kahler", 4)
    assert np.array_equal(got8.rows, diagonal_rows(8, [(i, i + 4) for i in range(4)]))


def test_quaternionic_two_forms_are_orthogonal_complex_structures():
    for n in (1, 2):
        w1, w2, w3 = quaternionic_kahler_forms(n)
        for w in (w1, w2, w3):
            assert w.grade == 2
            assert len(w.coeffs) == 2 * n
        # pairwise disjoint monomials except none shared
        assert not (set(w1.coeffs) & set(w2.coeffs))
        assert not (set(w1.coeffs) & set(w3.coeffs))


def test_quaternionic_form_n1_is_volume_multiple():
    assert (quaternionic_form(1) - 6.0 * Form.volume(4)).sup_norm() == 0.0


def test_quaternionic_line_coefficients():
    omega = quaternionic_form(2)
    for target in quaternionic_targets(2):
        assert omega.coeffs.get(target, 0.0) == pytest.approx(6.0)


def test_quaternionic_constraints_exact():
    got = standard_constraints("quaternionic", 2)
    assert got.n == 8
    want = diagonal_rows(8, [(i, i + 2, i + 4, i + 6) for i in range(2)])
    assert np.array_equal(got.rows, want)


def test_spin9_base_form():
    base = spin9_form()
    assert base.n == SPIN9_DIM
    assert base.grade == 8
    assert sorted(base.coeffs.items()) == [(V_TOP, -1.0), (W_TOP, 1.0)]
    assert spin9_targets() == (V_TOP, W_TOP)


def test_fword_validation():
    FWord(1.0, (("v", 0, 1), ("w", 0, 1), ("w", 2, 3), ("w", 4, 5)))
    with pytest.raises(ValueError):
        FWord(1.0, (("v", 0, 1), ("v", 2, 3), ("v", 4, 5), ("v", 6, 7)))  # no w letters
    with pytest.raises(ValueError):
        FWord(1.0, (("w", 0, 1), ("w", 2, 3), ("w", 4, 5), ("w", 6, 7)))  # no v letters
    with pytest.raises(ValueError):
        FWord(1.0, (("v", 1, 0), ("w", 0, 1), ("w", 2, 3), ("w", 4, 5)))  # descending
    with pytest.raises(ValueError):
        FWord(1.0, (("v", 0, 9), ("w", 0, 1), ("w", 2, 3), ("w", 4, 5)))  # out of range
    with pytest.raises(ValueError):
        FWord(1.0, (("x", 0, 1), ("w", 0, 1), ("w", 2, 3), ("w", 4, 5)))  # bad kind


def test_fspec_validation():
    word = FWord(1.0, (("v", 0, 1), ("w", 0, 1), ("w", 2, 3), ("w", 4, 5)))
    FSpec((word,), tuple(range(8)), tuple(range(8)))
    with pytest.raises(ValueError):
        FSpec((word,), (0,) * 8, tuple(range(8)))
    with pytest.raises(ValueError):
        FSpec((word,), tuple(range(8)), tuple(range(7)) + (9,))


def test_correction_words_have_eight_letters_after_wedge():
    spec = random_f_spec(RNG)
    corr = build_correction(spec)
    assert corr.grade == 8
    for mask in corr.coeffs:
        assert bin(mask).count("1") == 8


def test_no_leak_on_random_corrections():
    for _ in range(100):
        spec = random_f_spec(RNG)
        assert no_leak_report(build_correction(spec)) == 0.0


def test_top_functional_independent_of_correction():
    expect = -diagonal_rows(SPIN9_DIM, [range(8)])[0]
    for _ in range(100):
        omega = spin9_form(random_f_spec(RNG))
        func = monomial_functionals(omega, [V_TOP])[0]
        assert np.array_equal(np.flatnonzero(func), np.flatnonzero(expect))
        assert np.abs(func - expect).max() <= 1e-12


def test_monomial_functionals_single_pass_table():
    omega = spin9_form(random_f_spec(RNG))
    table = monomial_functionals(omega, [V_TOP, W_TOP])
    assert np.array_equal(table[0], monomial_functionals(omega, [V_TOP])[0])
    assert np.array_equal(table[1], monomial_functionals(omega, [W_TOP])[0])
    assert np.array_equal(table, diagonal_rows(SPIN9_DIM, [range(8), range(8, 16)]) * [[-1.0], [1.0]])


def test_extracted_constraints_match_targets():
    cs = standard_constraints("spin9")
    assert cs.n == 16
    # both top coefficients pin a diagonal block sum
    assert np.array_equal(cs.rows, diagonal_rows(16, [range(8), range(8, 16)]))
    spec = random_f_spec(RNG)
    assert extract_constraints(spin9_form(spec), spin9_targets()) == cs


def test_extraction_rescale_invariant():
    omega = kahler_form(4)
    assert extract_constraints(3.7 * omega, kahler_targets(4)) == extract_constraints(
        omega, kahler_targets(4))


def test_constraint_set_evaluate_collects_transpose():
    # coordinates (0, 0), (0, 1), (1, 1); the coefficient of (0, 1) already
    # collects a01 and a10, so it multiplies the symmetric entry once
    cs = ConstraintSet(2, np.array([[0.0, 1.0, 0.0]]))
    a = np.array([[0.0, 2.5], [2.5, 0.0]])
    assert oracles.evaluate(cs, a)[0] == pytest.approx(2.5)
    assert oracles.evaluate(cs, a)[0] == cs.rows[0] @ a[np.triu_indices(2)]


def test_constraint_set_json_roundtrip_and_rejects():
    for cs in (standard_constraints("kahler", 2),
               standard_constraints("quaternionic", 2),
               standard_constraints("spin9")):
        back = ConstraintSet.from_json(cs.to_json())
        assert back == cs
    with pytest.raises((KeyError, ValueError)):
        ConstraintSet.from_json(json.dumps({"n": 4}))


def test_standard_constraints_rejects_unknown_kind():
    with pytest.raises(ValueError):
        standard_constraints("elliptic")


def test_feasible_matrices_annihilate_targets():
    rng = np.random.default_rng(33)
    for kind, n, omega, targets in (
        ("kahler", 2, kahler_form(2), kahler_targets(2)),
        ("quaternionic", 2, quaternionic_form(2), quaternionic_targets(2)),
        ("spin9", None, spin9_form(random_f_spec(rng)), spin9_targets()),
    ):
        cs = standard_constraints(kind, n) if kind != "spin9" else standard_constraints("spin9")
        for _ in range(25):
            a = rng.uniform(-1.0, 1.0, (omega.n, omega.n))
            b = oracles.project_feasible(cs, 0.5 * (a + a.T))
            assert np.abs(oracles.evaluate(cs, b)).max() <= 1e-10
            t_form = Form.from_terms(omega.n, omega.grade, *hessian_action(b, *omega.batch()))
            assert max(abs(t_form.coeffs.get(m, 0.0)) for m in targets) <= 1e-10


def test_functional_rescale_consistency():
    # doubling the form doubles every functional but fixes the same space
    spec = random_f_spec(RNG)
    omega = spin9_form(spec)
    f1 = monomial_functionals(omega, [V_TOP])
    f2 = monomial_functionals(2.0 * omega, [V_TOP])
    assert f2 == pytest.approx(2.0 * f1)

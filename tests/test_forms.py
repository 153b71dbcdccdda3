from collections import Counter

import numpy as np
import pytest

import oracles
from cayleykit import forms
from cayleykit.exterior import Form, hessian_action, mask_of, random_forms
from cayleykit.forms import (
    SPIN9_DIM,
    V_TOP,
    W_TOP,
    ConstraintSet,
    diagonal_rows,
    extract_constraints,
    kahler_form,
    kahler_targets,
    monomial_functionals,
    no_leak_report,
    quaternionic_form,
    quaternionic_kahler_forms,
    quaternionic_targets,
    spin9_form,
    spin9_targets,
    standard_constraints,
)


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
    phi = spin9_form()
    assert phi.n == SPIN9_DIM
    assert phi.grade == 8
    assert spin9_targets() == (V_TOP, W_TOP)
    assert (phi.coeffs[V_TOP], phi.coeffs[W_TOP]) == (-1.0, 1.0)
    assert len(phi.coeffs) == 702
    assert all(mask.bit_count() == 8 for mask in phi.coeffs)
    assert Counter(round(abs(c) * 5040) for c in phi.coeffs.values()) == {360: 448, 720: 252, 5040: 2}
    types = Counter(((m & V_TOP).bit_count(), (m & W_TOP).bit_count()) for m in phi.coeffs)
    assert types == {(8, 0): 1, (6, 2): 112, (4, 4): 476, (2, 6): 112, (0, 8): 1}


def test_cayley_form_matches_wedge_oracle():
    # the batched build and the Form/wedge route sum the same integers, then divide once
    assert sorted(spin9_form().coeffs.items()) == sorted(oracles.cayley_form_by_wedge().coeffs.items())


def test_correction_words_have_eight_letters_after_wedge():
    # Phi minus its two tops is the correction: 700 words, each of eight distinct letters
    corr = spin9_form() - Form(SPIN9_DIM, 8, {V_TOP: -1.0, W_TOP: 1.0})
    assert corr.grade == 8
    assert len(corr.coeffs) == 700
    assert V_TOP not in corr.coeffs and W_TOP not in corr.coeffs
    for mask in corr.coeffs:
        assert bin(mask).count("1") == 8
    # and the wedge of two 4-forms, as in (psi ^ psi), only ever yields eight-letter words
    (ma, mb), (ca, cb) = random_forms(SPIN9_DIM, np.array([4, 4]), np.random.default_rng(8))
    square = oracles.wedge1(Form.from_terms(SPIN9_DIM, 4, ma, ca), Form.from_terms(SPIN9_DIM, 4, mb, cb))
    assert square.grade == 8 and square.coeffs
    for mask in square.coeffs:
        assert bin(mask).count("1") == 8


def test_cayley_form_is_built_once():
    forms._cayley_terms.cache_clear()
    spin9_form()
    spin9_form()
    standard_constraints("spin9")
    assert forms._cayley_terms.cache_info().misses == 1
    masks, coeffs = forms._cayley_terms()
    assert not masks.flags.writeable and not coeffs.flags.writeable
    # the Form is a fresh copy, so a caller cannot change the cached terms
    phi = spin9_form()
    phi.coeffs[V_TOP] = 0.0
    assert spin9_form().coeffs[V_TOP] == -1.0


def test_cayley_form_stabilizer_is_spin9():
    action = forms.so_action(spin9_form())
    assert action.shape == (120, 11328)
    dense = action.toarray()
    assert 120 - np.linalg.matrix_rank(dense @ dense.T) == 36
    inv = oracles.clifford_by_products()
    i, j = np.triu_indices(9, 1)
    p, q = np.triu_indices(16, 1)
    assert np.abs((inv[i] @ inv[j])[:, p, q] @ dense).max() <= 1e-14
    # a generic element of so(16) moves Phi
    a = np.random.default_rng(9).standard_normal((16, 16))
    assert np.abs((a - a.T)[p, q] @ dense).max() > 0.1


def test_so_action_matches_hessian_action():
    # column order aside, <x A, a A> must equal <T(x, omega), T(a, omega)> for x = a, b
    omega = Form(6, 3, {mask_of((0, 1, 2)): 1.0, mask_of((1, 3, 5)): -2.0, mask_of((2, 4, 5)): 0.5})
    action = forms.so_action(omega)
    p, q = np.triu_indices(6, 1)
    a, b = np.random.default_rng(4).standard_normal((2, 6, 6))
    a, b = a - a.T, b - b.T
    ta, tb = (Form.from_terms(6, 3, *hessian_action(x, *omega.batch())) for x in (a, b))
    for x, tx in ((a, ta), (b, tb)):
        pairing = sum(c * tx.coeffs.get(m, 0.0) for m, c in ta.coeffs.items())
        assert (x[p, q] @ action) @ (a[p, q] @ action) == pytest.approx(pairing, rel=1e-12)


def test_no_leak_on_random_corrections():
    # random 8-forms without (7, 1) or (1, 7) terms reach neither top monomial, and neither
    # do the 700 non-top terms of Phi
    masks, coeffs = random_forms(SPIN9_DIM, np.full(100, 8), np.random.default_rng(1618))
    admissible = ~np.isin(np.bitwise_count(masks & V_TOP), (1, 7))
    for m, c in zip(masks, np.where(admissible, coeffs, 0.0)):
        assert no_leak_report(Form.from_terms(SPIN9_DIM, 8, m, c)) == 0.0
    phi = spin9_form()
    assert no_leak_report(phi) == 0.0
    # a (7, 1) term does reach the v-top monomial
    assert no_leak_report(phi + Form(SPIN9_DIM, 8, {mask_of((*range(7), 8)): 0.5})) == 0.5


def test_top_functional_independent_of_correction():
    # the 700 non-top terms of Phi, its correction to the two tops, leave the functional alone
    expect = -diagonal_rows(SPIN9_DIM, [range(8)])[0]
    for omega in (spin9_form(), Form(SPIN9_DIM, 8, {V_TOP: -1.0, W_TOP: 1.0})):
        assert np.array_equal(monomial_functionals(omega, [V_TOP])[0], expect)


def test_monomial_functionals_single_pass_table():
    omega = spin9_form()
    table = monomial_functionals(omega, [V_TOP, W_TOP])
    assert np.array_equal(table[0], monomial_functionals(omega, [V_TOP])[0])
    assert np.array_equal(table[1], monomial_functionals(omega, [W_TOP])[0])
    assert np.array_equal(table, diagonal_rows(SPIN9_DIM, [range(8), range(8, 16)]) * [[-1.0], [1.0]])


def test_extracted_constraints_match_targets():
    cs = standard_constraints("spin9")
    assert cs.n == 16
    # both top coefficients pin a diagonal block sum
    assert np.array_equal(cs.rows, diagonal_rows(16, [range(8), range(8, 16)]))
    # the two top monomials alone impose the same constraints as Phi
    tops = Form(SPIN9_DIM, 8, {V_TOP: -1.0, W_TOP: 1.0})
    assert extract_constraints(tops, spin9_targets()) == cs


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


def test_standard_constraints_rejects_unknown_kind():
    with pytest.raises(ValueError):
        standard_constraints("elliptic")


def test_feasible_matrices_annihilate_targets():
    rng = np.random.default_rng(33)
    for kind, n, omega, targets in (
        ("kahler", 2, kahler_form(2), kahler_targets(2)),
        ("quaternionic", 2, quaternionic_form(2), quaternionic_targets(2)),
        ("spin9", None, spin9_form(), spin9_targets()),
    ):
        cs = standard_constraints(kind, n) if kind != "spin9" else standard_constraints("spin9")
        for _ in range(25):
            a = rng.uniform(-1.0, 1.0, (omega.n, omega.n))
            b = oracles.project_feasible(cs, 0.5 * (a + a.T))
            assert np.abs(oracles.evaluate(cs, b)).max() <= 1e-10
            t_masks, t_coeffs = hessian_action(b, *omega.batch())
            assert max(abs(t_coeffs[t_masks == m].sum()) for m in targets) <= 1e-10


def test_functional_rescale_consistency():
    # doubling the form doubles every functional but fixes the same space
    omega = spin9_form()
    f1 = monomial_functionals(omega, [V_TOP])
    f2 = monomial_functionals(2.0 * omega, [V_TOP])
    assert f2 == pytest.approx(2.0 * f1)

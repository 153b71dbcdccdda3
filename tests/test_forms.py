from collections import Counter

import numpy as np
import pytest

import oracles
from cayleykit import forms
from cayleykit.exterior import collect, hessian_action, inner, mask_of, random_forms, wedge
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
from cayleykit.octonion import DEFAULT_TABLE, MultiplicationTable
from oracles import deviation

TOPS = np.array([[V_TOP, W_TOP]]), np.array([[-1.0, 1.0]])  # Phi's two top terms


def test_kahler_form_structure():
    for n in (1, 2, 4):
        masks, coeffs = kahler_form(n)
        assert masks.tolist() == [[mask_of((i, i + n)) for i in range(n)]]
        assert coeffs.tolist() == [[-1.0] * n]
        assert kahler_targets(n) == tuple(1 << i | 1 << (i + n) for i in range(n))


def test_kahler_constraints_exact():
    got = standard_constraints("kahler", 2)
    assert got.n == 4
    assert np.array_equal(got.rows, diagonal_rows(4, [(0, 2), (1, 3)]))
    got8 = standard_constraints("kahler", 4)
    assert np.array_equal(got8.rows, diagonal_rows(8, [(i, i + 4) for i in range(4)]))


def test_quaternionic_two_forms_are_orthogonal_complex_structures():
    for n in (1, 2):
        masks, coeffs = quaternionic_kahler_forms(n)
        assert masks.shape == coeffs.shape == (3, 2 * n)
        assert np.all(np.bitwise_count(masks) == 2) and np.all(np.abs(coeffs) == 1.0)
        # the three forms share no monomial, and none repeats within a form
        assert len(set(masks.ravel().tolist())) == 6 * n


def test_quaternionic_form_n1_is_volume_multiple():
    assert deviation(quaternionic_form(1), (np.array([[0b1111]]), np.array([[6.0]]))) == 0.0


def test_quaternionic_form_is_sum_of_kahler_squares():
    # om1^om1 + om2^om2 + om3^om3 row by row: at n >= 2 the cross terms om_a^om_b are nonzero
    for n in (1, 2):
        masks, coeffs = quaternionic_kahler_forms(n)
        want = sum(oracles.wedge_dense(om, om, 4 * n, 2, 2)
                   for om in (oracles.dense_from_form((m, c), 4 * n, 2) for m, c in zip(masks, coeffs)))
        assert deviation(quaternionic_form(n), oracles.form_from_dense(want, 4 * n, 4)) <= 1e-12


def test_quaternionic_line_coefficients():
    (masks,), (coeffs,) = quaternionic_form(2)
    for target in quaternionic_targets(2):
        assert coeffs[masks == target].tolist() == [pytest.approx(6.0)]


def test_quaternionic_constraints_exact():
    got = standard_constraints("quaternionic", 2)
    assert got.n == 8
    want = diagonal_rows(8, [(i, i + 2, i + 4, i + 6) for i in range(2)])
    assert np.array_equal(got.rows, want)


def test_spin9_base_form():
    (masks,), (coeffs,) = spin9_form()
    assert spin9_targets() == (V_TOP, W_TOP)
    assert coeffs[np.isin(masks, spin9_targets())].tolist() == [-1.0, 1.0]
    assert masks.size == 702 and np.all(np.diff(masks) > 0)
    assert np.all(masks >> SPIN9_DIM == 0) and np.all(np.bitwise_count(masks) == 8)
    assert Counter(round(abs(c) * 5040) for c in coeffs.tolist()) == {360: 448, 720: 252, 5040: 2}
    types = Counter(((m & V_TOP).bit_count(), (m & W_TOP).bit_count()) for m in masks.tolist())
    assert types == {(8, 0): 1, (6, 2): 112, (4, 4): 476, (2, 6): 112, (0, 8): 1}


def test_cayley_form_matches_wedge_oracle():
    # the batched build and the dict/wedge route sum the same integers, then divide once
    for got, want in zip(spin9_form(), oracles.cayley_form_by_wedge()):
        assert np.array_equal(got, want)


def test_correction_words_have_eight_letters_after_wedge():
    # Phi minus its two tops is the correction: 700 words, each of eight distinct letters
    (phi_masks,), (phi_coeffs,) = spin9_form()
    (masks,), _ = collect(np.append(phi_masks, TOPS[0]), np.append(phi_coeffs, -TOPS[1]))
    assert masks.size == 700
    assert not np.isin(masks, spin9_targets()).any()
    assert np.all(np.bitwise_count(masks) == 8)
    # and the wedge of two 4-forms, as in (psi ^ psi), only ever yields eight-letter words
    (ma, mb), (ca, cb) = random_forms(SPIN9_DIM, np.array([4, 4]), np.random.default_rng(8))
    (masks,), _ = collect(*wedge(ma[None], ca[None], mb[None], cb[None]))
    assert masks.size and np.all(np.bitwise_count(masks) == 8)


def test_cayley_form_is_built_once():
    forms._cayley_terms.cache_clear()
    spin9_form()
    spin9_form()
    standard_constraints("spin9")
    assert forms._cayley_terms.cache_info().misses == 1
    masks, coeffs = forms._cayley_terms(DEFAULT_TABLE)
    assert not masks.flags.writeable and not coeffs.flags.writeable
    # spin9_form shares the cached arrays, which no caller can write into
    phi_masks, phi_coeffs = spin9_form()
    assert np.shares_memory(phi_masks, masks) and np.shares_memory(phi_coeffs, coeffs)
    with pytest.raises(ValueError):
        phi_coeffs[0, 0] = 0.0
    with pytest.raises(ValueError):
        phi_masks[0, 0] = 0
    assert spin9_form()[1][0, 0] == coeffs[0] != 0.0


def test_cayley_form_follows_the_table():
    # one Phi per table in the cache; a flipped table sign gives another form
    sign = DEFAULT_TABLE.sign.copy()
    sign[3, 5] = -sign[3, 5]
    table = MultiplicationTable(sign, DEFAULT_TABLE.index)
    forms._cayley_terms.cache_clear()
    (masks,), _ = spin9_form()
    (flipped_masks,), _ = spin9_form(table)
    spin9_form(table)
    assert forms._cayley_terms.cache_info()[:2] == (1, 2)  # hits, misses
    assert (masks.size, flipped_masks.size) == (702, 770)


def test_cayley_form_stabilizer_is_spin9():
    triplets, shape = forms.so_action(SPIN9_DIM, *spin9_form())
    assert shape == (120, 11328)
    dense = oracles.dense_action(triplets, shape)
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
    omega = (np.array([[mask_of((0, 1, 2)), mask_of((1, 3, 5)), mask_of((2, 4, 5))]]),
             np.array([[1.0, -2.0, 0.5]]))
    action = oracles.dense_action(*forms.so_action(6, *omega))
    p, q = np.triu_indices(6, 1)
    a, b = np.random.default_rng(4).standard_normal((2, 6, 6))
    a, b = a - a.T, b - b.T
    ta, tb = (collect(*hessian_action(x, *omega)) for x in (a, b))
    for x, tx in ((a, ta), (b, tb)):
        pairing = float(inner(*ta, *tx)[0])
        assert (x[p, q] @ action) @ (a[p, q] @ action) == pytest.approx(pairing, rel=1e-12)


def test_no_leak_on_random_corrections():
    # random 8-forms without (7, 1) or (1, 7) terms reach neither top monomial, and neither
    # do the 700 non-top terms of Phi
    masks, coeffs = random_forms(SPIN9_DIM, np.full(100, 8), np.random.default_rng(1618))
    admissible = ~np.isin(np.bitwise_count(masks & V_TOP), (1, 7))
    for m, c in zip(masks, np.where(admissible, coeffs, 0.0)):
        assert no_leak_report(m[None], c[None]) == 0.0
    (masks,), (coeffs,) = spin9_form()
    assert no_leak_report(masks[None], coeffs[None]) == 0.0
    # a (7, 1) term does reach the v-top monomial
    leaky = np.append(masks, mask_of((*range(7), 8)))[None], np.append(coeffs, 0.5)[None]
    assert no_leak_report(*leaky) == 0.5


def test_top_functional_independent_of_correction():
    # the 700 non-top terms of Phi, its correction to the two tops, leave the functional alone
    expect = -diagonal_rows(SPIN9_DIM, [range(8)])[0]
    for omega in (spin9_form(), TOPS):
        assert np.array_equal(monomial_functionals(SPIN9_DIM, *omega, [V_TOP])[0], expect)


def test_monomial_functionals_single_pass_table():
    omega = spin9_form()
    table = monomial_functionals(SPIN9_DIM, *omega, [V_TOP, W_TOP])
    assert np.array_equal(table[0], monomial_functionals(SPIN9_DIM, *omega, [V_TOP])[0])
    assert np.array_equal(table[1], monomial_functionals(SPIN9_DIM, *omega, [W_TOP])[0])
    assert np.array_equal(table, diagonal_rows(SPIN9_DIM, [range(8), range(8, 16)]) * [[-1.0], [1.0]])


def test_monomial_functionals_expand_every_term_that_reaches_a_target():
    # the expansion skips terms more than one index swap from every target; on Phi and on
    # an 8-form whose (7, 1) and (1, 7) terms leak into the tops, the rows equal those of
    # the expansion of every term, bit for bit
    (masks,), (coeffs,) = spin9_form()
    leaks = [mask_of((*range(7), 8)), mask_of((*range(1, 8), 15)), mask_of((0, *range(9, 16))),
             mask_of((7, *range(8, 15))), mask_of((*range(6), 8, 9))]
    leaky = np.append(masks, leaks)[None], np.append(coeffs, [0.5, -0.25, 1.5, 0.75, 2.0])[None]
    for omega in (spin9_form(), leaky):
        for targets in ([V_TOP], [W_TOP, V_TOP]):
            got = monomial_functionals(SPIN9_DIM, *omega, targets).tolist()
            want = oracles.monomial_functionals_unfiltered(SPIN9_DIM, *omega, targets).tolist()
            assert repr(got) == repr(want)
    assert not np.array_equal(monomial_functionals(SPIN9_DIM, *leaky, [V_TOP]),
                              monomial_functionals(SPIN9_DIM, *spin9_form(), [V_TOP]))
    # and on the Kahler and quaternionic forms with their targets
    for n, omega, targets in ((8, kahler_form(4), kahler_targets(4)),
                              (8, quaternionic_form(2), quaternionic_targets(2))):
        got = monomial_functionals(n, *omega, targets).tolist()
        assert repr(got) == repr(oracles.monomial_functionals_unfiltered(n, *omega, targets).tolist())


def test_rows_dependent_up_to_rounding_are_dropped():
    # r0 + r1 in floats is off the span of r0 and r1 only by rounding: one constraint less
    r0, r1 = np.random.default_rng(5).standard_normal((2, 6))
    assert len(ConstraintSet.from_functionals(3, np.array([r0, r1, r0 + r1])).rows) == 2
    assert ConstraintSet.from_functionals(3, np.array([r0, r1, r0 + r1])) == \
        ConstraintSet.from_functionals(3, np.array([r0, r1]))


def test_extracted_constraints_match_targets():
    cs = standard_constraints("spin9")
    assert cs.n == 16
    # both top coefficients pin a diagonal block sum
    assert np.array_equal(cs.rows, diagonal_rows(16, [range(8), range(8, 16)]))
    # the two top monomials alone impose the same constraints as Phi
    assert extract_constraints(SPIN9_DIM, *TOPS, spin9_targets()) == cs


def test_extraction_rescale_invariant():
    # a rescaled form, the raw rows reversed or recombined by an integer matrix of
    # determinant 1: each spans the same space, so each canonicalizes to the same rows
    for n, omega, targets in ((SPIN9_DIM, spin9_form(), spin9_targets()),
                              (8, kahler_form(4), kahler_targets(4)),
                              (8, quaternionic_form(2), quaternionic_targets(2))):
        want = extract_constraints(n, *omega, targets)
        masks, coeffs = omega
        for scale in (3.7, -2.5, np.pi):
            assert extract_constraints(n, masks, scale * coeffs, targets) == want
        raw = monomial_functionals(n, *omega, targets)
        mix = np.tril(np.ones((len(raw), len(raw)))) @ (np.eye(len(raw)) - 2.0 * np.eye(len(raw), k=1))
        assert round(np.linalg.det(mix)) == 1
        for rows in (raw, np.pi * raw):
            for inputs in (rows[::-1], mix @ rows, mix @ rows[::-1]):
                assert ConstraintSet.from_functionals(n, inputs) == want


def test_standard_constraints_already_hold_the_trace_row():
    # the trace lies in the span of every standard set: adding it leaves the exact
    # canonical rows as they are, so the kernels' prepended trace row is redundant there
    for kind, n in (("kahler", 2), ("kahler", 4), ("quaternionic", 1), ("quaternionic", 2),
                    ("spin9", None)):
        cs = standard_constraints(kind, n)
        assert ConstraintSet.from_functionals(cs.n, cs.trace_free_rows()) == cs, (kind, n)
    # not so for a generic set
    cs = ConstraintSet.from_functionals(4, diagonal_rows(4, [(0, 1)]))
    assert len(ConstraintSet.from_functionals(4, cs.trace_free_rows()).rows) == 2


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
            a = rng.uniform(-1.0, 1.0, (cs.n, cs.n))
            b = oracles.project_feasible(cs, 0.5 * (a + a.T))
            assert np.abs(oracles.evaluate(cs, b)).max() <= 1e-10
            t_masks, t_coeffs = hessian_action(b, *omega)
            assert max(abs(t_coeffs[t_masks == m].sum()) for m in targets) <= 1e-10


def test_functional_rescale_consistency():
    # doubling the form doubles every functional but fixes the same space
    masks, coeffs = spin9_form()
    f1 = monomial_functionals(SPIN9_DIM, masks, coeffs, [V_TOP])
    f2 = monomial_functionals(SPIN9_DIM, masks, 2.0 * coeffs, [V_TOP])
    assert f2 == pytest.approx(2.0 * f1)

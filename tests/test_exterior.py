import math

import numpy as np
import pytest

import oracles
from cayleykit import exterior
from cayleykit.exterior import (
    _star_chain,
    duality_report,
    epsilon,
    from_text,
    hessian_action,
    hodge,
    indices_of,
    inner,
    interior,
    mask_of,
    random_forms,
    random_trace_free,
    residual,
    to_text,
    wedge,
    wedge_sign,
)
from oracles import deviation

RNG = np.random.default_rng(414213562)


# single forms through the batched kernels, as one-row batches
def random_form(n, p, rng):
    return random_forms(n, [p], rng)


def monomial(mask, coeff=1.0):
    return np.array([[mask]]), np.array([[coeff]])


def inner1(xi, eta):
    return float(inner(*xi, *eta)[0])


def test_mask_helpers():
    assert mask_of((0, 3, 5)) == 0b101001
    assert indices_of(0b101001) == (0, 3, 5)
    with pytest.raises(ValueError):
        mask_of((2, 2))


def test_merge_sign_counts_transpositions():
    # moving each index of the second factor past the higher ones of the first
    for m1, m2, expect in (
        (0b0011, 0b1100, 1),
        (0b0101, 0b1010, -1),
        (0b1, 0b10, 1),
        (0b10, 0b1, -1),
        (0b111, 0b1000, 1),
    ):
        masks, coeffs = wedge(*monomial(m1), *monomial(m2))
        assert (masks.tolist(), coeffs.tolist()) == ([[m1 | m2]], [[float(expect)]])
    # every sign is the sign of the permutation sorting the indices of its product
    for n in range(1, 7):
        full = (1 << n) - 1
        for m in range(1 << n):
            idx = indices_of(m)
            _, signs = hodge(n, np.array([m]), np.ones(1))
            assert signs[0] == oracles.perm_sign(idx + indices_of(full ^ m))
            for k in idx:
                rest = tuple(i for i in idx if i != k)
                assert wedge_sign(1 << k, m) == oracles.perm_sign((k,) + rest)
        pairs = [(m, m2) for m in range(1 << n) for m2 in range(1 << n) if not m & m2]
        a, b = np.array(pairs).T
        want = [oracles.perm_sign(indices_of(m) + indices_of(m2)) for m, m2 in pairs]
        assert wedge_sign(a, b).tolist() == want
        masks, coeffs = wedge(a[:, None], np.ones((a.size, 1)), b[:, None], np.ones((b.size, 1)))
        assert np.array_equal(masks[:, 0], a | b) and coeffs[:, 0].tolist() == want
    # n <= 6 never reaches the last step of the prefix parity; random disjoint pairs at n = 16 do
    owner = np.random.default_rng(16).integers(0, 3, (2000, 16))
    a, b = (((owner == side) << np.arange(16)).sum(axis=1) for side in (1, 2))
    want = [oracles.perm_sign(indices_of(m) + indices_of(m2)) for m, m2 in zip(a.tolist(), b.tolist())]
    assert wedge_sign(a, b).tolist() == want


def test_wedge_against_dense_oracle(monkeypatch):
    monkeypatch.setattr(exterior, "RANDOM_FORM_TERMS", 4)
    for n in (3, 4, 5):
        for p in range(0, n):
            for q in range(0, n - p + 1):
                if p + q > n:
                    continue
                for _ in range(5):
                    xi = random_form(n, p, RNG)
                    eta = random_form(n, q, RNG)
                    got = wedge(*xi, *eta)
                    want = oracles.wedge_dense(
                        oracles.dense_from_form(xi, n, p), oracles.dense_from_form(eta, n, q), n, p, q)
                    assert deviation(got, oracles.form_from_dense(want, n, p + q)) <= 1e-12


def test_wedge_above_top_grade_vanishes():
    xi = random_form(4, 3, RNG)
    eta = random_form(4, 2, RNG)
    _, coeffs = wedge(*xi, *eta)
    assert not coeffs.any()


def test_interior_epsilon_hodge_against_dense_oracle(monkeypatch):
    monkeypatch.setattr(exterior, "RANDOM_FORM_TERMS", 4)
    for n in (3, 4, 5):
        for p in range(0, n + 1):
            for _ in range(5):
                eta = random_form(n, p, RNG)
                dense = oracles.dense_from_form(eta, n, p)
                for k in range(n):
                    if p >= 1:
                        want = oracles.interior_dense(k, dense, p)
                        got = interior(k, *eta)
                        assert deviation(got, oracles.form_from_dense(want, n, p - 1)) <= 1e-12
                    if p < n:
                        want = oracles.epsilon_dense(k, dense, n, p)
                        got = epsilon(k, *eta)
                        assert deviation(got, oracles.form_from_dense(want, n, p + 1)) <= 1e-12
                want = oracles.hodge_dense(dense, n, p)
                assert deviation(hodge(n, *eta), oracles.form_from_dense(want, n, n - p)) <= 1e-12


def test_star_identities_full_dimension():
    n = 16
    for _ in range(200):
        p = int(RNG.integers(1, n))
        eta = random_form(n, p, RNG)
        k = int(RNG.integers(0, n))
        star = hodge(n, *eta)
        assert deviation(hodge(n, *star), eta, (-1) ** (p * (n - p))) <= 1e-12
        lhs = hodge(n, *epsilon(k, *eta))
        assert deviation(lhs, interior(k, *star), (-1) ** p) <= 1e-12
        lhs = epsilon(k, *star)
        assert deviation(lhs, hodge(n, *interior(k, *eta)), (-1) ** (p - 1)) <= 1e-12
        lhs = hodge(n, *epsilon(k, *star))
        assert deviation(lhs, interior(k, *eta), (-1) ** ((p - 1) * (n - p))) <= 1e-12


def test_contraction_anticommutator_full_dimension():
    n = 16
    for _ in range(100):
        p = int(RNG.integers(1, n))
        eta = random_form(n, p, RNG)
        k, m = (int(v) for v in RNG.integers(0, n, 2))
        # l(e_k) eps(theta^m) + eps(theta^m) l(e_k) = delta_km
        assert residual(interior(k, *epsilon(m, *eta)), epsilon(m, *interior(k, *eta)),
                        (eta[0], -float(k == m) * eta[1])) <= 1e-12


def test_epsilon_interior_adjoint():
    n = 16
    for _ in range(100):
        p = int(RNG.integers(1, n + 1))
        eta = random_form(n, p, RNG)
        xi = random_form(n, p - 1, RNG)
        k = int(RNG.integers(0, n))
        assert abs(inner1(epsilon(k, *xi), eta) - inner1(xi, interior(k, *eta))) <= 1e-12


def test_inner_is_monomial_orthonormal():
    eta = np.array([[0b11, 0b101]]), np.array([[2.0, -3.0]])
    assert inner1(eta, eta) == pytest.approx(13.0)
    assert inner1(monomial(0b11), monomial(0b101)) == 0.0


def test_hessian_action_identity_and_trace():
    n = 8
    for p in (1, 3, 5):
        eta = random_form(n, p, RNG)
        assert deviation(hessian_action(np.eye(n), *eta), eta, float(p)) <= 1e-12
    (a,) = random_trace_free(n, 1, RNG)
    assert residual(hessian_action(a, *monomial((1 << n) - 1))) <= 1e-12


def test_hessian_action_against_dense_oracle(monkeypatch):
    monkeypatch.setattr(exterior, "RANDOM_FORM_TERMS", 4)
    for n in (3, 4, 5):
        for p in range(1, n + 1):
            a = RNG.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            eta = random_form(n, p, RNG)
            want = oracles.hessian_dense(a, oracles.dense_from_form(eta, n, p), p)
            got = hessian_action(a, *eta)
            assert deviation(got, oracles.form_from_dense(want, n, p)) <= 1e-10


@pytest.mark.parametrize("n", range(1, 7))
def test_live_pair_expansions_match_the_full_grid(n):
    rng = np.random.default_rng(n)
    for p in range(n + 1):
        eta = random_forms(n, np.full(3, p), rng)
        a = rng.standard_normal((3, n, n))
        for coeffs in (a, a[0]):  # one matrix per row, one for all rows
            got = hessian_action(coeffs, *eta)
            assert got[0].shape == (3, exterior.RANDOM_FORM_TERMS * p * (n - p + 1))
            # deviation keys terms by (row, mask): stricter than comparing the collected sums
            assert deviation(got, oracles.hessian_grid(coeffs, *eta)) <= 1e-12
            for form in (eta, hodge(n, *eta)):
                want = oracles.star_chain_grid(coeffs, *form)
                assert deviation(_star_chain(coeffs, *form), want) <= 1e-12


def test_pair_expansions_reject_mixed_grades():
    mixed = np.array([[0b011, 0b111]]), np.array([[1.0, 1.0]])
    for expand in (hessian_action, _star_chain):
        with pytest.raises(ValueError, match="one grade"):
            expand(np.eye(3), *mixed)


def test_sum_terms_matches_unique_and_bincount():
    rng = np.random.default_rng(17)
    for size in (0, 1, 40, 4000):
        keys = rng.integers(0, max(1, size // 4), (2, size // 2 or size))  # repeated keys
        coeffs = rng.standard_normal(keys.shape)
        want_keys, inverse = np.unique(keys, return_inverse=True)
        want = np.bincount(inverse.ravel(), weights=coeffs.ravel(), minlength=want_keys.size)
        got_keys, got = exterior.sum_terms(keys, coeffs)
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got, want)  # each key's terms added in the same input order


def test_duality_chain_signs_and_residuals():
    for n, p in ((4, 2), (8, 4), (16, 8)):
        rep = duality_report(n, p, 100, np.random.default_rng(7))
        assert rep["max"] <= 1e-12, (n, p, rep)


@pytest.mark.parametrize("n", (4, 8, 16))
def test_duality_report_matches_the_eight_row_oracle(n):
    # one sort per term-budget block reads the same maxima, bit for bit, as one sort per
    # identity and 8-row block, at every grade of the chain
    for p in range(1, n):
        for seed in range(3):
            got = duality_report(n, p, 40, np.random.default_rng(seed))
            assert repr(got) == repr(oracles.duality_report_by_rows(n, p, 40, np.random.default_rng(seed)))


def test_random_forms_match_the_whole_batch_oracle():
    # redrawing only the rows still holding a repeat makes the same draws in the same order
    for seed in range(4):
        for n, grades in ((16, np.arange(17)), (16, np.full(300, 1)), (4, np.full(200, 2))):
            got = random_forms(n, grades, np.random.default_rng(seed))
            want = oracles.random_forms_whole_batch(n, grades, np.random.default_rng(seed))
            assert repr([x.tolist() for x in got]) == repr([x.tolist() for x in want]), (seed, n)
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    random_forms(16, np.arange(17), rng)
    oracles.random_forms_whole_batch(16, np.arange(17), oracle_rng)
    assert rng.random() == oracle_rng.random()  # the generators are left in one state


def test_duality_chain_antisymmetric_matrix():
    # the chain never used symmetry of a, so the 2-form-symbol case
    # (antisymmetric coefficients) must satisfy the same identities
    n, p = 8, 4
    rng = np.random.default_rng(11)
    a = rng.standard_normal((50, n, n))
    a = 0.5 * (a - np.swapaxes(a, 1, 2))
    masks, coeffs = random_forms(n, np.full(50, p), rng)
    t_masks, t_coeffs = hessian_action(a, masks, coeffs)
    sign_direct = (-1) ** (p * (n - p - 1) + 1)
    sign_codiff = (-1) ** ((p - 1) * (n - p))
    # the direct chain needs only trace freeness, which antisymmetry
    # gives for free; the codifferential chain pairs through a^T
    direct = hodge(n, *_star_chain(a, masks, coeffs))
    assert residual(direct, (t_masks, -sign_direct * t_coeffs)) <= 1e-12
    codiff = _star_chain(a, *hodge(n, masks, coeffs))
    assert residual(codiff, (t_masks, sign_codiff * t_coeffs)) <= 1e-12


def test_residual_keys_terms_by_row():
    masks = np.array([[0b11, 0b101], [0b11, 0b110]])
    # equal and opposite terms in two rows are two faults, not a cancellation
    assert residual((masks, np.array([[1.0, 0.0], [-1.0, 0.0]]))) == 1.0
    assert residual((masks, np.array([[1.0, 2.0], [0.5, 0.0]])),
                    (masks, np.array([[-1.0, -2.0], [-0.5, 0.0]]))) == 0.0
    assert residual((masks[:, :0], np.zeros((2, 0)))) == 0.0


def test_random_forms_rows_are_distinct_monomials_of_their_grade():
    grades = np.arange(17)
    masks, coeffs = random_forms(16, grades, np.random.default_rng(3))
    assert masks.shape == coeffs.shape == (17, exterior.RANDOM_FORM_TERMS)
    for p, row_masks, row_coeffs in zip(grades, masks, coeffs):
        count = min(exterior.RANDOM_FORM_TERMS, math.comb(16, int(p)))
        live = row_masks[:count]
        assert len(set(live.tolist())) == count
        assert all(int(m).bit_count() == p for m in live)
        assert np.all(np.abs(row_coeffs[:count]) <= 1.0) and np.all(row_coeffs[:count] != 0.0)
        assert np.all(row_coeffs[count:] == 0.0)


def test_serialization_roundtrip_and_rejects():
    for _ in range(20):
        p = int(RNG.integers(0, 17))
        eta = random_form(16, p, RNG)
        back = from_text(to_text(*eta), 16, p)
        assert deviation(eta, back) == 0.0
        assert np.all(np.diff(back[0]) > 0) and np.all(back[1] != 0.0)
    # repeated monomials sum, and a sum of zero drops out
    text = "0,1:1.5\n0,2:2.0\n0,1:0.5\n0,2:-2.0\n"
    assert [a.tolist() for a in from_text(text, 4)] == [[[0b11]], [[2.0]]]
    assert to_text(*from_text(text, 4)) == "0,1:2.0\n"
    with pytest.raises(ValueError):
        from_text("0,1:1.0\n0,2,3:2.0", 16)  # mixed grades
    with pytest.raises(ValueError):
        from_text("0,99:1.0", 16)
    with pytest.raises(ValueError):
        from_text("0,1:1.0\n0,2,3:0.0", 16)  # a zero term is still validated
    with pytest.raises(ValueError):
        from_text("0,99:0.0", 16)
    with pytest.raises(ValueError):
        from_text("1,1:1.0", 16)
    with pytest.raises(ValueError):
        from_text("0,1:not-a-number", 16)
    # the checks the form's dimension and grade always had
    with pytest.raises(ValueError):
        from_text("0:1.0", 40)  # dimension out of range
    with pytest.raises(ValueError):
        from_text("", 4, 5)  # grade out of range
    with pytest.raises(ValueError):
        from_text("0,1:1.0", 4, 1)  # wrong popcount for the grade
    with pytest.raises(ValueError):
        from_text("# nothing\n", 4)  # no term and no grade


def test_wedge_associativity_and_sign_rule(monkeypatch):
    monkeypatch.setattr(exterior, "RANDOM_FORM_TERMS", 5)
    for _ in range(20):
        xi = random_form(10, 2, RNG)
        eta = random_form(10, 3, RNG)
        zeta = random_form(10, 2, RNG)
        assert deviation(wedge(*wedge(*xi, *eta), *zeta), wedge(*xi, *wedge(*eta, *zeta))) <= 1e-12
        assert deviation(wedge(*xi, *eta), wedge(*eta, *xi), (-1) ** (2 * 3)) <= 1e-12


def test_random_trace_free_shape():
    a = random_trace_free(16, 3, RNG)
    assert a.shape == (3, 16, 16)
    assert np.abs(np.trace(a, axis1=1, axis2=2)).max() <= 1e-12
    assert np.abs(a - np.swapaxes(a, 1, 2)).max() <= 1e-15

import numpy as np
import pytest

import oracles
from cayleykit.exterior import (
    Form,
    duality_report,
    epsilon,
    hessian_action,
    hodge,
    indices_of,
    inner,
    interior,
    mask_of,
    merge_sign,
    random_form,
    random_trace_free,
    wedge,
)

RNG = np.random.default_rng(414213562)


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
        assert merge_sign(m1, m2) == expect


def test_wedge_against_dense_oracle():
    for n in (3, 4, 5):
        for p in range(0, n):
            for q in range(0, n - p + 1):
                if p + q > n:
                    continue
                for _ in range(5):
                    xi = random_form(n, p, RNG, terms=4)
                    eta = random_form(n, q, RNG, terms=4)
                    got = wedge(xi, eta)
                    want = oracles.wedge_dense(
                        oracles.dense_from_form(xi), oracles.dense_from_form(eta), n, p, q)
                    assert (got - oracles.form_from_dense(want, n, p + q)).sup_norm() <= 1e-12


def test_wedge_above_top_grade_vanishes():
    xi = random_form(4, 3, RNG)
    eta = random_form(4, 2, RNG)
    assert wedge(xi, eta).is_zero()


def test_interior_epsilon_hodge_against_dense_oracle():
    for n in (3, 4, 5):
        for p in range(0, n + 1):
            for _ in range(5):
                eta = random_form(n, p, RNG, terms=4)
                dense = oracles.dense_from_form(eta)
                for k in range(n):
                    if p >= 1:
                        want = oracles.interior_dense(k, dense, p)
                        got = interior(k, eta)
                        assert (got - oracles.form_from_dense(want, n, p - 1)).sup_norm() <= 1e-12
                    if p < n:
                        want = oracles.epsilon_dense(k, dense, n, p)
                        got = epsilon(k, eta)
                        assert (got - oracles.form_from_dense(want, n, p + 1)).sup_norm() <= 1e-12
                want = oracles.hodge_dense(dense, n, p)
                assert (hodge(eta) - oracles.form_from_dense(want, n, n - p)).sup_norm() <= 1e-12


def test_star_identities_full_dimension():
    n = 16
    for _ in range(200):
        p = int(RNG.integers(1, n))
        eta = random_form(n, p, RNG)
        k = int(RNG.integers(0, n))
        assert (hodge(hodge(eta)) - (-1) ** (p * (n - p)) * eta).sup_norm() <= 1e-12
        lhs = hodge(epsilon(k, eta))
        rhs = (-1) ** p * interior(k, hodge(eta))
        assert (lhs - rhs).sup_norm() <= 1e-12
        lhs = epsilon(k, hodge(eta))
        rhs = (-1) ** (p - 1) * hodge(interior(k, eta))
        assert (lhs - rhs).sup_norm() <= 1e-12
        lhs = hodge(epsilon(k, hodge(eta)))
        rhs = (-1) ** ((p - 1) * (n - p)) * interior(k, eta)
        assert (lhs - rhs).sup_norm() <= 1e-12


def test_contraction_anticommutator_full_dimension():
    n = 16
    for _ in range(100):
        p = int(RNG.integers(1, n))
        eta = random_form(n, p, RNG)
        k, m = (int(v) for v in RNG.integers(0, n, 2))
        got = interior(k, epsilon(m, eta)) + epsilon(m, interior(k, eta))
        want = eta if k == m else Form.zero(n, p)
        assert (got - want).sup_norm() <= 1e-12


def test_epsilon_interior_adjoint():
    n = 16
    for _ in range(100):
        p = int(RNG.integers(1, n + 1))
        eta = random_form(n, p, RNG)
        xi = random_form(n, p - 1, RNG)
        k = int(RNG.integers(0, n))
        assert abs(inner(epsilon(k, xi), eta) - inner(xi, interior(k, eta))) <= 1e-12


def test_inner_is_monomial_orthonormal():
    eta = Form(6, 2, {0b11: 2.0, 0b101: -3.0})
    assert inner(eta, eta) == pytest.approx(13.0)
    assert inner(Form(6, 2, {0b11: 1.0}), Form(6, 2, {0b101: 1.0})) == 0.0


def test_hessian_action_identity_and_trace():
    n = 8
    for p in (1, 3, 5):
        eta = random_form(n, p, RNG)
        ident = hessian_action(np.eye(n), eta)
        assert (ident - float(p) * eta).sup_norm() <= 1e-12
    a = random_trace_free(n, RNG)
    assert hessian_action(a, Form.volume(n)).sup_norm() <= 1e-12


def test_hessian_action_against_dense_oracle():
    for n in (3, 4, 5):
        for p in range(1, n + 1):
            a = RNG.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            eta = random_form(n, p, RNG, terms=4)
            want = oracles.hessian_dense(a, oracles.dense_from_form(eta), p)
            got = hessian_action(a, eta)
            assert (got - oracles.form_from_dense(want, n, p)).sup_norm() <= 1e-10


def test_duality_chain_signs_and_residuals():
    for n, p in ((4, 2), (8, 4), (16, 8)):
        rep = duality_report(n, p, 100, np.random.default_rng(7))
        assert rep["max"] <= 1e-12, (n, p, rep)
        assert rep["sign_direct"] == (-1) ** (p * (n - p - 1) + 1)
        assert rep["sign_codiff"] == (-1) ** ((p - 1) * (n - p))
        assert rep["sign_link"] == (-1) ** (n - 1)


def test_duality_chain_antisymmetric_matrix():
    # the chain never used symmetry of a, so the 2-form-symbol case
    # (antisymmetric coefficients) must satisfy the same identities
    from cayleykit.exterior import _star_chain

    n, p = 8, 4
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal((n, n))
        a = 0.5 * (a - a.T)
        omega = random_form(n, p, rng)
        t_form = hessian_action(a, omega)
        sign_direct = (-1) ** (p * (n - p - 1) + 1)
        sign_codiff = (-1) ** ((p - 1) * (n - p))
        # the direct chain needs only trace freeness, which antisymmetry
        # gives for free; the codifferential chain pairs through a^T
        assert (hodge(_star_chain(a, omega)) - sign_direct * t_form).sup_norm() <= 1e-12
        assert (_star_chain(a, hodge(omega)) + sign_codiff * t_form).sup_norm() <= 1e-12


def test_serialization_roundtrip_and_rejects():
    for _ in range(20):
        p = int(RNG.integers(0, 17))
        eta = random_form(16, p, RNG)
        back = Form.from_text(eta.to_text(), 16, p)
        assert (eta - back).sup_norm() == 0.0
    with pytest.raises(ValueError):
        Form.from_text("0,1:1.0\n0,2,3:2.0", 16)  # mixed grades
    with pytest.raises(ValueError):
        Form.from_text("0,99:1.0", 16)
    with pytest.raises(ValueError):
        Form.from_text("1,1:1.0", 16)
    with pytest.raises(ValueError):
        Form.from_text("0,1:not-a-number", 16)


def test_form_validation_and_algebra():
    with pytest.raises(ValueError):
        Form(4, 5, {})
    with pytest.raises(ValueError):
        Form(40, 1, {})
    with pytest.raises(ValueError):
        Form(4, 1, {0b11: 1.0})  # wrong popcount for the grade
    a = Form(4, 2, {mask_of((0, 1)): 2.0})
    b = Form(4, 2, {mask_of((1, 2)): 1.0})
    assert (a + b).coefficient((0, 1)) == 2.0
    assert (a - a).is_zero()
    assert (3.0 * a).coefficient((0, 1)) == 6.0
    with pytest.raises(ValueError):
        a + Form(4, 1, {mask_of((0,)): 1.0})
    with pytest.raises(ValueError):
        a + Form(5, 2, {mask_of((0, 1)): 1.0})


def test_wedge_associativity_and_sign_rule():
    for _ in range(20):
        xi = random_form(10, 2, RNG, terms=5)
        eta = random_form(10, 3, RNG, terms=5)
        zeta = random_form(10, 2, RNG, terms=5)
        assert (wedge(wedge(xi, eta), zeta) - wedge(xi, wedge(eta, zeta))).sup_norm() <= 1e-12
        swap = (-1) ** (xi.grade * eta.grade)
        assert (wedge(xi, eta) - swap * wedge(eta, xi)).sup_norm() <= 1e-12


def test_random_trace_free_shape():
    a = random_trace_free(16, RNG)
    assert a.shape == (16, 16)
    assert abs(np.trace(a)) <= 1e-12
    assert np.abs(a - a.T).max() <= 1e-15

import numpy as np
import pytest

from cayleykit.curvature import (
    ALPHA,
    N,
    PAIRS,
    SectionalCurvature,
    assemble_operator,
    bianchi_residual,
    bivector,
    bivector_matrix,
    pinch_extremes,
    polarized_tensor,
    roundtrip_residual,
    symmetry_residual,
)

RNG = np.random.default_rng(271828)
FORMULA = SectionalCurvature()
OP = assemble_operator(FORMULA)


def unit(i):
    v = np.zeros(N)
    v[i] = 1.0
    return v


def test_constants():
    assert N == 16
    assert ALPHA == -4.0
    assert len(PAIRS) == 120


def test_bivector_antisymmetry():
    x, y = RNG.standard_normal((2, N))
    w = bivector(x, y)
    assert np.allclose(w, -bivector(y, x))
    m = bivector_matrix(w)
    assert np.allclose(m, -m.T)
    assert np.allclose(m @ y, (y @ y) * x - (x @ y) * y)


def test_adapted_planes_hit_both_bounds():
    a, c = RNG.standard_normal((2, 50, 8))
    zeros = np.zeros((50, 8))
    same = FORMULA.plane_value(np.concatenate([a, zeros], 1), np.concatenate([c, zeros], 1))
    assert np.abs(same + 4.0).max() <= 1e-12
    second = FORMULA.plane_value(np.concatenate([zeros, a], 1), np.concatenate([zeros, c], 1))
    assert np.abs(second + 4.0).max() <= 1e-12
    mixed = FORMULA.plane_value(np.concatenate([a, zeros], 1), np.concatenate([zeros, c], 1))
    assert np.abs(mixed + 1.0).max() <= 1e-12


def test_sectional_pinched_on_random_planes():
    x, y = RNG.uniform(-1.0, 1.0, (2, 10000, N))
    k = FORMULA.plane_value(x, y)
    k = k[~np.isnan(k)]
    assert k.size > 9990
    assert k.min() >= -4.0 - 1e-9
    assert k.max() <= -1.0 + 1e-9


def test_plane_value_is_basis_invariant():
    for _ in range(50):
        x, y = RNG.standard_normal((2, N))
        k0 = FORMULA.plane_value(x, y)
        m = RNG.standard_normal((2, 2))
        while abs(np.linalg.det(m)) < 0.1:
            m = RNG.standard_normal((2, 2))
        x2 = m[0, 0] * x + m[0, 1] * y
        y2 = m[1, 0] * x + m[1, 1] * y
        assert FORMULA.plane_value(x2, y2) == pytest.approx(k0, abs=1e-9)


def test_degenerate_pairs():
    x = RNG.standard_normal(N)
    assert np.isnan(FORMULA.plane_value(x, 2.0 * x))
    assert FORMULA.biquadratic(x, 2.0 * x) == 0.0


def test_biquadratic_scales_with_gram():
    x, y = RNG.standard_normal((2, N))
    b1 = FORMULA.biquadratic(x, y)
    b2 = FORMULA.biquadratic(3.0 * x, y)
    assert b2 == pytest.approx(9.0 * b1, rel=1e-12)


def test_polarized_tensor_symmetries():
    for _ in range(20):
        x, y, z, w = RNG.standard_normal((4, N))
        r = polarized_tensor(FORMULA, x, y, z, w)
        assert polarized_tensor(FORMULA, y, x, z, w) == pytest.approx(-r, abs=1e-10)
        assert polarized_tensor(FORMULA, x, y, w, z) == pytest.approx(-r, abs=1e-10)
        assert polarized_tensor(FORMULA, z, w, x, y) == pytest.approx(r, abs=1e-10)
        cyc = (r + polarized_tensor(FORMULA, x, z, w, y)
               + polarized_tensor(FORMULA, x, w, y, z))
        assert cyc == pytest.approx(0.0, abs=1e-10)


def test_polarization_recovers_biquadratic():
    for _ in range(50):
        x, y = RNG.standard_normal((2, N))
        assert polarized_tensor(FORMULA, x, y, x, y) == pytest.approx(
            FORMULA.biquadratic(x, y), rel=1e-10, abs=1e-10)


def test_operator_matrix_properties():
    assert OP.matrix.shape == (120, 120)
    assert np.abs(OP.matrix - OP.matrix.T).max() == 0.0
    assert OP.assembly_asymmetry <= 1e-12
    # adapted pair diagonals: first-slot pairs carry -4, split pairs -1
    for (a, b) in ((0, 1), (3, 6)):
        idx = PAIRS.index((a, b))
        assert OP.matrix[idx, idx] == pytest.approx(-4.0, abs=1e-12)
    for (a, b) in ((0, 8), (5, 15)):
        idx = PAIRS.index((a, b))
        assert OP.matrix[idx, idx] == pytest.approx(-1.0, abs=1e-12)


def test_operator_tensor_symmetry_and_bianchi():
    assert symmetry_residual(OP, RNG, trials=300) <= 1e-10
    assert bianchi_residual(OP, RNG, trials=300) <= 1e-10


def test_operator_roundtrip_against_formula():
    assert roundtrip_residual(OP, FORMULA, RNG, trials=10000) <= 1e-9


def test_sectional_from_operator_matches_formula():
    x, y = RNG.standard_normal((2, 200, N))
    direct = FORMULA.plane_value(x, y)
    via_op = OP.sectional(x, y)
    assert np.nanmax(np.abs(direct - via_op)) <= 1e-9


def test_ricci_einstein_and_scalar():
    ric = OP.ricci()
    assert np.abs(ric + 36.0 * np.eye(N)).max() <= 1e-9
    assert np.trace(ric) == pytest.approx(-576.0, abs=1e-8)


def test_jacobi_spectrum_structure():
    for u in (unit(0), unit(9), None):
        if u is None:
            u = RNG.standard_normal(N)
            u /= np.linalg.norm(u)
        lam = np.sort(OP.jacobi_spectrum(u))
        expect = np.sort(np.array([-4.0] * 7 + [-1.0] * 8 + [0.0]))
        assert np.abs(lam - expect).max() <= 1e-8
        # the zero eigenvalue belongs to the direction itself
        jac = OP.jacobi_matrix(u)
        assert np.abs(jac @ u).max() <= 1e-9


def test_alpha_scaling_linearity():
    doubled = assemble_operator(SectionalCurvature(alpha=2.0 * ALPHA))
    assert np.abs(doubled.matrix - 2.0 * OP.matrix).max() <= 1e-9


def test_swapped_reading_is_isometric():
    swapped = assemble_operator(SectionalCurvature(swap_products=True))
    assert np.abs(swapped.ricci() - OP.ricci()).max() <= 1e-9
    u = RNG.standard_normal(N)
    u /= np.linalg.norm(u)
    assert np.abs(np.sort(swapped.jacobi_spectrum(u)) - np.sort(OP.jacobi_spectrum(u))).max() <= 1e-8
    assert bianchi_residual(swapped, RNG, trials=100) <= 1e-10
    # yet the readings are genuinely different tensors
    x, y = RNG.standard_normal((2, 500, N))
    gap = np.nanmax(np.abs(
        SectionalCurvature().plane_value(x, y)
        - SectionalCurvature(swap_products=True).plane_value(x, y)))
    assert gap > 0.1


def test_operator_export_roundtrip(tmp_path):
    path = tmp_path / "operator.csv"
    OP.export_csv(path)
    back = np.loadtxt(path, delimiter=",")
    assert back.shape == (120, 120)
    assert np.abs(back - OP.matrix).max() == 0.0


def test_pinch_extremes_reach_bounds():
    res = pinch_extremes(OP, starts=32, max_steps=4000, seed=5)
    assert res.minimum == pytest.approx(-4.0, abs=1e-6)
    assert res.maximum == pytest.approx(-1.0, abs=1e-6)
    assert res.final_values.shape == (64,)
    x, y = res.min_plane
    assert abs(x @ y) <= 1e-8
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-8


def test_adapted_plane_is_stationary():
    # perturbing an extremal plane changes the value only at second order
    x0 = np.concatenate([np.ones(8) / np.sqrt(8.0), np.zeros(8)])
    y0 = np.concatenate([np.zeros(8), np.ones(8) / np.sqrt(8.0)])
    base = FORMULA.plane_value(x0, y0)
    assert base == pytest.approx(-1.0, abs=1e-12)
    eps = 1e-4
    for _ in range(50):
        dx, dy = RNG.standard_normal((2, N))
        val = FORMULA.plane_value(x0 + eps * dx, y0 + eps * dy)
        assert abs(val - base) <= 200.0 * eps**2

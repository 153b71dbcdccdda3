import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from cayleykit import curvature, octonion
from cayleykit.curvature import (
    ALPHA,
    N,
    SectionalCurvature,
    assemble_operator,
    bianchi_residual,
    bivector,
    bivector_matrix,
    pinch_extremes,
    roundtrip_residual,
    sweep_planes,
)

RNG = np.random.default_rng(271828)
PAIRS = [(a, b) for a in range(N) for b in range(a + 1, N)]  # the bivector monomials, in order
FORMULA = SectionalCurvature()
OP = assemble_operator()
MIRRORED = SectionalCurvature(swap_products=True)


@pytest.fixture(scope="module")
def mirrored_oracle():
    return oracles.polarized_operator(MIRRORED)


def unit(i):
    v = np.zeros(N)
    v[i] = 1.0
    return v


def test_constants():
    assert N == 16
    assert ALPHA == -4.0
    # the monomial order of the bivector coordinates, the operator and spin9_generators
    assert list(zip(curvature._ROWS.tolist(), curvature._COLS.tolist())) == PAIRS
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
    assert oracles.biquadratic(FORMULA, x, 2.0 * x) == 0.0


def test_biquadratic_scales_with_gram():
    x, y = RNG.standard_normal((2, N))
    b1 = oracles.biquadratic(FORMULA, x, y)
    b2 = oracles.biquadratic(FORMULA, 3.0 * x, y)
    assert b2 == pytest.approx(9.0 * b1, rel=1e-12)


def test_polarized_tensor_symmetries():
    for _ in range(20):
        x, y, z, w = RNG.standard_normal((4, N))
        r = oracles.polarized_tensor(FORMULA, x, y, z, w)
        assert oracles.polarized_tensor(FORMULA, y, x, z, w) == pytest.approx(-r, abs=1e-10)
        assert oracles.polarized_tensor(FORMULA, x, y, w, z) == pytest.approx(-r, abs=1e-10)
        assert oracles.polarized_tensor(FORMULA, z, w, x, y) == pytest.approx(r, abs=1e-10)
        cyc = (r + oracles.polarized_tensor(FORMULA, x, z, w, y)
               + oracles.polarized_tensor(FORMULA, x, w, y, z))
        assert cyc == pytest.approx(0.0, abs=1e-10)


def test_polarization_recovers_biquadratic():
    for _ in range(50):
        x, y = RNG.standard_normal((2, N))
        assert oracles.polarized_tensor(FORMULA, x, y, x, y) == pytest.approx(
            oracles.biquadratic(FORMULA, x, y), rel=1e-10, abs=1e-10)


def test_operator_matrix_properties():
    assert OP.matrix.shape == (120, 120)
    assert np.abs(OP.matrix - OP.matrix.T).max() == 0.0
    # adapted pair diagonals: first-slot pairs carry -4, split pairs -1
    for (a, b) in ((0, 1), (3, 6)):
        idx = PAIRS.index((a, b))
        assert OP.matrix[idx, idx] == pytest.approx(-4.0, abs=1e-12)
    for (a, b) in ((0, 8), (5, 15)):
        idx = PAIRS.index((a, b))
        assert OP.matrix[idx, idx] == pytest.approx(-1.0, abs=1e-12)


def test_closed_form_matches_polarized_oracle(mirrored_oracle):
    # -8 times the projector onto spin(9), and the polarized octonion formula
    assert np.abs(oracles.polarized_operator(FORMULA).matrix - OP.matrix).max() <= 1e-14
    spectrum = np.linalg.eigvalsh(OP.matrix)
    assert np.abs(spectrum - np.repeat([-8.0, 0.0], [36, 84])).max() <= 1e-12
    # the mirrored reading has the same spectrum but is another tensor
    assert np.abs(mirrored_oracle.matrix - OP.matrix).max() > 1.0


def test_operator_tensor_symmetry_and_bianchi():
    # the pair symmetry R(x, y, z, w) = R(z, w, x, y) is the symmetry of the matrix
    assert np.abs(OP.matrix - OP.matrix.T).max() == 0.0
    x, y, z, w = RNG.uniform(-1.0, 1.0, (4, 300, N))
    xy, zw = bivector(x, y), bivector(z, w)
    pairs = oracles.operator_pairing(OP.matrix, xy, zw)
    assert np.abs(pairs - oracles.operator_pairing(OP.matrix, zw, xy)).max() <= 1e-10
    assert bianchi_residual(OP, RNG, trials=300) <= 1e-10


def test_bianchi_residual_sees_a_non_curvature_operator():
    # a random symmetric matrix has the pair symmetry but not the first Bianchi identity
    noise = RNG.standard_normal(OP.matrix.shape)
    fake = curvature.CurvatureOperator(OP.matrix + 1e-3 * (noise + noise.T))
    assert bianchi_residual(fake, RNG, trials=50) > 1e-5


def test_operator_roundtrip_against_formula():
    sweep = sweep_planes(OP, RNG, planes=10000)
    assert sweep.roundtrip <= 1e-9
    assert 9990 < sweep.planes <= 10000
    # both readings are pinched in [-4, -1], and random planes come close to neither end
    for low, high in (sweep.formula_range, sweep.mirrored_range):
        assert -4.0 - 1e-9 <= low < -3.0 and -2.0 < high <= -1.0 + 1e-9


def test_roundtrip_blocks_do_not_change_the_residual(monkeypatch):
    trials = 3 * 16384 + 7
    sweeps = []
    for rows in (1000, trials + 1):
        monkeypatch.setattr(octonion, "MUL_BLOCK_ROWS", rows)
        sweeps.append(sweep_planes(OP, np.random.default_rng(3), trials))
    assert sweeps[0] == sweeps[1]
    assert sweeps[0].roundtrip > 0.0


def test_roundtrip_skips_degenerate_blocks(monkeypatch):
    # no Gram determinant exceeds |x|^2 |y|^2: every plane counts as degenerate
    monkeypatch.setattr(curvature, "DEGENERATE_GRAM", 2.0)
    sweep = sweep_planes(OP, RNG, planes=100)
    assert sweep.roundtrip == 0.0 and sweep.planes == 0
    assert sweep.formula_range == sweep.mirrored_range == (np.inf, -np.inf)


def test_roundtrip_peak_memory():
    tracemalloc.start()
    try:
        sweep_planes(OP, np.random.default_rng(4), planes=40_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def warm_minor_faults(setup: str, call: str) -> int:
    """Minor faults of a second ``call`` after ``setup`` and a first one, in a fresh
    interpreter: once larger arrays have been freed the allocator keeps such blocks, and
    the faults of arrays made anew no longer show."""
    script = (f"import resource\n{setup}\n{call}\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              f"{call}\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return int(proc.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor faults as Linux reports them")
def test_warm_sweep_reuses_its_block_arrays():
    # a warm 40,000-plane sweep takes about 500 minor faults; one taking a new (2, 1024, 120)
    # work array in every block took about 2,000, and one allocating all its (rows, 120)
    # arrays anew in every block about 34,000, its freed blocks going back to the system
    setup = ("import numpy as np\n"
             "from cayleykit.curvature import assemble_operator, sweep_planes\n"
             "op = assemble_operator()")
    call = "sweep_planes(op, np.random.default_rng(4), planes=40_000)"
    assert warm_minor_faults(setup, call) < 1000


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor faults as Linux reports them")
def test_warm_octonion_suite_reuses_its_block_arrays():
    # a warm 200,000-pair call takes about 180 minor faults; one computing its nine products
    # into new arrays in every block took 19,000-60,000, its traced peak staying under the
    # bound of the octonion peak test
    setup = ("from cayleykit.suites import RunConfig, suite_octonion\n"
             "cfg = RunConfig(trials=200_000)")
    assert warm_minor_faults(setup, "assert suite_octonion(cfg).passed") < 5000


def test_formula_is_the_operator_quadratic_form_exactly():
    # on integer pairs in [-64, 64] every value stays below 2^53, so both routes are exact:
    # the formula has bidegree (2, 2) and needs no orthonormal frame to be <R(x ^ y), x ^ y>
    x, y = np.random.default_rng(6).integers(-64, 65, (2, 10_000, N)).astype(float)
    assert np.array_equal(FORMULA.quadratic(x, y), OP.quadratic(x, y))
    # one flipped table sign reaches both routes, and they part
    sign = octonion.DEFAULT_TABLE.sign.copy()
    sign[1, 2] = -sign[1, 2]
    table = octonion.MultiplicationTable(sign, octonion.DEFAULT_TABLE.index)
    assert not np.array_equal(SectionalCurvature(table=table).quadratic(x, y),
                              assemble_operator(table).quadratic(x, y))


def test_sectional_from_operator_matches_formula():
    x, y = RNG.standard_normal((2, 200, N))
    direct = FORMULA.plane_value(x, y)
    gram = np.sum(x * x, axis=-1) * np.sum(y * y, axis=-1) - np.sum(x * y, axis=-1) ** 2
    assert np.nanmax(np.abs(direct - OP.quadratic(x, y) / gram)) <= 1e-9
    work = np.empty((2, 200, len(PAIRS)))
    assert roundtrip_residual(OP, x, y, FORMULA.quadratic(x, y), gram, gram > 0, work) <= 1e-9


def test_operator_forms_match_einsum_oracle():
    x, y = RNG.standard_normal((2, 300, N))
    x, y = (t / np.linalg.norm(t, axis=-1, keepdims=True) for t in (x, y))
    m = OP.matrix
    assert np.abs(OP.quadratic(x, y)
                  - oracles.operator_pairing(m, bivector(x, y), bivector(x, y))).max() <= 1e-12
    eye = np.eye(N)
    u = x[0]
    jac = oracles.frame_matrix(m, bivector(eye, np.broadcast_to(u, (N, N))))
    assert np.abs(OP.jacobi_matrix(u) - jac).max() <= 1e-12
    ric = sum(oracles.frame_matrix(m, bivector(eye, np.broadcast_to(eye[a], (N, N)))) for a in range(N))
    assert np.abs(OP.ricci() - ric).max() <= 1e-12


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


def test_jacobi_matrix_batches_over_directions():
    u = RNG.standard_normal((5, N))
    stacked = OP.jacobi_matrix(u)
    assert stacked.shape == (5, N, N)
    for row, mat in zip(u, stacked):
        assert np.abs(mat - OP.jacobi_matrix(row)).max() <= 1e-13


def test_alpha_scaling_linearity(monkeypatch):
    monkeypatch.setattr(curvature, "ALPHA", 2.0 * ALPHA)
    doubled = assemble_operator()
    assert np.abs(doubled.matrix - 2.0 * OP.matrix).max() <= 1e-9


def test_swapped_reading_is_isometric(mirrored_oracle):
    assert np.abs(mirrored_oracle.ricci() - OP.ricci()).max() <= 1e-9
    u = RNG.standard_normal(N)
    u /= np.linalg.norm(u)
    assert np.abs(np.sort(mirrored_oracle.jacobi_spectrum(u))
                  - np.sort(OP.jacobi_spectrum(u))).max() <= 1e-8
    assert bianchi_residual(mirrored_oracle, RNG, trials=100) <= 1e-10
    # yet the readings are genuinely different tensors
    x, y = RNG.standard_normal((2, 500, N))
    gap = np.nanmax(np.abs(FORMULA.plane_value(x, y) - MIRRORED.plane_value(x, y)))
    assert gap > 0.1


def test_operator_and_formula_take_the_table():
    # a flipped table sign reaches both routes, so they no longer agree and Bianchi fails
    sign = octonion.DEFAULT_TABLE.sign.copy()
    sign[3, 5] = -sign[3, 5]
    table = octonion.MultiplicationTable(sign, octonion.DEFAULT_TABLE.index)
    assert np.array_equal(assemble_operator(octonion.DEFAULT_TABLE).matrix, OP.matrix)
    op = assemble_operator(table)
    assert np.abs(op.matrix - OP.matrix).max() > 0.1
    assert bianchi_residual(op, np.random.default_rng(2), trials=50) > 0.1
    x, y = RNG.standard_normal((2, 200, N))
    assert np.nanmax(np.abs(SectionalCurvature(table=table).plane_value(x, y)
                            - FORMULA.plane_value(x, y))) > 0.1
    assert sweep_planes(op, np.random.default_rng(3), 2000, table).roundtrip > 0.1
    assert sweep_planes(OP, np.random.default_rng(3), 2000).roundtrip <= 1e-9


def test_operator_export_roundtrip(tmp_path):
    path = tmp_path / "operator.csv"
    OP.export_csv(path)
    back = np.loadtxt(path, delimiter=",")
    assert back.shape == (120, 120)
    assert np.abs(back - OP.matrix).max() == 0.0


def test_pinch_extremes_reach_bounds(monkeypatch):
    monkeypatch.setattr(curvature, "PINCH_STARTS", 32)  # read at call time
    res = pinch_extremes(OP, np.random.default_rng(5))
    assert res.minimum == pytest.approx(-4.0, abs=1e-12)
    assert res.maximum == pytest.approx(-1.0, abs=1e-12)
    assert res.final_values.shape == (64,)
    # every start reaches both ends: -4 and -1 are eigenvalues of every J_x on x-perp
    assert np.abs(res.final_values - np.repeat([-4.0, -1.0], 32)).max() <= 1e-12
    x, y = res.witnesses
    assert x.shape == y.shape == (64, N)
    # the witnesses are orthonormal pairs, and the formula gives the eigenvalues there
    assert np.abs(np.einsum("si,si->s", x, y)).max() <= 1e-12
    assert np.abs(np.linalg.norm(y, axis=-1) - 1.0).max() <= 1e-12
    assert np.abs(FORMULA.plane_value(x, y) - res.final_values).max() <= 1e-12


def test_pinch_witnesses_see_the_mirrored_reading():
    # the mirrored reading has the same spectrum, but another value on the witness planes
    res = pinch_extremes(OP, np.random.default_rng(1))
    assert np.abs(MIRRORED.plane_value(*res.witnesses) - res.final_values).max() > 0.1


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

"""Top-level acceptance gate.

One test per headline claim of the toolkit, with the tolerance pinned in
the assertion.  Each test ends by printing a single PASS line with the
measured numbers; pytest -v gives the pass/fail record per claim.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import scipy.integrate

import oracles
from cayleykit import curvature, exterior, forms, geodesy, kernels, octonion


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cayleykit.cli", *map(str, args)],
        capture_output=True, text=True, timeout=240)


def test_octonion_algebra_axioms():
    rng = np.random.default_rng(101)
    a = rng.uniform(-1.0, 1.0, (100000, 8))
    b = rng.uniform(-1.0, 1.0, (100000, 8))
    ab = octonion.mul_arrays(a, b)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)

    def rel(diff, scale):
        return float(np.abs(diff).max() / max(1.0, np.abs(scale).max()))

    worst = max(
        # alternative laws
        rel(octonion.mul_arrays(a, ab) - octonion.mul_arrays(octonion.mul_arrays(a, a), b), ab),
        rel(octonion.mul_arrays(ab, b) - octonion.mul_arrays(a, octonion.mul_arrays(b, b)), ab),
        # conjugation reverses products
        rel(octonion.conj_arrays(ab)
            - octonion.mul_arrays(octonion.conj_arrays(b), octonion.conj_arrays(a)), ab),
        # a a* is the squared norm times the unit
        rel(octonion.mul_arrays(a, octonion.conj_arrays(a))
            - np.concatenate([(na**2)[:, None], np.zeros((len(a), 7))], axis=1), na**2),
        # the norm is multiplicative
        float(np.abs(np.linalg.norm(ab, axis=-1) / (na * nb) - 1.0).max()),
    )
    assert worst <= 1e-12
    print(f"PASS octonion axioms: worst relative residual {worst:.2e} "
          f"over 100000 pairs (tol 1e-12)")


def test_hodge_star_identities():
    rng = np.random.default_rng(202)
    ex = exterior

    def flip(sign_exponent, batch):
        return batch[0], -(1.0 - 2.0 * (sign_exponent % 2)) * batch[1]

    def worst(n, p, k, m, masks, coeffs):
        star = ex.hodge(n, masks, coeffs)
        contracted = ex.interior(k, masks, coeffs)
        anti = np.where(k == m, -coeffs, 0.0)
        return max(
            ex.residual(ex.hodge(n, *star), flip(p * (n - p), (masks, coeffs))),
            ex.residual(ex.hodge(n, *ex.epsilon(k, masks, coeffs)), flip(p, ex.interior(k, *star))),
            ex.residual(ex.epsilon(k, *star), flip(p - 1, ex.hodge(n, *contracted))),
            ex.residual(ex.hodge(n, *ex.epsilon(k, *star)), flip((p - 1) * (n - p), contracted)),
            ex.residual(ex.interior(k, *ex.epsilon(m, masks, coeffs)), ex.epsilon(m, *contracted),
                        (masks, anti)),
        )

    # every monomial of every n <= 6 with every (k, m), one batch row each
    results = []
    for n in range(1, 7):
        mask, k, m = (a.reshape(-1, 1) for a in np.meshgrid(np.arange(1 << n), np.arange(n),
                                                          np.arange(n), indexing="ij"))
        p = np.bitwise_count(mask).astype(int)
        results.append(worst(n, p, k, m, mask, np.ones(mask.shape)))
    cases = sum(n * n << n for n in range(1, 7))
    p = rng.integers(1, 16, (1000, 1))
    k, m, j = rng.integers(0, 16, (3, 1000, 1))
    eta = ex.random_forms(16, p[:, 0], rng)
    xi = ex.random_forms(16, p[:, 0] - 1, rng)
    results.append(worst(16, p, k, m, *eta))
    results.append(np.abs(ex.inner(*ex.epsilon(j, *xi), *eta) - ex.inner(*xi, *ex.interior(j, *eta))).max())
    cases += 1000
    worst_all = max(results)
    assert worst_all <= 1e-12
    print(f"PASS Hodge identities: worst residual {worst_all:.2e} over {cases} "
          f"exhaustive and random cases (tol 1e-12)")


def test_trace_free_duality_chain():
    rng = np.random.default_rng(303)
    worst = 0.0
    for n, p in ((4, 2), (8, 4), (16, 8)):
        rep = exterior.duality_report(n, p, 100, rng)
        worst = max(worst, rep["max"])
    assert worst <= 1e-12
    print(f"PASS duality chain: worst residual {worst:.2e} at grades "
          f"(4,2), (8,4), (16,8), 100 trace-free jets each (tol 1e-12)")


def test_curvature_model():
    rng = np.random.default_rng(404)
    formula = curvature.SectionalCurvature()
    op = curvature.assemble_operator()

    sym = float(np.abs(op.matrix - op.matrix.T).max())
    bianchi = curvature.bianchi_residual(op, rng, trials=300)
    assert sym <= 1e-10 and bianchi <= 1e-10

    a, c = rng.standard_normal((2, 100, 8))
    zeros = np.zeros((100, 8))
    slot = formula.plane_value(np.concatenate([a, zeros], 1), np.concatenate([c, zeros], 1))
    mixed = formula.plane_value(np.concatenate([a, zeros], 1), np.concatenate([zeros, c], 1))
    assert np.abs(slot + 4.0).max() <= 1e-9
    assert np.abs(mixed + 1.0).max() <= 1e-9

    x, y = rng.uniform(-1.0, 1.0, (2, 10000, 16))
    vals = formula.plane_value(x, y)
    assert np.all(vals >= -4.0 - 1e-9) and np.all(vals <= -1.0 + 1e-9)

    pinch = curvature.pinch_extremes(op, starts=16, seed=0)
    assert abs(pinch.minimum + 4.0) <= 1e-9
    assert abs(pinch.maximum + 1.0) <= 1e-9
    witness = float(np.abs(formula.plane_value(*pinch.witnesses) - pinch.final_values).max())
    assert witness <= 1e-9

    ricci = np.abs(op.ricci() + 36.0 * np.eye(16)).max()
    assert ricci <= 1e-9

    target = np.array([-4.0] * 7 + [-1.0] * 8 + [0.0])
    jac = 0.0
    for _ in range(100):
        u = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        jac = max(jac, float(np.abs(np.sort(op.jacobi_spectrum(u)) - target).max()))
    assert jac <= 1e-9
    print(f"PASS curvature model: symmetry {sym:.2e}, Bianchi {bianchi:.2e} "
          f"(tol 1e-10); 10000 planes in [-4,-1]; extremes "
          f"({pinch.minimum:.8f}, {pinch.maximum:.8f}) within 1e-9, formula at the "
          f"witness planes within {witness:.1e}; "
          f"Ricci+36I {ricci:.2e}, Jacobi spectrum off by {jac:.2e} (tol 1e-9)")


def test_radial_geometry_consistency():
    worst = 0.0
    for r in (0.5, 1.0, 2.0, 5.0):
        direct = 14.0 / np.tanh(2.0 * r) + 8.0 / np.tanh(r)
        closed = geodesy.distance_laplacian(r)

        def dlog(h):
            return (geodesy.log_area(r + h) - geodesy.log_area(r - h)) / (2.0 * h)

        fd = (4.0 * dlog(5e-5) - dlog(1e-4)) / 3.0
        worst = max(worst, abs(direct - closed), abs(fd - closed))
    assert worst <= 1e-8

    quad = 0.0
    for c, length in ((2.0, 1.0), (1.0, 1.5), (2.0, 0.7)):
        s = np.sinh(c * length)

        def integrand(t):
            return (c * np.cosh(c * t) / s) ** 2 + c**2 * (np.sinh(c * t) / s) ** 2

        value = scipy.integrate.quad(integrand, 0.0, length, epsabs=1e-13, epsrel=1e-13)[0]
        quad = max(quad, abs(value - c / np.tanh(c * length)),
                   abs(value - geodesy.hessian_eigenvalue(c, length)),
                   abs(value - geodesy.index_form(c, length, geodesy.QUAD_NODES)))
    assert quad <= 1e-8
    print(f"PASS radial geometry: Laplacian routes agree to {worst:.2e} at "
          f"r in (0.5, 1, 2, 5); index-form quadrature off c coth(cL) by "
          f"{quad:.2e} (tol 1e-8)")


def test_spectrum_bottom():
    t0 = time.monotonic()
    at10 = geodesy.dirichlet_value(10.0)
    exact = geodesy.jacobi_dirichlet(10.0)
    elapsed = time.monotonic() - t0
    assert geodesy.spectrum_bottom() == 121.0
    assert at10.converged
    assert abs(at10.value - exact) <= 1e-10 * exact
    # the finite-difference Richardson value, a third route, is off by its own h^4 term
    fd = oracles.fd_richardson(10.0, 8000)
    assert abs(fd - at10.value) <= 1e-7

    values = [geodesy.dirichlet_value(r).value for r in (4.0, 6.0, 8.0, 10.0)]
    assert all(values[i] > values[i + 1] for i in range(3))
    assert min(values) > 121.0
    print(f"PASS spectrum: R=10 collocation {at10.value:.12f} (N={at10.nodes}), Jacobi "
          f"{exact:.12f}, FD Richardson off by {fd - at10.value:.1e}, in {elapsed * 1e3:.0f} ms; "
          f"monotone over R=4..10 down to {min(values):.6f} > rho^2 = 121")


def test_splitting_metric():
    rep = geodesy.warped_report()
    # fd_residual compares the finite-difference curvature with -c^2 per class
    assert rep.fd_residual <= 1e-6
    assert abs(rep.mean_curvature + 22.0) <= 1e-12
    assert rep.hessian_diagonal == (-2.0,) * 7 + (-1.0,) * 8
    assert abs(rep.hessian_norm_sq - 36.0) <= 1e-12
    print(f"PASS splitting metric: radial curvatures -4 x7 and -1 x8, finite "
          f"differences off by {rep.fd_residual:.2e} (tol 1e-6); mean curvature "
          f"-22; squared Hessian 36")


def test_parallel_form_constraint_extraction():
    for n in (2, 4):
        got = forms.standard_constraints("kahler", n)
        want = forms.diagonal_rows(2 * n, [(i, i + n) for i in range(n)])
        assert np.array_equal(got.rows, want)
    for n in (1, 2):
        got = forms.standard_constraints("quaternionic", n)
        want = forms.diagonal_rows(4 * n, [range(i, 4 * n, n) for i in range(n)])
        assert np.array_equal(got.rows, want)

    phi = forms.spin9_form()
    (masks,), (coeffs,) = phi
    assert masks.size == 702
    assert coeffs[np.isin(masks, forms.spin9_targets())].tolist() == [-1.0, 1.0]
    expect = -forms.diagonal_rows(forms.SPIN9_DIM, [range(8)])[0]
    func = forms.monomial_functionals(forms.SPIN9_DIM, *phi, [forms.V_TOP])[0]
    assert np.array_equal(func, expect)
    leak = forms.no_leak_report(*phi)
    assert leak == 0.0
    print(f"PASS constraint extraction: Kahler and quaternionic functionals "
          f"exact; the Cayley form's top coefficient is minus the first diagonal "
          f"block sum, and its 700 other terms leak {leak:g} into either top "
          f"over 256 pairs")


def test_bochner_kernel_ratios():
    expected = (
        (kernels.RatioProblem(8, forms.standard_constraints("kahler", 4).rows), Fraction(2, 1)),
        (kernels.RatioProblem(8, forms.standard_constraints("quaternionic", 2).rows),
         Fraction(4, 3)),
        (kernels.RatioProblem(16, forms.standard_constraints("spin9").rows), Fraction(8, 7)),
    )
    gap = 0.0
    for prob, want in expected:
        res = kernels.min_bochner_ratio(prob)
        assert res.rational == want and kernels.certify_ratio(prob, want) is None
        gap = max(gap, abs(res.eigen_ratio - float(want)))
    assert gap <= 1e-9

    spin9_prob, _ = expected[2]
    res = kernels.min_bochner_ratio(spin9_prob)
    canon = kernels.canonical_minimizer(res.minimizer)
    off = np.abs(canon - np.diag([-7.0] + [1.0] * 7 + [0.0] * 8)).max()
    assert off <= 1e-9

    t = kernels.kato_transform(Fraction(8, 7))
    assert t.exponent == 6.0 / 7.0 and t.drift == 216.0 / 7.0
    print(f"PASS kernel ratios: 2, 4/3, 8/7 certified exactly, eigen route off by {gap:.2e} "
          f"(tol 1e-9); minimizer diag(-7, 1 x7, 0 x8) off by {off:.2e}; "
          f"transform exponent 6/7 with drift 216/7")


def test_cli_determinism_and_corruption(tmp_path):
    args = ("verify", "octonion", "forms", "--seed", 5, "--trials", 2000)
    first = run_cli(*args, "--out", tmp_path / "a")
    second = run_cli(*args, "--out", tmp_path / "b")
    assert first.returncode == 0 and second.returncode == 0
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    ra.pop("timing"), rb.pop("timing")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    path = tmp_path / "table.csv"
    octonion.DEFAULT_TABLE.save(path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[2][6] = str(-int(rows[2][6]))
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    bad = run_cli("verify", "--mul-table", path, "--trials", 2000)
    assert bad.returncode == 1
    assert "octonion.table-closure" in bad.stdout
    print("PASS command line: reports byte-identical up to the timing entry; "
          "corrupted table exits 1 naming octonion.table-closure")

import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import oracles
from cayleykit import geodesy
from cayleykit.geodesy import (
    CLASSES,
    SturmLiouvilleProblem,
    area,
    distance_laplacian,
    hessian_eigenvalue,
    inverse_iteration,
    jacobi_profile,
    log_area,
    log_sinh,
    smallest_eigenvalue,
    spectrum_estimate,
    spectrum_sweep,
    warped_report,
)


def test_model_constants():
    # dimension 1 + 15 and volume entropy 22 = sum of c * multiplicity
    assert CLASSES == ((2.0, 7), (1.0, 8))
    assert 1 + sum(m for _, m in CLASSES) == 16
    assert sum(c * m for c, m in CLASSES) == 22.0


def test_laplacian_frozen_value():
    # 14 coth 2 + 8 coth 1, frozen from high precision evaluation
    assert distance_laplacian(1.0) == pytest.approx(25.026688374180324, abs=1e-13)


def test_laplacian_limits_and_monotonicity():
    assert abs(distance_laplacian(20.0) - 22.0) <= 1e-12
    assert abs(1e-4 * distance_laplacian(1e-4) - 15.0) <= 1e-6
    rs = np.linspace(0.05, 12.0, 400)
    vals = np.array([distance_laplacian(r) for r in rs])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 22.0)


def test_laplacian_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        distance_laplacian(0.0)
    with pytest.raises(ValueError):
        distance_laplacian(-1.0)


def test_log_sinh_stable_everywhere():
    for x in (1e-8, 0.5, 5.0, 50.0, 500.0, 5000.0):
        ref = np.log(np.sinh(x)) if x < 300 else x - np.log(2.0)
        assert log_sinh(x) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError):
        log_sinh(0.0)


def test_consistency_triangle():
    for r in (0.25, 0.5, 1.0, 2.0, 5.0):
        closed = distance_laplacian(r)
        index_sum = sum(m * hessian_eigenvalue(c, r) for c, m in CLASSES)
        h = 1e-6
        area_route = (log_area(r + h) - log_area(r - h)) / (2.0 * h)
        assert closed == pytest.approx(index_sum, abs=1e-10)
        assert closed == pytest.approx(area_route, abs=1e-7)


def test_index_form_quadrature_against_scipy():
    for c, _ in CLASSES:
        for L in (0.5, 1.0, 2.0):
            def energy(t):
                fp = c * np.cosh(c * t) / np.sinh(c * L)
                return fp**2 + c**2 * jacobi_profile(c, L, t) ** 2
            own = geodesy.index_form(c, L, geodesy.QUAD_NODES)
            ref = scipy.integrate.quad(energy, 0.0, L, epsabs=1e-13, epsrel=1e-13)[0]
            assert own == pytest.approx(ref, abs=1e-9)
            assert own == pytest.approx(hessian_eigenvalue(c, L), abs=1e-9)


def test_jacobi_profile_solves_the_ode():
    # f'' = c^2 f with f(0) = 0, f(L) = 1, integrated independently
    for c, L in ((2.0, 1.0), (1.0, 2.0)):
        def rhs(t, y):
            return [y[1], c * c * y[0]]
        slope = c / np.sinh(c * L)  # analytic initial slope
        sol = scipy.integrate.solve_ivp(rhs, (0.0, L), [0.0, slope],
                                        rtol=1e-11, atol=1e-13, dense_output=True)
        for t in np.linspace(0.0, L, 17):
            assert sol.sol(t)[0] == pytest.approx(jacobi_profile(c, L, t), abs=1e-8)


def test_area_small_radius_power_law():
    # A(r) ~ 2^7 r^15 as r -> 0, with an O(r^2) correction
    for r in (1e-3, 1e-2):
        assert area(r) / (128.0 * r**15) == pytest.approx(1.0, abs=100.0 * r * r)


def test_area_growth_rate_long_range():
    assert abs(log_area(50.0) / 50.0 - 22.0) / 22.0 <= 0.01
    # the derivative of log A is exactly the distance Laplacian
    for r in (0.7, 3.0, 20.0):
        h = 1e-6
        fd = (log_area(r + h) - log_area(r - h)) / (2.0 * h)
        assert fd == pytest.approx(distance_laplacian(r), abs=1e-7)


def test_volume_against_scipy_quad():
    # A spans ~30 orders of magnitude on (0, 2): the comparison must be relative; the volume
    # in closed form expands sinh(2s)^7 sinh(s)^8 into exponentials e^{k s}
    terms = [((-1) ** (i + j) * math.comb(7, i) * math.comb(8, j) / 2**15, 14 - 4 * i + 8 - 2 * j)
             for i in range(8) for j in range(9)]
    for r in (1.0, 2.0):
        closed = math.fsum(w * (math.expm1(k * r) / k if k else r) for w, k in terms)
        vol = scipy.integrate.quad(lambda s: area(s), 0.0, r, epsabs=0.0, epsrel=1e-12)[0]
        assert vol == pytest.approx(closed, rel=1e-9)


def test_tridiagonal_assembly_finite_at_large_radius():
    # ratio-based assembly must not overflow even when A(R) ~ e^{22 R}
    prob = SturmLiouvilleProblem(40.0, 2000)
    d, e = prob.tridiagonal()
    assert np.all(np.isfinite(d))
    assert np.all(np.isfinite(e))
    lam = smallest_eigenvalue(d, e)
    assert 120.9 <= lam <= 123.0


def test_sturm_solver_against_lapack():
    for radius, cells in ((4.0, 1000), (8.0, 2000), (10.0, 3000), (40.0, 2000)):
        d, e = SturmLiouvilleProblem(radius, cells).tridiagonal()
        lam = smallest_eigenvalue(d, e)
        # the Sturm sequence puts exactly the lowest eigenvalue within 1e-9 of lam
        assert list(oracles.sturm_count(d, e, [lam - 1e-9, lam + 1e-9])) == [0, 1]
        # Cholesky + bidiagonal QR, the second relatively accurate LAPACK route
        evals, _, _, info = scipy.linalg.lapack.dpteqr(d, e, np.zeros((1, 1)), compute_z=0)
        assert info == 0
        assert lam == pytest.approx(evals.min(), abs=1e-9)


def test_inverse_iteration_matches_bisection():
    # the crosscheck's second route: one LDL^T factorization of T - 121 I, one solve per step
    for radius, cells in ((4.0, 2000), (8.0, 2000), (10.0, 8000), (32.0, 8000)):
        d, e = SturmLiouvilleProblem(radius, cells).tridiagonal()
        assert inverse_iteration(d, e) == pytest.approx(smallest_eigenvalue(d, e), abs=1e-10)


def test_inverse_iteration_settles_quickly_on_the_crosscheck_problem(monkeypatch):
    # each step divides the error by (lam2 - 121) / (lam1 - 121); at (8, 2000) that took 12
    # solves, the exact count depending on how the LAPACK build rounds near the four-ulp stop
    real, steps = scipy.linalg.lapack.dpttrs, []
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", lambda *args: steps.append(1) or real(*args))
    d, e = SturmLiouvilleProblem(8.0, 2000).tridiagonal()
    assert inverse_iteration(d, e) == pytest.approx(smallest_eigenvalue(d, e), rel=1e-12)
    assert len(steps) <= 20


@pytest.mark.xfail(strict=True, raises=np.linalg.LinAlgError,
                   reason="at (40, 2000) lam1 sits so close to the shift 121 that the error "
                          "falls too slowly for the 100-step cap")
def test_inverse_iteration_converges_at_large_radius():
    d, e = SturmLiouvilleProblem(40.0, 2000).tridiagonal()
    assert inverse_iteration(d, e) == pytest.approx(smallest_eigenvalue(d, e), rel=1e-12)


def test_sturm_count_locates_spectrum():
    d, e = SturmLiouvilleProblem(10.0, 4000).tridiagonal()
    counts = oracles.sturm_count(d, e, np.array([100.0, 121.0, 121.4, 200.0]))
    assert counts[0] == 0
    assert counts[1] == 0
    assert counts[2] == 1  # exactly one mode below 121.4 on this domain
    assert counts[3] >= 2


def test_problem_validation():
    with pytest.raises(ValueError):
        SturmLiouvilleProblem(0.5, 1000)
    with pytest.raises(ValueError):
        SturmLiouvilleProblem(5.0, 10)


def test_spectrum_estimate_richardson_hits_target():
    start = time.monotonic()
    est = spectrum_estimate(10.0, 8000)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    assert 121.0 <= est.value <= 123.0
    assert abs(est.richardson - 121.0) / 121.0 <= 0.005
    assert est.converged
    assert est.gap == pytest.approx(est.richardson - 121.0)
    assert est.radius == 10.0 and est.cells == 8000


def test_spectrum_monotone_in_domain():
    values = [spectrum_estimate(r, 2000).value for r in (4.0, 6.0, 8.0, 10.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert min(values) >= 121.0 - 1e-6


def test_spectrum_sweep_grid():
    ests = spectrum_sweep((4.0, 6.0), (500, 1000))
    assert len(ests) == 4
    assert [(e.radius, e.cells) for e in ests] == [(4.0, 500), (4.0, 1000), (6.0, 500), (6.0, 1000)]


def test_spectrum_sweep_solves_each_problem_once(monkeypatch):
    cells = []
    real = geodesy.smallest_eigenvalue
    monkeypatch.setattr(geodesy, "smallest_eigenvalue", lambda d, e: cells.append(len(d)) or real(d, e))
    solved = {}
    ests = spectrum_sweep((4.0,), (400, 800), solved)
    # N = 800 takes its coarse value from the N = 400 estimate's fine one
    assert sorted(cells) == [200, 400, 800]
    assert sorted(solved) == [(4.0, 200), (4.0, 400), (4.0, 800)]
    assert ests[1].coarse_value == ests[0].value == solved[4.0, 400]
    assert spectrum_estimate(4.0, 800, solved) == ests[1] and len(cells) == 3


def test_spectrum_unconverged_flag_on_coarse_grid(monkeypatch):
    monkeypatch.setattr(geodesy, "TOL_SPECTRAL", 1e-9)
    est = spectrum_estimate(10.0, 256)
    assert not est.converged


def test_warped_metric_constants():
    rep = warped_report()
    assert rep.mean_curvature == pytest.approx(-22.0, abs=1e-12)
    assert rep.hessian_norm_sq == pytest.approx(36.0, abs=1e-12)
    assert tuple(rep.hessian_diagonal) == (-2.0,) * 7 + (-1.0,) * 8
    # finite-difference radial curvature against -c^2 for c = 2 and 1
    assert rep.fd_residual <= 1e-6


def test_warped_metric_custom_classes(monkeypatch):
    monkeypatch.setattr(geodesy, "CLASSES", ((3.0, 2),))
    rep = warped_report()
    assert rep.hessian_diagonal == (-3.0, -3.0)
    assert rep.fd_residual <= 1e-6
    assert rep.mean_curvature == pytest.approx(-6.0)
    assert rep.hessian_norm_sq == pytest.approx(18.0)

import cmath
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import oracles
from cayleykit import geodesy
from cayleykit.geodesy import (
    CLASSES,
    area,
    dirichlet_value,
    distance_laplacian,
    hessian_eigenvalue,
    jacobi_dirichlet,
    jacobi_profile,
    liouville_potential,
    log_area,
    log_gamma,
    log_sinh,
    spectrum_bottom,
    warped_curvature_residual,
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


def test_index_form_builds_each_rule_once_read_only():
    rule = geodesy._gauss_legendre(geodesy.QUAD_NODES)
    assert geodesy._gauss_legendre(geodesy.QUAD_NODES) is rule
    assert not any(a.flags.writeable for a in rule)
    fresh = np.polynomial.legendre.leggauss(geodesy.QUAD_NODES)
    assert all(np.array_equal(a, b) for a, b in zip(rule, fresh))


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
    d, e = oracles.fd_tridiagonal(40.0, 2000)
    assert np.all(np.isfinite(d))
    assert np.all(np.isfinite(e))
    assert 120.9 <= oracles.fd_ground_value(40.0, 2000) <= 123.0


def test_sturm_solver_against_lapack():
    for radius, cells in ((4.0, 1000), (8.0, 2000), (10.0, 3000), (40.0, 2000)):
        d, e = oracles.fd_tridiagonal(radius, cells)
        lam = oracles.fd_ground_value(radius, cells)
        # the Sturm sequence puts exactly the lowest eigenvalue within 1e-9 of lam
        assert list(oracles.sturm_count(d, e, [lam - 1e-9, lam + 1e-9])) == [0, 1]
        # Cholesky + bidiagonal QR, the second relatively accurate LAPACK route
        evals, _, _, info = scipy.linalg.lapack.dpteqr(d, e, np.zeros((1, 1)), compute_z=0)
        assert info == 0
        assert lam == pytest.approx(evals.min(), abs=1e-9)


def test_sturm_count_locates_spectrum():
    d, e = oracles.fd_tridiagonal(10.0, 4000)
    counts = oracles.sturm_count(d, e, np.array([100.0, 121.0, 121.4, 200.0]))
    assert counts[0] == 0
    assert counts[1] == 0
    assert counts[2] == 1  # exactly one mode below 121.4 on this domain
    assert counts[3] >= 2


def test_liouville_potential_closed_form_and_mckean_bound():
    # Koornwinder's form with alpha = 7, beta = 3: (alpha^2 - 1/4) / sinh^2 - (beta^2 - 1/4) / cosh^2
    r = np.linspace(0.05, 15.0, 300)
    excess = 48.75 / np.sinh(r) ** 2 - 8.75 / np.cosh(r) ** 2
    assert np.allclose(liouville_potential(r) - 121.0, excess, rtol=1e-9, atol=1e-12)
    # no csch^2 overflow far out (RuntimeWarnings are errors here), and q >= rho^2 everywhere
    far = liouville_potential(np.array([180.0, 500.0, 5000.0]))
    assert np.all(far == 121.0)
    assert liouville_potential(np.geomspace(1e-3, 60.0, 2000)).min() >= 121.0


def test_spectrum_bottom_is_rho_squared(monkeypatch):
    assert spectrum_bottom() == 121.0
    monkeypatch.setattr(geodesy, "CLASSES", ((2.0, 6), (1.0, 8)))
    assert spectrum_bottom() == 100.0


def test_log_gamma_against_the_reals_and_the_imaginary_axis():
    for x in (0.3, 1.0, 2.5, 7.0, 16.5, 40.0):
        assert log_gamma(x).real == pytest.approx(math.lgamma(x), rel=1e-14, abs=1e-14)
    # |Gamma(iy)|^2 = pi / (y sinh(pi y))
    for y in (0.01, 0.5, 1.0, 3.0, 10.0):
        ref = math.log(math.pi / (y * math.sinh(math.pi * y)))
        assert 2.0 * log_gamma(1j * y).real == pytest.approx(ref, rel=1e-14, abs=1e-14)
    # Gamma(1 + iy) = iy Gamma(iy): the phase moves by pi / 2
    shift = log_gamma(1.0 + 0.7j) - log_gamma(0.7j) - cmath.log(0.7j)
    assert abs(cmath.exp(shift) - 1.0) <= 1e-14


def test_collocation_against_jacobi_closed_form():
    for radius in (1.0, 4.0, 10.0, 24.0, 60.0):
        value = dirichlet_value(radius)
        assert value.converged
        assert value.value == pytest.approx(jacobi_dirichlet(radius), rel=1e-10)
    assert dirichlet_value(10.0).value == pytest.approx(121.16935090720, abs=1e-10)


def test_collocation_converges_at_large_radius():
    for radius in (100.0, 500.0):
        value = dirichlet_value(radius)
        assert value.converged and value.nodes <= 256
        assert value.value == pytest.approx(jacobi_dirichlet(radius), rel=1e-10)
        # lambda(R) - rho^2 ~ (pi / R)^2 as R grows
        assert 121.0 < value.value < 121.0 + 2.0 * (math.pi / radius) ** 2


def test_spectrum_estimate_richardson_hits_target():
    # the finite-difference Richardson value minus collocation is the FD h^4 term, about
    # -4.8e-8 at N = 800 R for every R
    for radius in (4.0, 10.0, 24.0):
        fd = oracles.fd_richardson(radius, int(800 * radius))
        assert fd == pytest.approx(dirichlet_value(radius).value, abs=1e-7)


def test_spectrum_monotone_in_domain():
    values = [dirichlet_value(r).value for r in (4.0, 6.0, 8.0, 10.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert min(values) > 121.0


def test_spectrum_unconverged_flag_on_coarse_grid(monkeypatch):
    monkeypatch.setattr(geodesy, "COLLOCATION_NODES", (8, 16))
    value = dirichlet_value(10.0)
    assert (value.nodes, value.converged) == (16, False)
    assert value.error_estimate > geodesy.TOL_DIRICHLET * value.value


def test_jacobi_route_needs_the_rank_one_classes(monkeypatch):
    monkeypatch.setattr(geodesy, "CLASSES", ((3.0, 2), (1.0, 8)))
    with pytest.raises(ValueError, match="no Jacobi form"):
        jacobi_dirichlet(4.0)
    # the 7 -> 6 fault keeps the form: alpha = 6.5, beta = 2.5, and both routes follow it
    monkeypatch.setattr(geodesy, "CLASSES", ((2.0, 6), (1.0, 8)))
    assert jacobi_dirichlet(4.0) == pytest.approx(dirichlet_value(4.0).value, rel=1e-10)
    assert 100.0 < jacobi_dirichlet(4.0) < 110.0


def test_warped_curvature_residual(monkeypatch):
    # finite-difference radial curvature against -c^2 for c = 2 and 1
    assert warped_curvature_residual() <= 1e-6
    # at a coarse step the residual is the refined difference's h^4 term, c^6 h^4 / 1440 at
    # c = 2; without the Richardson step it would be c^4 h^2 / 12, 3e5 times larger
    monkeypatch.setattr(geodesy, "WARP_STEP", 1e-2)
    assert warped_curvature_residual() == pytest.approx(2.0**6 * 1e-8 / 1440.0, rel=0.05)


def test_warped_metric_custom_classes(monkeypatch):
    monkeypatch.setattr(geodesy, "CLASSES", ((3.0, 2),))
    assert warped_curvature_residual() <= 1e-6
    monkeypatch.setattr(geodesy, "WARP_STEP", 1e-2)
    assert warped_curvature_residual() == pytest.approx(3.0**6 * 1e-8 / 1440.0, rel=0.05)

"""Radial comparison geometry and the bottom of the spectrum.

Along a unit-speed ray the radial curvature operator of the model has
eigenvalue -4 with multiplicity 7 and -1 with multiplicity 8, so distance
spheres carry principal curvatures c coth(c r) with c in {2 x 7, 1 x 8}:

    (Delta r)(r) = 14 coth(2 r) + 8 coth(r)  ->  22,

and the sphere area is A(r) = (sinh 2r)^7 (sinh r)^8 up to a constant.
The limiting volume growth e^{22 r} forces the bottom of the L^2
spectrum of the radial operator -(A u')' / A to be at most (22/2)^2 = 121.
``spectrum_estimate`` discretizes that Sturm-Liouville problem on (0, R)
with a half-cell-shifted grid (the A(0) = 0 face makes the natural
boundary condition automatic), takes the lowest eigenvalue of the
symmetric tridiagonal matrix by LAPACK bisection and removes the O(h^2)
error by Richardson extrapolation, each (R, N) solved once per run.

``warped_report`` runs the same constants through an explicit warped
metric dt^2 + e^{-4t} (7 dirs) + e^{-2t} (8 dirs): curvatures -f''/f,
level-set mean curvature and the Hessian of the height function.

The radial classes are the model, not a setting: every function reads the
module constant ``CLASSES`` when it is called, so a test can inject a model
fault (say multiplicity 7 -> 6) by patching that one name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


# radial curvature classes (c, multiplicity), K = -c^2 on each
CLASSES = ((2.0, 7), (1.0, 8))
# the model's bottom of the spectrum (22/2)^2, which the estimates approach
SPECTRUM_BOTTOM = 121.0

# relative Richardson error above which a spectrum estimate is unconverged;
# also the tolerance of the ``geodesy.spectrum-bottom`` check
TOL_SPECTRAL = 0.005
# Gauss-Legendre nodes of ``index_form``; twice as many give its error estimate
QUAD_NODES = 12
INVERSE_STEPS = 100  # step cap of ``inverse_iteration``
# height and finite-difference step of the warped-metric evaluation
WARP_HEIGHT = 0.7
WARP_STEP = 1e-4


def distance_laplacian(r):
    """Laplacian of the distance function, sum of c coth(c r) over classes."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    total = np.zeros_like(r)
    for c, mult in CLASSES:
        total = total + mult * c / np.tanh(c * r)
    return total if total.shape else float(total)


def jacobi_profile(c: float, L: float, t):
    """Normal Jacobi field sinh(c t) / sinh(c L), vanishing at 0, one at L."""
    if L <= 0:
        raise ValueError("length must be positive")
    t = np.asarray(t, dtype=float)
    out = np.sinh(c * t) / math.sinh(c * L)
    return out if out.shape else float(out)


def hessian_eigenvalue(c: float, L: float) -> float:
    """Index-form value of the profile: c coth(c L)."""
    if L <= 0:
        raise ValueError("length must be positive")
    return c / math.tanh(c * L)


def index_form(c: float, L: float, nodes: int) -> float:
    """Index form int_0^L (f'^2 + c^2 f^2) dt of the Jacobi profile f, by ``nodes``-point
    Gauss-Legendre; ``hessian_eigenvalue`` is its closed form."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * L * (x + 1.0)
    slope = c * np.cosh(c * t) / math.sinh(c * L)
    return 0.5 * L * float(w @ (slope**2 + c**2 * jacobi_profile(c, L, t) ** 2))


def log_sinh(x):
    """log(sinh x) for x > 0 without overflow.

    Below the overflow threshold the direct formula is used (the shifted
    one loses ~1e-9 relative accuracy for tiny x); above it,
    x + log1p(-e^{-2x}) - log 2.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("argument must be positive")
    shifted = x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0)
    out = np.where(x < 350.0, np.log(np.sinh(np.minimum(x, 350.0))), shifted)
    return out if out.shape else float(out)


def log_area(r):
    """log A(r) = sum mult * log sinh(c r); stable for large r."""
    r = np.asarray(r, dtype=float)
    total = np.zeros_like(r, dtype=float)
    for c, mult in CLASSES:
        total = total + mult * log_sinh(c * r)
    return total if total.shape else float(total)


def area(r):
    return np.exp(log_area(r))


# ---------------------------------------------------------------------------
# Sturm-Liouville spectrum of -(A u')' / A on (0, R)


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """Dirichlet problem for -(A u')'/A on (0, R) with N half-shifted cells."""

    radius: float
    cells: int

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 1.0):
            raise ValueError("radius must be finite and at least 1")
        if self.cells < 100:
            raise ValueError("grid too small for a meaningful estimate")

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetrized tridiagonal (diagonal, offdiagonal).

        Entries are assembled from ratios of A at neighboring nodes, so the
        astronomically large weight never overflows for any radius.
        """
        R, n = self.radius, self.cells
        h = R / n
        centers = (np.arange(n) + 0.5) * h
        faces = np.arange(n + 1) * h
        log_c = log_area(centers)
        log_f = np.empty(n + 1)
        log_f[0] = -np.inf  # A(0) = 0: natural boundary carries no flux
        log_f[1:] = log_area(faces[1:])
        # diag: (A(f_k) + A(f_{k+1})) / (h^2 A(c_k));   Dirichlet face doubled
        left = np.exp(log_f[:-1] - log_c)
        right = np.exp(log_f[1:] - log_c)
        diag = (left + right) / h**2
        diag[-1] += right[-1] / h**2  # ghost reflection u_N = -u_{N-1}
        # offdiag: -A(f_{k+1}) / (h^2 sqrt(A(c_k) A(c_{k+1})))
        off = -np.exp(log_f[1:-1] - 0.5 * (log_c[:-1] + log_c[1:])) / h**2
        return diag, off


def smallest_eigenvalue(diag: np.ndarray, off: np.ndarray) -> float:
    """Lowest eigenvalue by LAPACK bisection (``stebz``) to the underflow limit.

    Bisection is accurate relative to each eigenvalue on these scaled,
    diagonally dominant matrices (Barlow & Demmel 1990).  The default
    drivers only reach about eps * |T|, and the r^15 growth of A near zero
    puts |T| at 2e9 (N/R = 250) to 2e10 (N/R = 800).
    """
    return float(scipy.linalg.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, 0),
        lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny)[0])


def ground_value(radius: float, cells: int, solved: dict) -> float:
    """``smallest_eigenvalue`` of the (R, N) problem, solved once per memo ``solved``, which
    lives for one run: a longer-lived one would hand out values of another model."""
    key = (float(radius), int(cells))
    if key not in solved:
        solved[key] = smallest_eigenvalue(*SturmLiouvilleProblem(*key).tridiagonal())
    return solved[key]


def inverse_iteration(diag: np.ndarray, off: np.ndarray) -> float:
    """Lowest eigenvalue by LDL^T inverse iteration, a second algorithm beside bisection.
    ``dpttrf`` factors T - rho^2 I once: rho^2 = (sum m c / 2)^2 lies below every Dirichlet
    value.  Each ``dpttrs`` step lowers the estimate rho^2 + 1 / |(T - rho^2 I)^-1 x|, x a
    unit vector, until it moves by at most four ulps; a failed factorization, or
    ``INVERSE_STEPS`` steps, raises ``np.linalg.LinAlgError``."""
    shift = (sum(m * c for c, m in CLASSES) / 2.0) ** 2
    d, e, info = scipy.linalg.lapack.dpttrf(diag - shift, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf info {info}")
    x, value = np.full((diag.size, 1), diag.size ** -0.5), np.inf
    for _ in range(INVERSE_STEPS):
        y = scipy.linalg.lapack.dpttrs(d, e, x)[0]
        norm = np.linalg.norm(y)
        x, last, value = y / norm, value, shift + 1.0 / norm
        if abs(value - last) <= 4.0 * np.spacing(value):
            return float(value)
    raise np.linalg.LinAlgError(f"no convergence in {INVERSE_STEPS} steps")


@dataclass
class SpectrumEstimate:
    """Estimate of the bottom of the spectrum at one (R, N) setting."""

    radius: float
    cells: int
    value: float
    coarse_value: float
    richardson: float
    error_estimate: float
    converged: bool

    @property
    def gap(self) -> float:
        """Measured excess of the extrapolated value over ``SPECTRUM_BOTTOM``."""
        return self.richardson - SPECTRUM_BOTTOM


def spectrum_estimate(radius: float, cells: int, solved: dict | None = None) -> SpectrumEstimate:
    """Dirichlet ground value at (R, N) plus an N/2 run and Richardson step.

    Both values come from ``smallest_eigenvalue``, so their difference is
    discretization error, not solver error.  That difference / 3 is
    reported as the error estimate; if it exceeds ``TOL_SPECTRAL`` relative to
    the extrapolated value the result is flagged unconverged rather than
    silently accepted.  ``solved`` is the run's memo (see ``ground_value``).
    """
    solved = {} if solved is None else solved
    lam_f = ground_value(radius, cells, solved)
    lam_c = ground_value(radius, cells // 2, solved)
    rich = (4.0 * lam_f - lam_c) / 3.0
    err = abs(lam_f - lam_c) / 3.0
    return SpectrumEstimate(float(radius), int(cells), lam_f, lam_c, rich, err,
                            converged=bool(err <= TOL_SPECTRAL * abs(rich)))


def spectrum_sweep(radii, grids, solved: dict | None = None) -> list[SpectrumEstimate]:
    solved = {} if solved is None else solved
    return [spectrum_estimate(float(r), int(n), solved) for r in radii for n in grids]


# ---------------------------------------------------------------------------
# Warped-product cross-check


@dataclass
class WarpedReport:
    fd_residual: float
    mean_curvature: float
    hessian_diagonal: tuple
    hessian_norm_sq: float


def warped_report() -> WarpedReport:
    """Evaluate the warped-metric identities at height ``WARP_HEIGHT``.

    The metric is dt^2 + sum over the classes (c, m) of e^{-2 c t} on m
    directions.  Radial curvatures are computed both in closed form
    (-f''/f = -c^2 for f = e^{-c t}) and by a second central difference of
    f with one Richardson refinement, so an error in either route is
    visible.
    """
    t0, h = WARP_HEIGHT, WARP_STEP
    worst = 0.0
    for c, _ in CLASSES:
        f = lambda t: math.exp(-c * t)

        def second(hh):
            return (f(t0 + hh) - 2.0 * f(t0) + f(t0 - hh)) / hh**2

        d2 = (4.0 * second(h / 2.0) - second(h)) / 3.0
        worst = max(worst, abs(c * c - d2 / f(t0)))  # -f''/f against -c^2

    mean_curv = sum(-c * m for c, m in CLASSES)
    hess_diag = tuple(-c for c, m in CLASSES for _ in range(m))
    hess_sq = sum(c * c * m for c, m in CLASSES)
    return WarpedReport(
        fd_residual=worst,
        mean_curvature=mean_curv,
        hessian_diagonal=hess_diag,
        hessian_norm_sq=hess_sq,
    )

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
boundary condition automatic), solves the symmetric tridiagonal
eigenproblem by Sturm-count multisection and removes the O(h^2) error by
Richardson extrapolation.

``warped_report`` runs the same constants through an explicit warped
metric dt^2 + e^{-4t} (7 dirs) + e^{-2t} (8 dirs): curvatures -f''/f,
level-set mean curvature, the Hessian of the height function and its
Cauchy-Schwarz saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadialModel:
    """Radial curvature data: (c, multiplicity) with K = -c^2 per class."""

    classes: tuple[tuple[float, int], ...] = ((2.0, 7), (1.0, 8))

    @property
    def growth_rate(self) -> float:
        """Sum of c * multiplicity; the volume entropy of the model."""
        return sum(c * m for c, m in self.classes)

    @property
    def dimension(self) -> int:
        return 1 + sum(m for _, m in self.classes)


CAYLEY = RadialModel()


def distance_laplacian(r, model: RadialModel = CAYLEY):
    """Laplacian of the distance function, sum of c coth(c r) over classes."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    total = np.zeros_like(r)
    for c, mult in model.classes:
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


def log_area(r, model: RadialModel = CAYLEY):
    """log A(r) = sum mult * log sinh(c r); stable for large r."""
    r = np.asarray(r, dtype=float)
    total = np.zeros_like(r, dtype=float)
    for c, mult in model.classes:
        total = total + mult * log_sinh(c * r)
    return total if total.shape else float(total)


def area(r, model: RadialModel = CAYLEY):
    return np.exp(log_area(r, model))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 48) -> float:
    """Recursive adaptive Simpson quadrature.

    The acceptance test scales the tolerance by the local magnitude, so
    integrands spanning many orders (the area element grows like e^{22r})
    terminate at roughly relative accuracy ``tol`` instead of chasing an
    unreachable absolute target.
    """

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        flm = f(lm)
        frm = f(rm)
        left = simpson(x0, xm, f0, flm, f1)
        right = simpson(xm, x2, f1, frm, f2)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * eps * (1.0 + abs(left + right)):
            return left + right + delta / 15.0
        return (recurse(x0, xm, f0, flm, f1, left, eps / 2.0, depth - 1)
                + recurse(xm, x2, f1, frm, f2, right, eps / 2.0, depth - 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def area_volume(r: float, model: RadialModel = CAYLEY, tol: float = 1e-10) -> tuple[float, float]:
    """Sphere area A(r) and enclosed volume int_0^r A, by adaptive quadrature."""
    if r <= 0:
        raise ValueError("radius must be positive")
    vol = adaptive_simpson(lambda s: float(area(s, model)) if s > 0 else 0.0, 0.0, r, tol=tol)
    return float(area(r, model)), vol


# ---------------------------------------------------------------------------
# Sturm-Liouville spectrum of -(A u')' / A on (0, R)


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """Dirichlet problem for -(A u')'/A on (0, R) with N half-shifted cells."""

    radius: float
    cells: int
    model: RadialModel = CAYLEY

    def __post_init__(self):
        if self.radius < 1.0:
            raise ValueError("radius must be at least 1")
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
        log_c = log_area(centers, self.model)
        log_f = np.empty(n + 1)
        log_f[0] = -np.inf  # A(0) = 0: natural boundary carries no flux
        log_f[1:] = log_area(faces[1:], self.model)
        # diag: (A(f_k) + A(f_{k+1})) / (h^2 A(c_k));   Dirichlet face doubled
        left = np.exp(log_f[:-1] - log_c)
        right = np.exp(log_f[1:] - log_c)
        diag = (left + right) / h**2
        diag[-1] += right[-1] / h**2  # ghost reflection u_N = -u_{N-1}
        # offdiag: -A(f_{k+1}) / (h^2 sqrt(A(c_k) A(c_{k+1})))
        off = -np.exp(log_f[1:-1] - 0.5 * (log_c[:-1] + log_c[1:])) / h**2
        return diag, off


def sturm_count(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift, by the Sturm sequence."""
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    q = diag[0] - shifts
    count = (q < 0.0).astype(int)
    tiny = 1e-300
    off2 = off * off
    for k in range(1, diag.size):
        q = np.where(np.abs(q) < tiny, -tiny, q)
        q = diag[k] - shifts - off2[k - 1] / q
        count += q < 0.0
    return count


def smallest_eigenvalue(diag: np.ndarray, off: np.ndarray, rel_tol: float = 1e-12) -> float:
    """Lowest eigenvalue by multisection on Sturm counts (always bracketed)."""
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    probes = 63
    while hi - lo > rel_tol * max(1.0, abs(lo), abs(hi)):
        grid = np.linspace(lo, hi, probes + 2)
        counts = sturm_count(diag, off, grid[1:-1])
        above = np.nonzero(counts >= 1)[0]
        if above.size == 0:
            lo = grid[-2]
            continue
        first = above[0]
        hi = grid[1:-1][first]
        lo = grid[first]  # grid[1:-1][first-1] or the left endpoint
    return 0.5 * (lo + hi)


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
    target: float = 121.0

    @property
    def gap(self) -> float:
        """Measured excess of the extrapolated value over the model constant."""
        return self.richardson - self.target

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "cells": self.cells,
            "value": self.value,
            "coarse_value": self.coarse_value,
            "richardson": self.richardson,
            "error_estimate": self.error_estimate,
            "converged": bool(self.converged),
            "gap": self.gap,
        }


def spectrum_estimate(radius: float, cells: int, model: RadialModel = CAYLEY,
                      rel_tol: float = 0.005) -> SpectrumEstimate:
    """Dirichlet ground value at (R, N) plus an N/2 run and Richardson step.

    The discretization error estimate is reported; if it exceeds
    ``rel_tol`` relative to the value the result is flagged unconverged
    rather than silently accepted.
    """
    fine = SturmLiouvilleProblem(radius, cells, model)
    coarse = SturmLiouvilleProblem(radius, cells // 2, model)
    lam_f = float(smallest_eigenvalue(*fine.tridiagonal()))
    lam_c = float(smallest_eigenvalue(*coarse.tridiagonal()))
    rich = (4.0 * lam_f - lam_c) / 3.0
    err = abs(lam_f - lam_c) / 3.0
    return SpectrumEstimate(
        radius=float(radius),
        cells=int(cells),
        value=lam_f,
        coarse_value=lam_c,
        richardson=rich,
        error_estimate=err,
        converged=bool(err <= rel_tol * abs(rich)),
    )


def spectrum_sweep(radii, grids, model: RadialModel = CAYLEY) -> list[SpectrumEstimate]:
    return [spectrum_estimate(float(r), int(n), model) for r in radii for n in grids]


# ---------------------------------------------------------------------------
# Warped-product cross-check


@dataclass(frozen=True)
class WarpedMetric:
    """dt^2 + sum_A f_A(t)^2 omega_A^2 with f_A = e^{-c_A t} per class."""

    classes: tuple[tuple[float, int], ...] = ((2.0, 7), (1.0, 8))

    def warp(self, c: float, t: float) -> float:
        return math.exp(-c * t)


@dataclass
class WarpedReport:
    sectional_exact: dict
    sectional_fd: dict
    fd_residual: float
    mean_curvature: float
    laplacian_height: float
    hessian_diagonal: tuple
    hessian_norm_sq: float
    cauchy_schwarz_lhs: float
    ricci_radial: float
    jacobi_residual: float

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["sectional_exact"] = {str(k): v for k, v in self.sectional_exact.items()}
        d["sectional_fd"] = {str(k): v for k, v in self.sectional_fd.items()}
        d["hessian_diagonal"] = list(self.hessian_diagonal)
        return d


def warped_report(metric: WarpedMetric = WarpedMetric(), t0: float = 0.7,
                  h: float = 1e-4) -> WarpedReport:
    """Evaluate the warped-metric identities at height t0.

    Radial curvatures are computed both in closed form (-f''/f = -c^2) and
    by a second central difference of the warp function with one
    Richardson refinement, so an error in either route is visible.
    """
    exact = {}
    fd = {}
    worst = 0.0
    for c, _ in metric.classes:
        f = lambda t: metric.warp(c, t)
        exact[c] = -c * c

        def second(hh):
            return (f(t0 + hh) - 2.0 * f(t0) + f(t0 - hh)) / hh**2

        d2 = (4.0 * second(h / 2.0) - second(h)) / 3.0
        fd[c] = -d2 / f(t0)
        worst = max(worst, abs(fd[c] - exact[c]))

    mean_curv = sum(-c * m for c, m in metric.classes)
    hess_diag = tuple(-c for c, m in metric.classes for _ in range(m))
    hess_sq = sum(c * c * m for c, m in metric.classes)
    # block Cauchy-Schwarz applied to the two warp classes, sharp here
    cs = sum((sum(-c for _ in range(m))) ** 2 / m for c, m in metric.classes)
    # transported Jacobi basis V_A = e^{-c_A t} e_A satisfies V'' = c^2 V
    jac = 0.0
    for c, _ in metric.classes:
        f = lambda t: metric.warp(c, t)
        d2 = (f(t0 + h) - 2.0 * f(t0) + f(t0 - h)) / h**2
        jac = max(jac, abs(d2 - c * c * f(t0)) / f(t0))
    return WarpedReport(
        sectional_exact=exact,
        sectional_fd=fd,
        fd_residual=worst,
        mean_curvature=mean_curv,
        laplacian_height=mean_curv,
        hessian_diagonal=hess_diag,
        hessian_norm_sq=hess_sq,
        cauchy_schwarz_lhs=cs,
        ricci_radial=-hess_sq,
        jacobi_residual=jac,
    )

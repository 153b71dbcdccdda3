"""Radial comparison geometry and the bottom of the spectrum.

Along a unit-speed ray the radial curvature operator of the model has
eigenvalue -4 with multiplicity 7 and -1 with multiplicity 8, so distance
spheres carry principal curvatures c coth(c r) with c in {2 x 7, 1 x 8}:

    (Delta r)(r) = 14 coth(2 r) + 8 coth(r)  ->  22,

and the sphere area is A(r) = (sinh 2r)^7 (sinh r)^8 up to a constant.
With v = sqrt(A) u the radial operator -(A u')' / A becomes -v'' + q v with
q = (Delta r)^2 / 4 + (Delta r)' / 2 = rho^2 + 48.75 / sinh^2 r - 8.75 / cosh^2 r,
rho = 22 / 2, so q > rho^2 = 121 and every Dirichlet value on (0, R) lies above
121 (McKean's bound).  Two numpy routes give the Dirichlet value: Chebyshev
collocation of the Liouville form (``dirichlet_value``, route C, with its N/2N
gap as error estimate) and the first zero of Koornwinder's Jacobi function
with alpha = 7, beta = 3 (``jacobi_dirichlet``, route J).

``warped_curvature_residual`` checks the radial curvatures -f''/f of the
warped metric dt^2 + e^{-4t} (7 dirs) + e^{-2t} (8 dirs) by finite
differences of f against -c^2; its level-set mean curvature and the Hessian
of the height function are sums over ``CLASSES``, which the suite reads.

The radial classes are the model, not a setting: every function reads the
module constant ``CLASSES`` when it is called, so a test can inject a model
fault (say multiplicity 7 -> 6) by patching that one name.  ``RADII``, the
domain radii the suite solves both routes at, is read the same way.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np


# radial curvature classes (c, multiplicity), K = -c^2 on each
CLASSES = ((2.0, 7), (1.0, 8))

# domain radii of the Dirichlet values, ascending; the last is where the bottom 121 is checked
RADII = (4.0, 6.0, 8.0, 10.0)
# Chebyshev interval counts of ``dirichlet_value``, tried in turn
COLLOCATION_NODES = (32, 64, 128, 256)
# relative gap between two of them below which a Dirichlet value has converged
TOL_DIRICHLET = 1e-10
# Gauss-Legendre nodes of ``index_form``; twice as many give its error estimate
QUAD_NODES = 12
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


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}."""
    p, prev = np.ones_like(x), np.zeros_like(x)
    for k in range(1, n + 1):
        p, prev = ((2 * k - 1) * x * p - (k - 1) * prev) / k, p
    return p, n * (prev - x * p) / (1.0 - x * x)


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``nodes``-point Gauss-Legendre points and weights on [-1, 1], built once per
    count; read-only, as callers share them.  The points are the zeros of P_n by Newton's
    method from the cosine guesses, until no step exceeds an ulp of 1 (4 or 5 steps up to
    300 nodes), the weights 2 / ((1 - x^2) P_n'(x)^2); both symmetrized, points ascending.
    So no eigensolver runs and numpy.polynomial is not imported."""
    x = -np.cos(np.pi * (np.arange(nodes) + 0.75) / (nodes + 0.5))
    for _ in range(20):
        p, slope = _legendre(nodes, x)
        step = p / slope
        x = x - step
        if np.abs(step).max() <= np.finfo(float).eps:
            break
    w = 2.0 / ((1.0 - x * x) * _legendre(nodes, x)[1] ** 2)
    rule = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    for array in rule:
        array.flags.writeable = False
    return rule


def index_form(c: float, L: float, nodes: int) -> float:
    """Index form int_0^L (f'^2 + c^2 f^2) dt of the Jacobi profile f, by ``nodes``-point
    Gauss-Legendre; ``hessian_eigenvalue`` is its closed form."""
    x, w = _gauss_legendre(nodes)
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
# Bottom of the Dirichlet spectrum of -(A u')' / A on (0, R)


def spectrum_bottom() -> float:
    """rho^2 = (sum m c / 2)^2, where the Dirichlet values go as R -> infinity."""
    return (sum(m * c for c, m in CLASSES) / 2.0) ** 2


def ricci_norm() -> float:
    """sum m c^2: |Ric| of the model and |Hess t|^2 of the warped metric's height function t."""
    return sum(m * c * c for c, m in CLASSES)


def liouville_potential(r):
    """q = (Delta r)^2 / 4 + (Delta r)' / 2 of the Liouville form -v'' + q v, v = sqrt(A) u.

    (Delta r)' = -sum m c^2 csch^2(c r), with csch^2 x written 4 e^{-2x} / (1 - e^{-2x})^2
    so that no radius overflows.
    """
    r = np.asarray(r, dtype=float)
    slope = sum(-4.0 * m * c * c * np.exp(-2.0 * c * r) / np.expm1(-2.0 * c * r) ** 2
                for c, m in CLASSES)
    return distance_laplacian(r) ** 2 / 4.0 + slope / 2.0


@dataclass(frozen=True)
class DirichletValue:
    """Route C at one radius: the value on ``nodes`` Chebyshev intervals and on half as many."""

    radius: float
    nodes: int
    value: float
    coarse_value: float

    @property
    def error_estimate(self) -> float:
        return abs(self.value - self.coarse_value)

    @property
    def converged(self) -> bool:
        return self.error_estimate <= TOL_DIRICHLET * abs(self.value)


def collocated_value(radius: float, nodes: int) -> float:
    """Smallest real eigenvalue of -v'' + q v collocated at nodes + 1 Chebyshev points of
    [0, R]; Dirichlet at both ends leaves the nodes - 1 interior values as unknowns."""
    k = np.arange(nodes + 1)
    x = np.cos(np.pi * k / nodes)
    w = np.where(k % 2, -1.0, 1.0) * np.where((k == 0) | (k == nodes), 2.0, 1.0)
    d = np.outer(w, 1.0 / w) / (x[:, None] - x + np.eye(nodes + 1))
    d -= np.diag(d.sum(axis=1))
    inner = slice(1, nodes)
    # r = R (1 - x) / 2, so d^2/dr^2 = (2 / R)^2 d^2/dx^2
    op = -(2.0 / radius) ** 2 * (d @ d)[inner, inner]
    op[np.diag_indices(nodes - 1)] += liouville_potential(radius * (1.0 - x[inner]) / 2.0)
    vals = np.linalg.eigvals(op)
    return float(vals.real[vals.imag == 0.0].min())


def dirichlet_value(radius: float) -> DirichletValue:
    """Route C: ``collocated_value`` on each of ``COLLOCATION_NODES`` in turn, until two in a
    row agree to ``TOL_DIRICHLET`` relative; past the last the value is unconverged."""
    value = collocated_value(radius, COLLOCATION_NODES[0])
    for nodes in COLLOCATION_NODES[1:]:
        coarse, value = value, collocated_value(radius, nodes)
        if abs(value - coarse) <= TOL_DIRICHLET * abs(value):
            break
    return DirichletValue(float(radius), nodes, value, coarse)


# B_2k / (2k (2k - 1)), the first eight Stirling-Bernoulli coefficients
_STIRLING = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), 1))


def log_gamma(z: complex) -> complex:
    """log Gamma(z) for Re z >= 0, z != 0, up to a multiple of 2 pi i: shift z until Re z >= 17,
    where eight Stirling-Bernoulli terms leave an error below 1e-20."""
    z, shift = complex(z), 0j
    while z.real < 17.0:
        shift += cmath.log(z)
        z += 1.0
    tail = sum(coef / z ** (2 * k + 1) for k, coef in enumerate(_STIRLING))
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi) + tail - shift


def jacobi_dirichlet(radius: float) -> float:
    """Route J: rho^2 + s^2, s the first zero of the Jacobi function phi_s(R) = 2 Re(c(s) Phi_s(R)).

    Koornwinder's closed form with alpha = (m1 + m2 - 1) / 2 and beta = (m2 - 1) / 2 for the
    classes (2, m2), (1, m1): c(s) = 2^(rho - is) Gamma(alpha + 1) Gamma(is) /
    (Gamma((is + rho) / 2) Gamma((is + alpha - beta + 1) / 2)) and Phi_s(R) = (2 cosh R)^(is - rho)
    2F1((rho - is) / 2, (alpha - beta + 1 - is) / 2; 1 - is; cosh^-2 R).  The sign of phi_s(R) is
    that of Re(e^{i (arg c(s) + s log(2 cosh R))} 2F1), which no radius underflows.  Steps of
    pi / (4 (R + 1)) bracket the zero, and bisection narrows it to adjacent floats.
    """
    mults = {c: m for c, m in CLASSES}
    if len(CLASSES) != 2 or set(mults) != {1.0, 2.0}:
        raise ValueError(f"no Jacobi form for the classes {CLASSES}")
    alpha, beta = (mults[1.0] + mults[2.0] - 1) / 2.0, (mults[2.0] - 1) / 2.0
    rho = alpha + beta + 1.0
    log_cosh = radius + math.log1p(math.exp(-2.0 * radius)) - math.log(2.0)
    z = math.exp(-2.0 * log_cosh)

    def sign(s: float) -> bool:
        a, b, c = (rho - 1j * s) / 2.0, (alpha - beta + 1.0 - 1j * s) / 2.0, 1.0 - 1j * s
        term = series = 1.0 + 0j
        k = 0
        while abs(term) > 1e-17 * abs(series):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            series += term
            k += 1
        # arg c(s) + s log(2 cosh R): the 2^(-is) of c(s) cancels the 2 of 2 cosh R
        phase = s * log_cosh + (log_gamma(1j * s) - log_gamma((1j * s + rho) / 2.0)
                                - log_gamma((1j * s + alpha - beta + 1.0) / 2.0)).imag
        return (cmath.exp(1j * phase) * series).real > 0.0

    step = math.pi / (4.0 * (radius + 1.0))
    lo, first = step, sign(step)
    while sign(lo + step) == first:
        lo += step
    hi = lo + step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if sign(mid) == first else (lo, mid)
    return rho * rho + hi * hi


# ---------------------------------------------------------------------------
# Warped-product cross-check


def warped_curvature_residual() -> float:
    """Largest gap, over the classes (c, m), between -f''/f and -c^2 for f = e^{-c t}.

    The metric is dt^2 + sum over the classes of e^{-2 c t} on m directions, evaluated at
    height ``WARP_HEIGHT``; f'' is a second central difference with one Richardson
    refinement, so an error in either route is visible.
    """
    t0, h = WARP_HEIGHT, WARP_STEP
    worst = 0.0
    for c, _ in CLASSES:
        f = lambda t: math.exp(-c * t)

        def second(hh):
            return (f(t0 + hh) - 2.0 * f(t0) + f(t0 - hh)) / hh**2

        d2 = (4.0 * second(h / 2.0) - second(h)) / 3.0
        worst = max(worst, abs(c * c - d2 / f(t0)))
    return worst

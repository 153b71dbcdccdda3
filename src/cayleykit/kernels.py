"""Sharp refined-Kato ratios for constrained Hessians.

For a symmetric matrix a (a Hessian surrogate at a critical frame, first
basis vector along the gradient), the quantity of interest is

    ratio(a) = sum_ij a_ij^2 / sum_j a_1j^2,

minimized over the trace-free matrices satisfying the linear constraints
extracted from a parallel form.  The minimum is computed twice:

* closed form, by the block Cauchy-Schwarz argument: a constraint tying
  a_11 to k other diagonal entries forces ratio >= 1 + 1/k, attained by
  diag(-k mu, mu, ..., mu, 0, ...) up to scale;
* numerically, as the extreme generalized eigenvalue of the two quadratic
  forms restricted to the constraint subspace.

A disagreement beyond 1e-8 raises, and a run reports it as the failed
check ``kernels.crashed``; nothing is averaged away.  The sharp
ratio 1 + b sets the exponent of the Kato-type transform g = h^{1-b}, the
one exponent for which the gradient term of the Bochner inequality
vanishes identically; what remains is the drift constant |Ric| (1 - b),
for the 16-dimensional model 36 * 6/7 = 216/7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import octonion

MODEL_RICCI = -36.0
# entries of a scaled minimizer below this are noise
CANONICAL_TOL = 1e-9


@dataclass(frozen=True)
class RatioProblem:
    """Minimize ratio(a) over constrained trace-free symmetric matrices.

    ``rows`` is an (r, n(n+1)/2) array of functionals over the coordinates
    a[np.triu_indices(n)], as in ``ConstraintSet.rows``: a row's value on a
    is ``row @ a[np.triu_indices(n)]``.  The trace functional is always
    prepended.  The gradient direction (the denominator row) is the first
    basis vector.
    """

    n: int
    rows: np.ndarray

    def constraint_rows(self) -> np.ndarray:
        # the trace is the functional whose row holds the identity's coordinates
        return np.vstack([np.eye(self.n)[np.triu_indices(self.n)], self.rows])

    def quadratic_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights of the diagonal quadratic forms (numerator P, denominator Q)
        on the coordinates: sum_ij a_ij^2 counts an off-diagonal entry twice,
        and each a_1j (row index 0) appears once in the gradient row."""
        upper = np.triu_indices(self.n)
        return np.where(upper[0] == upper[1], 1.0, 2.0), (upper[0] == 0).astype(float)

    def free_coordinates(self) -> np.ndarray:
        """Mask of the coordinates no constraint row touches: free axes of the feasible set."""
        return ~self.constraint_rows().any(axis=0)

    def nullspace(self) -> np.ndarray:
        return _null_space(self.constraint_rows())

    def matrix_from_coordinates(self, vec: np.ndarray) -> np.ndarray:
        upper = np.triu_indices(self.n)
        a = np.zeros((self.n, self.n))
        a[upper] = vec
        a.T[upper] = vec
        return a

    def objective(self, a: np.ndarray) -> float:
        a = np.asarray(a, dtype=float)
        denom = float(np.sum(a[0] ** 2))
        if denom == 0.0:
            raise ZeroDivisionError("gradient row vanishes")
        return float(np.sum(a * a) / denom)


def _null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis of ``mat`` in columns, at scipy's rank cut-off."""
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > s.max(initial=0.0) * max(mat.shape) * np.finfo(float).eps))
    return vh[rank:].T


@dataclass
class KernelResult:
    ratio: float
    rational: Fraction
    minimizer: np.ndarray
    drift: float
    eigen_ratio: float
    closed_ratio: float


def _closed_form(problem: RatioProblem) -> tuple[float, np.ndarray]:
    """Best Cauchy-Schwarz block bound over constraints containing a_11.

    Scans diagonal-only constraint rows through a_11; the row with the
    fewest partners gives the largest bound 1 + 1/k, and its structured
    minimizer must satisfy every other constraint.
    """
    rows = problem.constraint_rows()
    upper = np.triu_indices(problem.n)
    on_diagonal = upper[0] == upper[1]
    best = None
    for row in rows[~rows[:, ~on_diagonal].any(axis=1)]:
        diagonal = row[on_diagonal]
        if diagonal[0] == 0.0:
            continue
        partners = np.flatnonzero(diagonal[1:]) + 1
        weights = diagonal[partners] / diagonal[0]
        # equal weights are required for the Schwarz step to be sharp
        if not partners.size or np.abs(weights - 1.0).max() > 1e-12:
            continue
        cand = np.zeros((problem.n, problem.n))
        cand[0, 0] = -float(partners.size)
        cand[partners, partners] = 1.0 / weights
        if np.abs(rows @ cand[upper]).max() >= 1e-9:
            continue
        bound = 1.0 + 1.0 / partners.size
        if best is None or bound > best[0]:
            best = (bound, cand)
    if best is None:
        raise ValueError("no diagonal constraint through a_11")
    return best


def rayleigh_ratio(problem: RatioProblem) -> tuple[float, np.ndarray]:
    """Minimal ratio by the generalized eigenvalue route alone.

    No cross-check; use for probing nonstandard constraint sets where
    the structured closed form does not apply.
    """
    basis = problem.nullspace()
    if basis.shape[1] == 0:
        raise ValueError("constraints leave no feasible matrix")
    p, q = problem.quadratic_weights()
    pp = (basis.T * p) @ basis
    qq = (basis.T * q) @ basis
    if np.abs(qq).max() < 1e-14:
        raise ValueError("constraints force the gradient row to vanish")
    # largest mu of Q v = mu P v, the minimal ratio 1 / mu: with P = L L^T, the largest
    # eigenvalue of L^-1 Q L^-T, and v = L^-T w for its eigenvector w
    inverse = np.linalg.inv(np.linalg.cholesky(pp))
    mu, vecs = np.linalg.eigh(inverse @ qq @ inverse.T)
    mu_max = float(mu[-1])
    if mu_max <= 0:
        raise ValueError("denominator form vanishes on the feasible set")
    minimizer = problem.matrix_from_coordinates(basis @ inverse.T @ vecs[:, -1])
    return 1.0 / mu_max, minimizer


def min_bochner_ratio(problem: RatioProblem) -> KernelResult:
    """Sharp minimal ratio with the dual-route cross-check.

    Raises if the eigenvalue route and the closed form disagree beyond
    1e-8, or if the constraints force the denominator to vanish.
    """
    eigen_ratio, minimizer = rayleigh_ratio(problem)
    closed_ratio, closed_minimizer = _closed_form(problem)
    if abs(closed_ratio - eigen_ratio) > 1e-8:
        raise ArithmeticError(
            f"ratio routes disagree: closed {closed_ratio!r} vs eigen {eigen_ratio!r}"
        )
    rational = Fraction(eigen_ratio).limit_denominator(64)
    if abs(float(rational) - eigen_ratio) > 1e-9:
        raise ArithmeticError(f"minimal ratio {eigen_ratio!r} is not a small rational")
    ratio = float(rational)
    transform = kato_transform(ratio)
    return KernelResult(
        ratio=ratio,
        rational=rational,
        minimizer=minimizer,
        drift=transform.drift,
        eigen_ratio=eigen_ratio,
        closed_ratio=closed_ratio,
    )


def canonical_minimizer(minimizer: np.ndarray) -> np.ndarray:
    """Scale/sign normal form of a minimizer: a_11 negative, largest
    positive diagonal value one, off-diagonal noise zeroed."""
    a = np.array(minimizer, dtype=float)
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return a
    a /= scale
    off = a - np.diag(np.diag(a))
    if np.abs(off).max() < CANONICAL_TOL:
        a = np.diag(np.diag(a))
    if a[0, 0] > 0:
        a = -a
    positive = np.diag(a)[np.diag(a) > CANONICAL_TOL]
    if positive.size:
        a = a / positive.max()
    return a


def vanishing_threshold(b: float, lam1: float) -> float:
    """Ricci threshold -(b + 1) lam1 below which the argument closes."""
    if not b > -1.0:
        raise ValueError("b must exceed -1")
    if lam1 <= 0:
        raise ValueError("lam1 must be positive")
    return -(b + 1.0) * lam1


@dataclass(frozen=True)
class KatoTransform:
    exponent: float
    drift: float
    degenerate: bool


def kato_transform(ratio: float) -> KatoTransform:
    """Exponent and drift of g = h^{1-b} for the sharp ratio 1 + b.

    Substituting Delta h >= b |grad h|^2 / h - |Ric| h into
    Delta(h^k) = k h^{k-1} Delta h + k (k-1) h^{k-2} |grad h|^2 gives

        Delta g >= k (b + k - 1) h^{k-2} |grad h|^2 - k |Ric| g,

    and k = 1 - b makes the gradient coefficient vanish identically.  b
    and |Ric| = |MODEL_RICCI| are taken as small rationals, so exponent and
    drift are the exact fractions rounded once.  ratio = 2 means k = 0:
    flagged degenerate.
    """
    if not 1.0 < ratio <= 2.0:
        raise ValueError("ratio must lie in (1, 2]")
    b = Fraction(ratio - 1.0).limit_denominator(64)
    k = 1 - b
    if k == 0:
        return KatoTransform(exponent=0.0, drift=0.0, degenerate=True)
    drift = float(k * Fraction(abs(MODEL_RICCI)).limit_denominator(64))
    return KatoTransform(exponent=float(k), drift=drift, degenerate=False)


def sharpness_sample(problem: RatioProblem, result: KernelResult,
                     rng: np.random.Generator, samples: int) -> dict:
    """Empirical check that no feasible matrix beats the minimal ratio.

    Samples are isotropic Gaussians on the feasible space, null(C[:, ~F]) x R^F for
    the coordinates F no constraint row touches.  Grouped by their weights (w_p, w_q)
    in the numerator and the denominator, each class of k free coordinates adds w_p X
    to the one and w_q X to the other, X ~ chi^2(k).  The normals of the constrained
    part and the chi-square variates come from two streams spawned off ``rng``, drawn
    in blocks of ``octonion.MUL_BLOCK_ROWS`` rows that continue each stream, so the
    counts do not depend on the block size.
    """
    free = problem.free_coordinates()
    basis = _null_space(problem.constraint_rows()[:, ~free])
    weights = np.stack(problem.quadratic_weights(), axis=1)  # (numerator, denominator) columns
    classes, sizes = np.unique(weights[free], axis=0, return_counts=True)
    normal_rng, chi_rng = rng.spawn(2)
    step = min(octonion.MUL_BLOCK_ROWS, samples)
    normals = np.empty((step, basis.shape[1]))
    squares = np.empty((step, basis.shape[0]))
    feasible = violations = 0
    for start in range(0, samples, step):
        rows = min(step, samples - start)
        normal_rng.standard_normal(out=normals[:rows])
        np.square(np.matmul(normals[:rows], basis.T, out=squares[:rows]), out=squares[:rows])
        chi = chi_rng.chisquare(sizes, (rows, sizes.size))
        num, den = (squares[:rows] @ weights[~free] + chi @ classes).T
        good = den > 1e-12 * num
        feasible += int(np.sum(good))
        violations += int(np.sum(num[good] / den[good] < result.ratio - 1e-12))
    return {"samples": feasible, "violations": violations}

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

A disagreement beyond 1e-8 raises; nothing is averaged away.  The sharp
ratio 1 + b sets the exponent of the Kato-type transform g = h^{1-b}, the
one exponent for which the gradient term of the Bochner inequality
vanishes identically; what remains is the drift constant |Ric| (1 - b),
for the 16-dimensional model 36 * 6/7 = 216/7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .forms import ConstraintSet

MODEL_RICCI = -36.0
MODEL_LAMBDA1 = 121.0


@dataclass(frozen=True)
class RatioProblem:
    """Minimize ratio(a) over constrained trace-free symmetric matrices.

    ``constraints`` may be a ConstraintSet or a bare list of functional
    rows; the trace functional is always appended.  ``distinguished`` is
    the index of the gradient direction (the denominator row).
    """

    n: int
    constraints: object = None
    distinguished: int = 0

    def coordinate_list(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i, self.n)]

    def constraint_rows(self) -> list[dict]:
        rows: list[dict] = [{(i, i): 1.0 for i in range(self.n)}]  # trace free
        source = self.constraints
        if source is None:
            return rows
        iterable = source.rows if isinstance(source, ConstraintSet) else source
        for row in iterable:
            rows.append(dict(row))
        return rows

    def quadratic_forms(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal quadratic forms (numerator P, denominator Q) in
        collected coordinates a_ij, i <= j."""
        coords = self.coordinate_list()
        p = np.array([1.0 if i == j else 2.0 for (i, j) in coords])
        q = np.zeros(len(coords))
        d = self.distinguished
        for k, (i, j) in enumerate(coords):
            if i == d and j == d:
                q[k] = 1.0
            elif i == d or j == d:
                q[k] = 1.0  # a_dj appears once in the gradient row
        return np.diag(p), np.diag(q)

    def nullspace(self) -> np.ndarray:
        coords = {c: k for k, c in enumerate(self.coordinate_list())}
        rows = self.constraint_rows()
        mat = np.zeros((len(rows), len(coords)))
        for r, row in enumerate(rows):
            for (i, j), val in row.items():
                # off-diagonal functional coefficients act on a_ij + a_ji
                mat[r, coords[(i, j)]] += val if i == j else 2.0 * val
        return scipy.linalg.null_space(mat)

    def matrix_from_coordinates(self, vec: np.ndarray) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for k, (i, j) in enumerate(self.coordinate_list()):
            a[i, j] = vec[k]
            a[j, i] = vec[k]
        return a

    def objective(self, a: np.ndarray) -> float:
        a = np.asarray(a, dtype=float)
        denom = float(np.sum(a[self.distinguished] ** 2))
        if denom == 0.0:
            raise ZeroDivisionError("distinguished row vanishes")
        return float(np.sum(a * a) / denom)


@dataclass
class KernelResult:
    ratio: float
    rational: Fraction
    minimizer: np.ndarray
    exponent: float
    drift: float
    eigen_ratio: float
    closed_ratio: float


def _closed_form(problem: RatioProblem) -> tuple[float, np.ndarray]:
    """Best Cauchy-Schwarz block bound over constraints containing a_11.

    Scans diagonal-only constraint rows through the distinguished entry;
    the row with the fewest partners gives the largest bound 1 + 1/k, and
    its structured minimizer must satisfy every other constraint.
    """
    d = problem.distinguished
    rows = problem.constraint_rows()
    best = None
    for row in rows:
        if any(i != j for (i, j) in row):
            continue
        pivot = row.get((d, d), 0.0)
        if pivot == 0.0:
            continue
        partners = [(i, val / pivot) for (i, i2), val in row.items() if i == i2 and i != d]
        if not partners or any(w <= 0 for _, w in partners):
            continue
        k = len(partners)
        cand = np.zeros((problem.n, problem.n))
        cand[d, d] = -float(k)
        for i, w in partners:
            cand[i, i] = 1.0 / w
        # equal weights are required for the Schwarz step to be sharp
        if any(abs(w - 1.0) > 1e-12 for _, w in partners):
            continue
        feasible = all(
            abs(sum(val * (cand[i, j] if i == j else 2.0 * cand[i, j]) for (i, j), val in r.items())) < 1e-9
            for r in rows
        )
        if not feasible:
            continue
        bound = 1.0 + 1.0 / k
        if best is None or bound > best[0]:
            best = (bound, cand)
    if best is None:
        raise ValueError("no diagonal constraint through the distinguished entry")
    return best


def rayleigh_ratio(problem: RatioProblem) -> tuple[float, np.ndarray]:
    """Minimal ratio by the generalized eigenvalue route alone.

    No cross-check; use for probing nonstandard constraint sets where
    the structured closed form does not apply.
    """
    basis = problem.nullspace()
    if basis.shape[1] == 0:
        raise ValueError("constraints leave no feasible matrix")
    p, q = problem.quadratic_forms()
    pp = basis.T @ p @ basis
    qq = basis.T @ q @ basis
    if np.abs(qq).max() < 1e-14:
        raise ValueError("constraints force the distinguished row to vanish")
    # largest mu of Q v = mu P v; the minimal ratio is 1 / mu
    mu, vecs = scipy.linalg.eigh(qq, pp)
    mu_max = float(mu[-1])
    if mu_max <= 0:
        raise ValueError("denominator form vanishes on the feasible set")
    minimizer = problem.matrix_from_coordinates(basis @ vecs[:, -1])
    return 1.0 / mu_max, minimizer


def min_bochner_ratio(problem: RatioProblem, ricci: float = MODEL_RICCI) -> KernelResult:
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
    transform = kato_transform(ratio, ricci)
    return KernelResult(
        ratio=ratio,
        rational=rational,
        minimizer=minimizer,
        exponent=transform.exponent,
        drift=transform.drift,
        eigen_ratio=eigen_ratio,
        closed_ratio=closed_ratio,
    )


def canonical_minimizer(minimizer: np.ndarray, problem: RatioProblem,
                        tol: float = 1e-9) -> np.ndarray:
    """Scale/sign normal form of a minimizer: distinguished entry negative,
    largest positive diagonal value one, off-diagonal noise zeroed."""
    a = np.array(minimizer, dtype=float)
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return a
    a /= scale
    off = a - np.diag(np.diag(a))
    if np.abs(off).max() < tol:
        a = np.diag(np.diag(a))
    d = problem.distinguished
    if a[d, d] > 0:
        a = -a
    positive = np.diag(a)[np.diag(a) > tol]
    if positive.size:
        a = a / positive.max()
    return a


def vanishing_threshold(b: float, lam1: float = MODEL_LAMBDA1) -> float:
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


def kato_transform(ratio: float, ricci: float = MODEL_RICCI) -> KatoTransform:
    """Exponent and drift of g = h^{1-b} for the sharp ratio 1 + b.

    Substituting Delta h >= b |grad h|^2 / h - |Ric| h into
    Delta(h^k) = k h^{k-1} Delta h + k (k-1) h^{k-2} |grad h|^2 gives

        Delta g >= k (b + k - 1) h^{k-2} |grad h|^2 - k |Ric| g,

    and k = 1 - b makes the gradient coefficient vanish identically.  b
    and |Ric| are taken as small rationals, so exponent and drift are the
    exact fractions rounded once.  ratio = 2 means k = 0: flagged
    degenerate.
    """
    if not 1.0 < ratio <= 2.0:
        raise ValueError("ratio must lie in (1, 2]")
    if ricci >= 0:
        raise ValueError("the transform targets negative Ricci")
    b = Fraction(ratio - 1.0).limit_denominator(64)
    k = 1 - b
    if k == 0:
        return KatoTransform(exponent=0.0, drift=0.0, degenerate=True)
    drift = float(k * Fraction(abs(ricci)).limit_denominator(64))
    return KatoTransform(exponent=float(k), drift=drift, degenerate=False)


def sharpness_sample(problem: RatioProblem, result: KernelResult,
                     rng: np.random.Generator, samples: int = 100000) -> dict:
    """Empirical check that no feasible matrix beats the minimal ratio."""
    basis = problem.nullspace()
    weights_p, weights_q = (np.diag(form) for form in problem.quadratic_forms())
    z = rng.standard_normal((samples, basis.shape[1]))
    vecs = z @ basis.T
    num = (vecs * vecs) @ weights_p
    den = (vecs * vecs) @ weights_q
    good = den > 1e-12 * num
    ratios = num[good] / den[good]
    return {
        "samples": int(np.sum(good)),
        "min_ratio_observed": float(ratios.min()),
        "violations": int(np.sum(ratios < result.ratio - 1e-12)),
    }

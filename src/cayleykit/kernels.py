"""Sharp refined-Kato ratios for constrained Hessians.

For a symmetric matrix a (a Hessian surrogate at a critical frame, first
basis vector along the gradient), the quantity of interest is

    ratio(a) = sum_ij a_ij^2 / sum_j a_1j^2,

minimized over the trace-free matrices satisfying the linear constraints
extracted from a parallel form.  The minimum is found twice:

* numerically, as the extreme generalized eigenvalue of the two quadratic
  forms restricted to the constraint subspace;
* exactly, by ``certify_ratio``: that eigenvalue, read as a small
  rational r, is proved minimal by an elimination in ``Fraction`` showing
  that P - r Q is positive semidefinite and singular on the feasible space.

A candidate the certificate rejects raises, and a run reports it as the
failed check ``kernels.crashed``; nothing is averaged away.  The sharp
ratio 1 + b sets the exponent of the Kato-type transform g = h^{1-b}, the
one exponent for which the gradient term of the Bochner inequality
vanishes identically; what remains is the drift constant |Ric| (1 - b),
for the 16-dimensional model 36 * 6/7 = 216/7.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forms import MAX_DENOMINATOR

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
        """Orthonormal null-space basis of the constraint rows in columns; singular values at
        most s_max max(m, n) eps count as zero."""
        rows = self.constraint_rows()
        _, s, vh = np.linalg.svd(rows)
        rank = int(np.sum(s > s.max(initial=0.0) * max(rows.shape) * np.finfo(float).eps))
        return vh[rank:].T

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


@dataclass
class KernelResult:
    ratio: float
    rational: Fraction
    minimizer: np.ndarray
    drift: float
    eigen_ratio: float


def _exact(x: float) -> Fraction:
    """A row entry as the fraction ``ConstraintSet`` snapped it to."""
    frac = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    if float(frac) != x:
        raise ValueError(f"constraint entry {x!r} is not a fraction of denominator <= {MAX_DENOMINATOR}")
    return frac


def _exact_null_space(rows: list[list[Fraction]], width: int) -> list[dict[int, Fraction]]:
    """Null-space basis of ``rows`` by Gauss-Jordan elimination, one sparse vector
    {column: value} per non-pivot column."""
    pivots: list[int] = []
    for col in range(width):
        hit = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        top = len(pivots)
        rows[top], rows[hit] = rows[hit], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    basis = []
    for col in sorted(set(range(width)) - set(pivots)):
        vec = {pc: -rows[i][col] for i, pc in enumerate(pivots) if rows[i][col]}
        vec[col] = Fraction(1)
        basis.append(vec)
    return basis


def certify_ratio(problem: RatioProblem, r: Fraction) -> str | None:
    """Exact proof that ``r`` is the minimal ratio: None if it is, else why it is not.

    The free coordinates of denominator weight 0 only add to the numerator, so they
    are dropped.  On the others, an exact basis B of the feasible space gives
    M = B^T (P - r Q) B, and a symmetric elimination of M decides: a negative pivot,
    or a zero pivot with a nonzero remaining row, puts r above the minimum; no zero
    pivot at all (M positive definite) puts it below.  A semidefinite singular M
    proves r minimal: P is positive definite, so a kernel vector has Q > 0 and
    attains r.
    """
    p, q = problem.quadratic_weights()
    keep = ~(problem.free_coordinates() & (q == 0))
    rows = [[_exact(x) for x in row] for row in problem.constraint_rows()[:, keep]]
    basis = _exact_null_space(rows, int(keep.sum()))
    diag = [Fraction(pk) - r * Fraction(qk) for pk, qk in zip(p[keep], q[keep])]
    m = [[sum(diag[c] * u * bj[c] for c, u in bi.items() if c in bj) for bj in basis]
         for bi in basis]
    singular = False
    for k, row in enumerate(m):
        if row[k] < 0:
            return f"{r} is above the minimum: pivot {k} of B^T (P - r Q) B is negative"
        if row[k] == 0:
            if any(row[k + 1:]):
                return f"{r} is above the minimum: pivot {k} of B^T (P - r Q) B is zero, its row not"
            singular = True
            continue
        for below in m[k + 1:]:
            if below[k]:
                factor = below[k] / row[k]
                below[k + 1:] = [x - factor * y if y else x for x, y in zip(below[k + 1:], row[k + 1:])]
    return None if singular else f"{r} is below the minimum: B^T (P - r Q) B is positive definite"


def rayleigh_ratio(problem: RatioProblem) -> tuple[float, np.ndarray]:
    """Minimal ratio by the generalized eigenvalue route alone, with no certificate."""
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
    """Sharp minimal ratio: the eigenvalue route, read as a small rational, certified.

    Raises if the eigenvalue is no small rational or the certificate rejects it, or if
    the constraints force the denominator to vanish.
    """
    eigen_ratio, minimizer = rayleigh_ratio(problem)
    rational = Fraction(eigen_ratio).limit_denominator(MAX_DENOMINATOR)
    if abs(float(rational) - eigen_ratio) > 1e-9:
        raise ArithmeticError(f"minimal ratio {eigen_ratio!r} is not a small rational")
    reason = certify_ratio(problem, rational)
    if reason is not None:
        raise ArithmeticError(f"eigen route {eigen_ratio!r} not certified: {reason}")
    return KernelResult(
        ratio=float(rational),
        rational=rational,
        minimizer=minimizer,
        drift=kato_transform(rational).drift,
        eigen_ratio=eigen_ratio,
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


def kato_transform(ratio: Fraction) -> KatoTransform:
    """Exponent and drift of g = h^{1-b} for the sharp ratio 1 + b.

    Substituting Delta h >= b |grad h|^2 / h - |Ric| h into
    Delta(h^k) = k h^{k-1} Delta h + k (k-1) h^{k-2} |grad h|^2 gives

        Delta g >= k (b + k - 1) h^{k-2} |grad h|^2 - k |Ric| g,

    and k = 1 - b makes the gradient coefficient vanish identically.  For an
    exact ratio, k and the drift k |MODEL_RICCI| are exact fractions, rounded
    once.  ratio = 2 means k = 0: flagged degenerate.
    """
    if not 1 < ratio <= 2:
        raise ValueError("ratio must lie in (1, 2]")
    k = 2 - ratio
    if k == 0:
        return KatoTransform(exponent=0.0, drift=0.0, degenerate=True)
    return KatoTransform(exponent=float(k), drift=float(k * abs(Fraction(MODEL_RICCI))),
                         degenerate=False)

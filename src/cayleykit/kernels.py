"""Sharp refined-Kato ratios for constrained Hessians.

For a symmetric matrix a (a Hessian surrogate at a critical frame, first
basis vector along the gradient), the quantity of interest is

    ratio(a) = sum_ij a_ij^2 / sum_j a_1j^2,

minimized over the trace-free matrices satisfying the linear constraints
of a ``forms.ConstraintSet``, which also owns their coordinates.  This
module holds the ratio alone: the weights of its two quadratic forms on the
coordinates, the objective and the feasible space's SVD null space.  The
minimum is found twice:

* numerically, as the extreme generalized eigenvalue of the two quadratic
  forms restricted to the constraint subspace;
* exactly, by ``certify_ratio``: that eigenvalue, read as a small
  rational r, is proved minimal by an elimination in ``Fraction`` showing
  that P - r Q is positive semidefinite and singular on the feasible space.

``min_bochner_ratio`` returns the certified ``Fraction``, the eigenvalue it
was read from and the eigen route's minimizer.  A candidate the certificate
rejects raises, and a run reports it as the failed check ``kernels.crashed``;
nothing is averaged away.  The sharp ratio 1 + b, 0 < b <= 1, sets the
exponent of the Kato-type transform g = h^{1-b}, the one exponent for which
the gradient term of the Bochner inequality vanishes identically; what
remains is the drift constant |Ric| (1 - b), for the 16-dimensional model
36 * 6/7 = 216/7.  ``kato_transform`` gives both as exact fractions, for the
|Ric| it is given: the model states it once, by the classes of ``geodesy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forms import MAX_DENOMINATOR, ROUND_TOL, ConstraintSet, row_reduce, small_fraction


def quadratic_weights(constraints: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the diagonal quadratic forms (numerator P, denominator Q) on the
    coordinates: sum_ij a_ij^2 counts an off-diagonal entry twice, and each a_1j
    (row index 0) appears once in the gradient row."""
    gradient_row = np.zeros((constraints.n, constraints.n))
    gradient_row[0] = 1.0
    return constraints.coordinates(2.0 - np.eye(constraints.n)), constraints.coordinates(gradient_row)


def nullspace(constraints: ConstraintSet) -> np.ndarray:
    """Orthonormal basis, in columns, of the trace-free feasible coordinates; singular
    values at most s_max max(m, n) eps count as zero."""
    rows = constraints.trace_free_rows()
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.sum(s > s.max(initial=0.0) * max(rows.shape) * np.finfo(float).eps))
    return vh[rank:].T


def objective(a: np.ndarray) -> float:
    """ratio(a) of an n x n matrix; raises if its gradient row vanishes."""
    a = np.asarray(a, dtype=float)
    denom = float(np.sum(a[0] ** 2))
    if denom == 0.0:
        raise ZeroDivisionError("gradient row vanishes")
    return float(np.sum(a * a) / denom)


@dataclass
class KernelResult:
    rational: Fraction
    eigen_ratio: float
    minimizer: np.ndarray


def certify_ratio(constraints: ConstraintSet, r: Fraction) -> str | None:
    """Exact proof that ``r`` is the minimal ratio: None if it is, else why it is not.

    Each row entry must be exactly the float of a fraction of denominator <= 64, as
    ``ConstraintSet.from_functionals`` snaps them.  The free coordinates of denominator
    weight 0 only add to the numerator, so they are dropped.  On the others, ``row_reduce``
    gives an exact basis B of the feasible space, one sparse vector per non-pivot column,
    and M = B^T (P - r Q) B; a symmetric elimination of M decides: a negative pivot, or a
    zero pivot with a nonzero remaining row, puts r above the minimum; no zero pivot at
    all (M positive definite) puts it below.  A semidefinite singular M proves r minimal:
    P is positive definite, so a kernel vector has Q > 0 and attains r.
    """
    p, q = quadratic_weights(constraints)
    keep = ~(constraints.free_coordinates() & (q == 0))
    entries = constraints.trace_free_rows()[:, keep].tolist()
    rows = [[small_fraction(x, 0.0) if x else 0 for x in row] for row in entries]
    bad = [x for row, exact in zip(entries, rows) for x, frac in zip(row, exact) if frac is None]
    if bad:
        raise ValueError(f"constraint entry {bad[0]!r} is not a fraction of denominator "
                         f"<= {MAX_DENOMINATOR}")
    width = int(keep.sum())
    pivots = row_reduce(rows, width)
    basis = [{**{pc: -rows[i][col] for i, pc in enumerate(pivots) if rows[i][col]}, col: Fraction(1)}
             for col in sorted(set(range(width)) - set(pivots))]
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


def rayleigh_ratio(constraints: ConstraintSet) -> tuple[float, np.ndarray]:
    """Minimal ratio by the generalized eigenvalue route alone, with no certificate."""
    basis = nullspace(constraints)
    if basis.shape[1] == 0:
        raise ValueError("constraints leave no feasible matrix")
    p, q = quadratic_weights(constraints)
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
    minimizer = constraints.matrix(basis @ inverse.T @ vecs[:, -1])
    return 1.0 / mu_max, minimizer


def min_bochner_ratio(constraints: ConstraintSet) -> KernelResult:
    """Sharp minimal ratio: the eigenvalue route, read as a small rational, certified.

    Raises if the eigenvalue is no small rational or the certificate rejects it, or if
    the constraints force the denominator to vanish.
    """
    eigen_ratio, minimizer = rayleigh_ratio(constraints)
    rational = small_fraction(eigen_ratio, ROUND_TOL)
    if rational is None:
        raise ArithmeticError(f"minimal ratio {eigen_ratio!r} is not a small rational")
    reason = certify_ratio(constraints, rational)
    if reason is not None:
        raise ArithmeticError(f"eigen route {eigen_ratio!r} not certified: {reason}")
    return KernelResult(rational, eigen_ratio, minimizer)


def vanishing_threshold(b: float, lam1: float) -> float:
    """Ricci threshold -(b + 1) lam1 below which the argument closes."""
    if not b > -1.0:
        raise ValueError("b must exceed -1")
    if lam1 <= 0:
        raise ValueError("lam1 must be positive")
    return -(b + 1.0) * lam1


def kato_transform(ratio: Fraction, ricci_norm: float) -> tuple[Fraction, Fraction]:
    """Exact exponent k and drift k |Ric| of g = h^{1-b} for the sharp ratio 1 + b and
    ``ricci_norm`` = |Ric|.

    Substituting Delta h >= b |grad h|^2 / h - |Ric| h into
    Delta(h^k) = k h^{k-1} Delta h + k (k-1) h^{k-2} |grad h|^2 gives

        Delta g >= k (b + k - 1) h^{k-2} |grad h|^2 - k |Ric| g,

    and k = 1 - b makes the gradient coefficient vanish identically.  The
    Kahler ratio 2 gives k = 0: g = h^0 is constant and carries no drift.
    """
    if not 1 < ratio <= 2:
        raise ValueError("ratio must lie in (1, 2]")
    k = 2 - ratio
    return k, k * abs(Fraction(ricci_norm))

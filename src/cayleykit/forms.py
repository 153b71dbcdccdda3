"""Candidate parallel forms and the linear constraints they impose.

A parallel p-form Omega turns the surrogate pairing T(a, Omega) into a
linear map on symmetric matrices a, and the statement "T(a, Omega) = 0"
becomes a list of linear functionals: one per monomial of the output.
This module builds the three candidates

* ``kahler_form(n)``        -- -sum_i theta^i ^ theta^{n+i} on R^{2n};
* ``quaternionic_form(n)``  -- om1^om1 + om2^om2 + om3^om3 on R^{4n} for
  the three almost-complex structures of the block frame (e, Ie, Je, Ke);
* ``spin9_form(table)``     -- the Cayley 8-form Phi on R^16 = O^2,

each a one-row ``exterior`` batch (masks, coeffs), and extracts the
constraint functionals of designated target monomials (the diagonal pair,
quaternionic line and top monomials respectively).
A functional is a float row over the coordinates a[np.triu_indices(n)] of
a symmetric a; an off-diagonal coordinate collects both index orders, so
the row's value on a is ``row @ a[np.triu_indices(n)]``.  This module is
the one place that convention is written: ``ConstraintSet``, the one
constraint type here and in ``kernels``, converts coordinates and matrices
and gives the trace row and the free coordinates.  Its rows are
canonicalized by ``row_reduce``, the one exact Gauss-Jordan elimination,
which the certificate in ``kernels`` shares; a float reads as a small
fraction through ``small_fraction``.

Phi is Parton and Piccinni's tau_4(psi) (Ann. Global Anal. Geom. 2012):
the sum over i<j<k<l of (om_ij ^ om_kl - om_ik ^ om_jl + om_il ^ om_jk)^2,
with om_ij = <I_i I_j ., .> for ``octonion.clifford_involutions`` of the
table a run verifies.  It has no (7,1) or (1,7) terms, so the top
functionals read the tops alone.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .exterior import collect, mask_of, pair_action, sum_terms, wedge, wedge_sign
from .octonion import DEFAULT_TABLE, MultiplicationTable, clifford_involutions

SPIN9_DIM = 16
V_TOP = (1 << 8) - 1              # v_0 ^ ... ^ v_7
W_TOP = ((1 << 8) - 1) << 8       # w_0 ^ ... ^ w_7
CAYLEY_SCALE = -5040.0            # Phi / CAYLEY_SCALE has tops -v_0^...^v_7 + w_0^...^w_7
PSI_SIGNS = (1.0, -1.0, 1.0)      # psi_ijkl = om_ij ^ om_kl - om_ik ^ om_jl + om_il ^ om_jk
# a float within ROUND_TOL of a fraction with denominator <= MAX_DENOMINATOR reads as it: a
# canonical row entry (zero included) and the eigen route's ratio in ``kernels``
ROUND_TOL = 1e-9
MAX_DENOMINATOR = 64


def kahler_form(n: int):
    """The 2-form -sum theta^i ^ theta^{n+i} on R^{2n}."""
    if n < 1 or 2 * n > SPIN9_DIM:
        raise ValueError("complex dimension out of range")
    return np.array([kahler_targets(n)]), np.full((1, n), -1.0)


def kahler_targets(n: int) -> tuple[int, ...]:
    """Designated monomials theta^i ^ theta^{n+i} for the diagonal functionals."""
    return tuple(mask_of((i, n + i)) for i in range(n))


def quaternionic_kahler_forms(n: int):
    """The three 2-forms g(., I .), g(., J .), g(., K .) of the block frame, one row each.

    Blocks at offsets 0, n, 2n, 3n carry e, Ie, Je, Ke; the structures
    satisfy IJ = -JI = K and cyclic relations.
    """
    if n < 1 or 4 * n > SPIN9_DIM:
        raise ValueError("quaternionic dimension out of range")
    e, i, j, k = (np.left_shift(1, np.arange(n) + block * n) for block in range(4))
    masks = np.array([[e | i, j | k], [e | j, i | k], [e | k, i | j]])
    coeffs = np.array([[-1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])[..., None].repeat(n, axis=-1)
    return masks.reshape(3, -1), coeffs.reshape(3, -1)


def quaternionic_form(n: int):
    """The parallel 4-form om1^om1 + om2^om2 + om3^om3 on R^{4n}."""
    masks, coeffs = quaternionic_kahler_forms(n)
    return collect(*wedge(masks, coeffs, masks, coeffs))


def quaternionic_targets(n: int) -> tuple[int, ...]:
    """Quaternionic-line monomials theta^i ^ theta^{i+n} ^ theta^{i+2n} ^ theta^{i+3n}."""
    return tuple(mask_of((i, n + i, 2 * n + i, 3 * n + i)) for i in range(n))


# ---------------------------------------------------------------------------
# The Cayley 8-form


@functools.cache
def _cayley_terms(table: MultiplicationTable):
    """Phi / CAYLEY_SCALE of ``table`` as read-only (masks, coeffs), built once per process.

    One ``wedge`` call gives the 8 x 8 terms of each of the 126 x 3 products
    in psi.  A 4-form commutes with itself, so psi ^ psi is twice the sum over
    the disjoint term pairs s < t of psi, each signed by ``wedge_sign``; one
    psi at a time.
    """
    inv = clifford_involutions(table)
    p, q = np.triu_indices(SPIN9_DIM, 1)
    omega = (inv[:, None] @ inv)[..., q, p]  # omega_ij(e_p, e_q) = <I_i I_j e_p, e_q>
    # the eight terms of each omega_ij, i != j (I_i I_j is a signed permutation)
    terms = np.argsort(omega == 0.0, axis=-1, kind="stable")[..., :8]
    om_m, om_c = (1 << p | 1 << q)[terms], np.take_along_axis(omega, terms, axis=-1)
    a, b, c, d = np.array(list(itertools.combinations(range(9), 4))).T
    left = np.stack([a, a, a], axis=-1), np.stack([b, c, d], axis=-1)
    right = np.stack([c, b, b], axis=-1), np.stack([d, d, c], axis=-1)
    masks, coeffs = wedge(om_m[left], om_c[left], om_m[right], om_c[right])  # (126, 3, 64)
    keys, sums = sum_terms(np.arange(a.size)[:, None, None] << SPIN9_DIM | masks,
                           np.array(PSI_SIGNS)[:, None] * coeffs)
    keys, sums = keys[sums != 0.0], sums[sums != 0.0]
    bounds = np.searchsorted(keys >> SPIN9_DIM, np.arange(1, a.size))
    phi = np.zeros(1 << SPIN9_DIM)
    for m, w in zip(np.split(keys & phi.size - 1, bounds), np.split(sums, bounds)):
        s, t = np.nonzero(np.triu(m[:, None] & m == 0, 1))
        phi += np.bincount(m[s] | m[t], weights=2.0 * w[s] * w[t] * wedge_sign(m[s], m[t]),
                           minlength=phi.size)
    masks = np.flatnonzero(phi)
    coeffs = phi[masks] / CAYLEY_SCALE
    masks.flags.writeable = coeffs.flags.writeable = False
    return masks, coeffs


def spin9_form(table: MultiplicationTable = DEFAULT_TABLE):
    """The Cayley form Phi / CAYLEY_SCALE of ``table``, read-only: tops -1 (v) and +1 (w)."""
    masks, coeffs = _cayley_terms(table)
    return masks[None], coeffs[None]


def so_action(n: int, masks, coeffs):
    """The matrix of a -> T(a, form) on so(n): one row per basis element
    e_p e_q^T - e_q e_p^T (p < q), one column per monomial it can produce.

    Returns its (row, column, value) triplets, where a repeated (row, column)
    adds up, and its shape.
    """
    p, q = np.triu_indices(n, 1)
    row = np.zeros((n, n), dtype=np.int64)
    row[p, q] = row[q, p] = np.arange(p.size)
    masks, coeffs, i, j = pair_action(n, masks, coeffs)
    coeffs = np.sign(j - i) * coeffs  # a_ij = +1 for i < j, -1 for i > j, 0 on the diagonal
    live = coeffs != 0.0
    cols, inverse = np.unique(masks[live], return_inverse=True)
    return (row[i, j][live], inverse, coeffs[live]), (p.size, cols.size)


def spin9_targets() -> tuple[int, int]:
    return V_TOP, W_TOP


def _near_terms(masks, coeffs, targets):
    """The terms of a one-row form one index swap or less from a target (popcount(m ^ t) <= 2),
    as a one-row form: the only terms eps(theta^i) l(e_j) can carry onto a target."""
    near = (np.bitwise_count(masks[..., None] ^ np.array(targets, dtype=masks.dtype)) <= 2).any(axis=-1)
    return masks[near][None], coeffs[near][None]


def no_leak_report(masks, coeffs) -> float:
    """Max coefficient the non-top terms of an 8-form on R^16 contribute to either top monomial.

    Sums the terms of eps(theta^i) l(e_j) that land on a top monomial, per
    index pair (i, j) and top, over all 256 pairs; without (7,1) or (1,7)
    terms every sum is zero.  Only the ``_near_terms`` of the tops are expanded.
    """
    n = SPIN9_DIM
    masks, coeffs = _near_terms(masks, coeffs, spin9_targets())
    masks, coeffs, i, j = pair_action(n, masks, np.where(np.isin(masks, spin9_targets()), 0.0, coeffs))
    top = ((masks == V_TOP) | (masks == W_TOP)) & (coeffs != 0.0)
    keys = (masks == W_TOP) * n * n + i * n + j
    _, leaks = sum_terms(keys[top], coeffs[top])
    return float(np.abs(leaks).max(initial=0.0))


# ---------------------------------------------------------------------------
# Constraint extraction


def _columns(n: int) -> np.ndarray:
    """(n, n) map from an entry (i, j), in either order, to its coordinate."""
    cols = np.zeros((n, n), dtype=np.int64)
    cols[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
    return cols + np.triu(cols, 1).T


def diagonal_rows(n: int, groups) -> np.ndarray:
    """One row per index group: the sum of the group's diagonal entries."""
    rows = np.zeros((len(groups), n * (n + 1) // 2))
    for row, group in zip(rows, groups):
        row[np.diag(_columns(n))[list(group)]] = 1.0
    return rows


def monomial_functionals(n: int, masks, coeffs, targets) -> np.ndarray:
    """The functional in a of each target output monomial of T(a, omega), omega on R^n.

    Returns one row per target.  The coefficient of the coordinate (i, j)
    sums the terms of both a_ij and a_ji.  Only the ``_near_terms`` of the
    targets are expanded.
    """
    masks, coeffs, i, j = pair_action(n, *_near_terms(masks, coeffs, targets))
    cols = _columns(n)[i, j]
    rows = np.zeros((len(targets), n * (n + 1) // 2))
    for row, target in zip(rows, targets):
        hit = masks == target
        row[:] = np.bincount(cols[hit], weights=coeffs[hit], minlength=row.size)
    return rows


def small_fraction(x: float, tol: float) -> Fraction | None:
    """The fraction of denominator <= MAX_DENOMINATOR nearest x, if within ``tol`` of it; else None."""
    frac = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    return frac if abs(float(frac) - x) <= tol else None


def row_reduce(rows: list[list[Fraction | int]], width: int) -> list[int]:
    """Exact Gauss-Jordan elimination in place, on Fractions and the int 0: returns the pivot
    columns, ascending, and leaves the reduced row echelon form (unit pivots) in the first
    ``len(pivots)`` rows."""
    pivots: list[int] = []
    for col in range(width):
        hit = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        top = len(pivots)
        rows[top], rows[hit] = rows[hit], rows[top]
        pivot = rows[top][col]
        rows[top] = [x / pivot if x else x for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                factor = row[col]
                rows[i] = [x - factor * y if y else x for x, y in zip(row, rows[top])]
        pivots.append(col)
    return pivots


class ConstraintSet:
    """Linear functionals on symmetric n x n matrices, as an (r, n(n+1)/2) array ``rows``
    over the coordinates a[np.triu_indices(n)].

    ``from_functionals`` puts raw rows in canonical form: reduced row echelon form
    (ascending pivots, unit pivot coefficient, near-rational entries snapped to
    denominators <= 64), so two extractions of the same constraint space compare equal.
    ``kernels`` minimizes its ratio over the trace-free matrices these rows annihilate.
    """

    def __init__(self, n: int, rows: np.ndarray):
        self.n = n
        self.rows = rows

    def __eq__(self, other):
        return (isinstance(other, ConstraintSet) and self.n == other.n
                and np.array_equal(self.rows, other.rows))

    def __repr__(self):
        return f"ConstraintSet(n={self.n}, rows={len(self.rows)})"

    def coordinates(self, a: np.ndarray) -> np.ndarray:
        """The coordinates of an n x n matrix: its upper triangle, row by row."""
        return a[np.triu_indices(self.n)]

    def matrix(self, vec: np.ndarray) -> np.ndarray:
        """The symmetric matrix with coordinates ``vec``."""
        return np.asarray(vec)[_columns(self.n)]

    def trace_free_rows(self) -> np.ndarray:
        """The rows with the trace functional prepended: they cut out the trace-free
        matrices that satisfy the constraints."""
        return np.vstack([diagonal_rows(self.n, [range(self.n)]), self.rows])

    def free_coordinates(self) -> np.ndarray:
        """Mask of the coordinates no row of ``trace_free_rows`` touches: free axes of the
        trace-free feasible set."""
        return ~self.trace_free_rows().any(axis=0)

    @classmethod
    def from_functionals(cls, n: int, functionals: np.ndarray) -> "ConstraintSet":
        """Canonicalize raw functional rows: a row off zero by more than ROUND_TOL is kept
        if it raises the float rank of the rows kept before it, at tolerance ROUND_TOL times
        the largest singular value; the kept rows are eliminated exactly as the floats they
        are, and each entry is rounded once and snapped to a small fraction within ROUND_TOL."""
        kept = []
        for i in np.flatnonzero(np.abs(functionals).max(axis=1) > ROUND_TOL):
            if np.linalg.matrix_rank(functionals[kept + [i]], rtol=ROUND_TOL) > len(kept):
                kept.append(i)
        mat = functionals[kept]
        rows = [[Fraction(x) if x else 0 for x in row] for row in mat.tolist()]
        rank = len(row_reduce(rows, mat.shape[1]))
        canon = np.array(rows[:rank], dtype=float).reshape(rank, mat.shape[1])
        live = canon != 0.0
        canon[live] = [x if (frac := small_fraction(x, ROUND_TOL)) is None else float(frac)
                       for x in canon[live].tolist()]
        return cls(n, canon)


def extract_constraints(n: int, masks, coeffs, targets) -> ConstraintSet:
    """Constraints on symmetric a implied by the designated monomials of T(a, omega).

    ``targets`` lists output monomial masks.  The result is canonicalized,
    so it is invariant under rescaling of omega = (masks, coeffs).
    """
    return ConstraintSet.from_functionals(n, monomial_functionals(n, masks, coeffs, targets))


def standard_constraints(kind: str, n: int | None = None, table: MultiplicationTable = DEFAULT_TABLE):
    """Extraction with the designated targets for each geometry; Spin(9)'s from ``table``'s Phi."""
    if kind == "kahler":
        return extract_constraints(2 * n, *kahler_form(n), kahler_targets(n))
    if kind == "quaternionic":
        return extract_constraints(4 * n, *quaternionic_form(n), quaternionic_targets(n))
    if kind == "spin9":
        return extract_constraints(SPIN9_DIM, *spin9_form(table), spin9_targets())
    raise ValueError(f"unknown geometry kind: {kind}")

"""Candidate parallel forms and the linear constraints they impose.

A parallel p-form Omega turns the surrogate pairing T(a, Omega) into a
linear map on symmetric matrices a, and the statement "T(a, Omega) = 0"
becomes a list of linear functionals: one per monomial of the output.
This module builds the three candidates

* ``kahler_form(n)``        -- -sum_i theta^i ^ theta^{n+i} on R^{2n};
* ``quaternionic_form(n)``  -- om1^om1 + om2^om2 + om3^om3 on R^{4n} for
  the three almost-complex structures of the block frame (e, Ie, Je, Ke);
* ``spin9_form(fspec)``     -- -v_0^...^v_7 + w_0^...^w_7 plus an
  arbitrary admissible mixed correction F on R^16,

and extracts the constraint functionals of designated target monomials
(the diagonal pair, quaternionic line and top monomials respectively).
A functional is a float row over the coordinates a[np.triu_indices(n)] of
a symmetric a; an off-diagonal coordinate collects both index orders, so
the row's value on a is ``row @ a[np.triu_indices(n)]``.

For the 8-form, every admissible correction word is a wedge of grade-2
letters v_{s(i)} ^ v_{s(j)} / w_{t(k)} ^ w_{t(l)} with injective index
maps, mixing both letter kinds.  Removing one letter factor and adding
one basis covector can then never complete a pure v- or w-top monomial,
so the coefficient functionals of the two tops do not depend on F; the
``no_leak_report`` check verifies that cancellation for every one of the
256 index pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exterior import Form, epsilon, mask_of, pair_action, sum_terms, wedge

SPIN9_DIM = 16
V_TOP = (1 << 8) - 1              # v_0 ^ ... ^ v_7
W_TOP = ((1 << 8) - 1) << 8       # w_0 ^ ... ^ w_7
F_SPEC_WORDS = 3                  # words of a random admissible correction
# canonical rows: entries below ROUND_TOL are zero, and an entry within
# ROUND_TOL of a fraction with denominator <= MAX_DENOMINATOR snaps to it
ROUND_TOL = 1e-9
MAX_DENOMINATOR = 64


def kahler_form(n: int) -> Form:
    """The 2-form -sum theta^i ^ theta^{n+i} on R^{2n}."""
    if n < 1 or 2 * n > SPIN9_DIM:
        raise ValueError("complex dimension out of range")
    return Form(2 * n, 2, {mask_of((i, n + i)): -1.0 for i in range(n)})


def kahler_targets(n: int) -> tuple[int, ...]:
    """Designated monomials theta^i ^ theta^{n+i} for the diagonal functionals."""
    return tuple(mask_of((i, n + i)) for i in range(n))


def quaternionic_kahler_forms(n: int) -> tuple[Form, Form, Form]:
    """The three 2-forms g(., I .), g(., J .), g(., K .) of the block frame.

    Blocks at offsets 0, n, 2n, 3n carry e, Ie, Je, Ke; the structures
    satisfy IJ = -JI = K and cyclic relations.
    """
    if n < 1 or 4 * n > SPIN9_DIM:
        raise ValueError("quaternionic dimension out of range")
    dim = 4 * n
    c1: dict[int, float] = {}
    c2: dict[int, float] = {}
    c3: dict[int, float] = {}
    for k in range(n):
        c1[mask_of((k, n + k))] = -1.0
        c1[mask_of((2 * n + k, 3 * n + k))] = -1.0
        c2[mask_of((k, 2 * n + k))] = -1.0
        c2[mask_of((n + k, 3 * n + k))] = 1.0
        c3[mask_of((k, 3 * n + k))] = -1.0
        c3[mask_of((n + k, 2 * n + k))] = -1.0
    return Form(dim, 2, c1), Form(dim, 2, c2), Form(dim, 2, c3)


def quaternionic_form(n: int) -> Form:
    """The parallel 4-form om1^om1 + om2^om2 + om3^om3 on R^{4n}."""
    om1, om2, om3 = quaternionic_kahler_forms(n)
    return wedge(om1, om1) + wedge(om2, om2) + wedge(om3, om3)


def quaternionic_targets(n: int) -> tuple[int, ...]:
    """Quaternionic-line monomials theta^i ^ theta^{i+n} ^ theta^{i+2n} ^ theta^{i+3n}."""
    return tuple(mask_of((i, n + i, 2 * n + i, 3 * n + i)) for i in range(n))


# ---------------------------------------------------------------------------
# The 8-form and its admissible corrections


@dataclass(frozen=True)
class FWord:
    """One wedge word: coefficient times four grade-2 letters.

    Each letter is (kind, p, q) with kind 'v' or 'w' and symbol indices
    p < q; a word must use both kinds so that it can never reduce to a
    pure top monomial.
    """

    coefficient: float
    letters: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        if len(self.letters) != 4:
            raise ValueError("a correction word needs total grade 8, i.e. 4 letters")
        kinds = set()
        for kind, p, q in self.letters:
            if kind not in ("v", "w"):
                raise ValueError("letter kind must be 'v' or 'w'")
            if not (0 <= p < q <= 7):
                raise ValueError("symbol indices must satisfy 0 <= p < q <= 7")
            kinds.add(kind)
        if kinds != {"v", "w"}:
            raise ValueError("word must mix v- and w-letters")


@dataclass(frozen=True)
class FSpec:
    """Admissible correction: words over letters routed through injective maps."""

    words: tuple[FWord, ...]
    sigma: tuple[int, ...]
    tau: tuple[int, ...]

    def __post_init__(self):
        for name, perm in (("sigma", self.sigma), ("tau", self.tau)):
            if sorted(perm) != list(range(8)):
                raise ValueError(f"{name} must be an injective map on eight symbols")


def build_correction(spec: FSpec) -> Form:
    """Evaluate an FSpec into a concrete 8-form on R^16.

    A word is its coefficient times theta^{i_1} ^ ... ^ theta^{i_8} with the
    routed indices in letter order, that is eight left multiplications
    applied to the unit, which also supply every reordering sign; all words
    take each step together.
    """
    indices = []
    for word in spec.words:
        for kind, p, q in word.letters:
            perm, offset = (spec.sigma, 0) if kind == "v" else (spec.tau, 8)
            indices += [perm[p] + offset, perm[q] + offset]
    indices = np.array(indices, dtype=np.int64).reshape(-1, 8)
    masks = np.zeros(len(indices), dtype=np.int64)
    coeffs = np.array([word.coefficient for word in spec.words])
    for step in reversed(range(8)):
        masks, coeffs = epsilon(indices[:, step], masks, coeffs)
    return Form.from_terms(SPIN9_DIM, 8, masks, coeffs)


def random_f_spec(rng: np.random.Generator) -> FSpec:
    """Random admissible correction with random injective index maps."""
    sigma = tuple(int(i) for i in rng.permutation(8))
    tau = tuple(int(i) for i in rng.permutation(8))
    words = []
    for _ in range(F_SPEC_WORDS):
        n_v = int(rng.integers(1, 4))  # 1..3 v-letters, rest w-letters
        v_syms = rng.choice(8, size=2 * n_v, replace=False)
        w_syms = rng.choice(8, size=2 * (4 - n_v), replace=False)
        letters = []
        for k in range(n_v):
            p, q = sorted(int(s) for s in v_syms[2 * k: 2 * k + 2])
            letters.append(("v", p, q))
        for k in range(4 - n_v):
            p, q = sorted(int(s) for s in w_syms[2 * k: 2 * k + 2])
            letters.append(("w", p, q))
        coeff = float(rng.uniform(-2.0, 2.0))
        words.append(FWord(coeff, tuple(letters)))
    return FSpec(tuple(words), sigma, tau)


def spin9_form(spec: FSpec | None = None) -> Form:
    """-v_0^...^v_7 + w_0^...^w_7 plus the optional admissible correction."""
    base = Form(SPIN9_DIM, 8, {V_TOP: -1.0, W_TOP: 1.0})
    if spec is None:
        return base
    return base + build_correction(spec)


def spin9_targets() -> tuple[int, int]:
    return V_TOP, W_TOP


def no_leak_report(correction: Form) -> float:
    """Max coefficient the correction contributes to either top monomial.

    Sums the terms of eps(theta^i) l(e_j) that land on a top monomial, per
    index pair (i, j) and top, over all 256 pairs; an admissible correction
    must leave every sum at zero.
    """
    n = correction.n
    masks, coeffs = pair_action(n, *correction.batch())
    pairs = np.arange(n * n).reshape(n, n)
    top = ((masks == V_TOP) | (masks == W_TOP)) & (coeffs != 0.0)
    keys = (masks == W_TOP) * n * n + pairs
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


def monomial_functionals(omega: Form, targets) -> np.ndarray:
    """The functional in a of each target output monomial of T(a, omega).

    Returns one row per target.  The coefficient of the coordinate (i, j)
    sums the terms of both a_ij and a_ji.
    """
    n = omega.n
    masks, coeffs = pair_action(n, *omega.batch())
    cols = np.broadcast_to(_columns(n), masks.shape)
    rows = np.zeros((len(targets), n * (n + 1) // 2))
    for row, target in zip(rows, targets):
        hit = masks == target
        row[:] = np.bincount(cols[hit], weights=coeffs[hit], minlength=row.size)
    return rows


def _rationalize(x: float) -> float:
    frac = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    return float(frac) if abs(float(frac) - x) <= ROUND_TOL else x


class ConstraintSet:
    """Canonical set of linear functionals on symmetric n x n matrices.

    ``rows`` is an (r, n(n+1)/2) array in reduced row echelon form
    (ascending pivots, unit pivot coefficient, near-rational entries
    snapped to denominators <= 64), so two extractions of the same
    constraint space compare equal.
    """

    def __init__(self, n: int, rows: np.ndarray):
        self.n = n
        self.rows = rows

    def __eq__(self, other):
        return (isinstance(other, ConstraintSet) and self.n == other.n
                and np.array_equal(self.rows, other.rows))

    def __repr__(self):
        return f"ConstraintSet(n={self.n}, rows={len(self.rows)})"

    @classmethod
    def from_functionals(cls, n: int, functionals: np.ndarray) -> "ConstraintSet":
        """Canonicalize raw functional rows by row reduction."""
        mat = functionals[np.abs(functionals).max(axis=1) > ROUND_TOL]
        # row echelon with partial pivoting
        r = 0
        for c in range(mat.shape[1]):
            piv = r + int(np.argmax(np.abs(mat[r:, c]))) if r < mat.shape[0] else r
            if r >= mat.shape[0] or abs(mat[piv, c]) <= ROUND_TOL:
                continue
            mat[[r, piv]] = mat[[piv, r]]
            mat[r] = mat[r] / mat[r, c]
            for rr in range(mat.shape[0]):
                if rr != r and abs(mat[rr, c]) > 0:
                    mat[rr] = mat[rr] - mat[rr, c] * mat[r]
            r += 1
            if r == mat.shape[0]:
                break
        # entries within ROUND_TOL of zero snap to it too
        return cls(n, np.vectorize(_rationalize, otypes=[float])(mat[:r]))

    def to_json(self) -> str:
        upper = np.triu_indices(self.n)
        constraints = []
        for row in self.rows:
            live = np.flatnonzero(row)
            constraints.append({"indices": [[int(upper[0][k]), int(upper[1][k])] for k in live],
                                "coeffs": row[live].tolist()})
        return json.dumps({"n": self.n, "constraints": constraints}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ConstraintSet":
        payload = json.loads(text)
        n = int(payload["n"])
        rows = np.zeros((len(payload["constraints"]), n * (n + 1) // 2))
        for row, entry in zip(rows, payload["constraints"]):
            i, j = np.array(entry["indices"], dtype=np.int64).reshape(-1, 2).T
            row[_columns(n)[i, j]] = entry["coeffs"]
        return cls(n, rows)


def extract_constraints(omega: Form, targets) -> ConstraintSet:
    """Constraints on symmetric a implied by the designated monomials.

    ``targets`` lists output monomial masks.  The result is canonicalized,
    so it is invariant under rescaling of omega.
    """
    return ConstraintSet.from_functionals(omega.n, monomial_functionals(omega, targets))


def standard_constraints(kind: str, n: int | None = None) -> ConstraintSet:
    """Extraction with the designated targets for each geometry."""
    if kind == "kahler":
        return extract_constraints(kahler_form(n), kahler_targets(n))
    if kind == "quaternionic":
        return extract_constraints(quaternionic_form(n), quaternionic_targets(n))
    if kind == "spin9":
        return extract_constraints(spin9_form(), spin9_targets())
    raise ValueError(f"unknown geometry kind: {kind}")

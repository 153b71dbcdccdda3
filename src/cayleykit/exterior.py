"""Sparse exterior algebra over R^n (n <= 16) with the Euclidean metric.

Monomials theta^{i_1} ^ ... ^ theta^{i_p} with ascending 0-based indices
are stored as integer bitmasks; a form is a dict from bitmask to float
coefficient.  Reordering signs come from merge parity, so all sign
arithmetic is exact and the numerical error of any identity check is
pure float roundoff.

Conventions:

* ``interior(k, w)`` contracts the basis vector e_k into the first slot.
* ``epsilon(k, w)`` is left exterior multiplication by theta^k.
* ``hodge`` uses the orientation theta^0 ^ ... ^ theta^{n-1} and the
  orthonormal monomial basis, so ``w ^ hodge(w) = |w|^2 vol``.

``hessian_action`` applies ``T(a, w) = sum_ij a_ij eps(theta^i) l(e_j) w``,
the constant-coefficient surrogate for a covariant Hessian paired with a
parallel form; ``duality_report`` checks the codifferential-style sign
identities that reduce such pairings to T.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 16
RANDOM_FORM_TERMS = 8  # monomials of a random sparse form, if the grade has that many


def mask_of(indices) -> int:
    """Bitmask of strictly ascending 0-based indices."""
    m = 0
    prev = -1
    for i in indices:
        if i <= prev:
            raise ValueError("indices must be strictly ascending")
        m |= 1 << i
        prev = i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def merge_sign(m1: int, m2: int) -> int:
    """Sign of sorting theta^{m1} ^ theta^{m2} into ascending order."""
    s = 0
    mm = m2
    while mm:
        low = mm & -mm
        j = low.bit_length() - 1
        s += (m1 >> (j + 1)).bit_count()
        mm ^= low
    return -1 if s & 1 else 1


def _below_parity(mask: int, k: int) -> int:
    return -1 if (mask & ((1 << k) - 1)).bit_count() & 1 else 1


class Form:
    """Sparse alternating form of fixed grade on R^n."""

    __slots__ = ("n", "grade", "coeffs")

    def __init__(self, n: int, grade: int, coeffs: dict[int, float] | None = None):
        if not 1 <= n <= MAX_DIM:
            raise ValueError("dimension out of range")
        if not 0 <= grade <= n:
            raise ValueError("grade out of range")
        self.n = n
        self.grade = grade
        self.coeffs = {}
        if coeffs:
            for m, c in coeffs.items():
                if m >> n:
                    raise ValueError("monomial uses indices beyond the dimension")
                if m.bit_count() != grade:
                    raise ValueError("monomial grade mismatch")
                if c != 0.0:
                    self.coeffs[m] = float(c)

    @classmethod
    def zero(cls, n: int, grade: int) -> "Form":
        return cls(n, grade)

    @classmethod
    def volume(cls, n: int) -> "Form":
        return cls(n, n, {(1 << n) - 1: 1.0})

    def is_zero(self) -> bool:
        return not self.coeffs

    def sup_norm(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def terms(self):
        """Monomials as (ascending index tuple, coefficient), sorted."""
        return [(indices_of(m), c) for m, c in sorted(self.coeffs.items())]

    def _check_compatible(self, other: "Form"):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        if self.grade != other.grade:
            raise ValueError("grade mismatch")

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return Form(self.n, self.grade, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-1.0) * other

    def __neg__(self) -> "Form":
        return (-1.0) * self

    def __mul__(self, scalar) -> "Form":
        s = float(scalar)
        return Form(self.n, self.grade, {m: c * s for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self):
        body = " + ".join(f"{c:g}*θ{list(i)}" for i, c in self.terms()[:4])
        more = "" if len(self.coeffs) <= 4 else f" (+{len(self.coeffs) - 4} terms)"
        return f"Form(n={self.n}, p={self.grade}: {body or '0'}{more})"

    def to_text(self) -> str:
        """Serialize as lines ``i1,i2,...:coefficient`` (ascending indices)."""
        lines = []
        for idx, c in self.terms():
            lines.append(",".join(str(i) for i in idx) + ":" + repr(c))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, n: int, grade: int | None = None) -> "Form":
        coeffs = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, tail = line.partition(":")
            idx = tuple(int(t) for t in head.split(",") if t.strip() != "")
            m = mask_of(idx)
            if grade is None:
                grade = len(idx)
            coeffs[m] = coeffs.get(m, 0.0) + float(tail)
        if grade is None:
            raise ValueError("empty serialization needs an explicit grade")
        return cls(n, grade, coeffs)


def inner(xi: Form, eta: Form) -> float:
    """Pointwise inner product; monomials are orthonormal."""
    xi._check_compatible(eta)
    small, big = (xi.coeffs, eta.coeffs) if len(xi.coeffs) <= len(eta.coeffs) else (eta.coeffs, xi.coeffs)
    return sum(c * big.get(m, 0.0) for m, c in small.items())


def wedge(xi: Form, eta: Form) -> Form:
    if xi.n != eta.n:
        raise ValueError("dimension mismatch")
    grade = xi.grade + eta.grade
    if grade > xi.n:
        return Form.zero(xi.n, xi.n)
    out: dict[int, float] = {}
    for m1, c1 in xi.coeffs.items():
        for m2, c2 in eta.coeffs.items():
            if m1 & m2:
                continue
            m = m1 | m2
            out[m] = out.get(m, 0.0) + merge_sign(m1, m2) * c1 * c2
    return Form(xi.n, grade, out)


def interior(k: int, eta: Form) -> Form:
    """Contraction of e_k into the first argument slot."""
    if not 0 <= k < eta.n:
        raise ValueError("index out of range")
    if eta.grade == 0:
        return Form.zero(eta.n, 0)
    bit = 1 << k
    out = {}
    for m, c in eta.coeffs.items():
        if m & bit:
            out[m ^ bit] = _below_parity(m, k) * c
    return Form(eta.n, eta.grade - 1, out)


def epsilon(k: int, eta: Form) -> Form:
    """Left exterior multiplication by theta^k."""
    if not 0 <= k < eta.n:
        raise ValueError("index out of range")
    if eta.grade == eta.n:
        return Form.zero(eta.n, eta.n)
    bit = 1 << k
    out = {}
    for m, c in eta.coeffs.items():
        if not m & bit:
            out[m | bit] = _below_parity(m, k) * c
    return Form(eta.n, eta.grade + 1, out)


def hodge(eta: Form) -> Form:
    full = (1 << eta.n) - 1
    out = {}
    for m, c in eta.coeffs.items():
        mc = full ^ m
        out[mc] = merge_sign(m, mc) * c
    return Form(eta.n, eta.n - eta.grade, out)


def random_trace_free(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric trace-free n x n matrix, a Hessian surrogate in the harmonic case."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    a = 0.5 * (a + a.T)
    a -= np.eye(n) * (np.trace(a) / n)
    return a


def action_terms(m: int, n: int):
    """Nonzero terms of eps(theta^i) l(e_j) applied to the monomial ``m`` of R^n.

    Yields ``(i, j, sign, out)`` with eps(theta^i) l(e_j) theta^m =
    sign * theta^out: j runs over the indices of ``m`` and, for each j,
    i over the indices missing from ``m`` once j is removed, both ascending.
    """
    full = (1 << n) - 1
    mj = m
    while mj:
        lowj = mj & -mj
        j = lowj.bit_length() - 1
        mj ^= lowj
        sj = _below_parity(m, j)
        m1 = m ^ lowj
        rest = full ^ m1
        while rest:
            lowi = rest & -rest
            i = lowi.bit_length() - 1
            rest ^= lowi
            yield i, j, _below_parity(m1, i) * sj, m1 | lowi


def hessian_action(a, eta: Form) -> Form:
    """Apply ``T(a, w) = sum_ij a_ij eps(theta^i) l(e_j) w``."""
    mat = np.asarray(a, dtype=float)
    if mat.shape != (eta.n, eta.n):
        raise ValueError("coefficient matrix does not match the dimension")
    if eta.grade == 0:
        return Form.zero(eta.n, 0)
    out: dict[int, float] = {}
    for m, c in eta.coeffs.items():
        for i, j, sign, mo in action_terms(m, eta.n):
            val = mat[i, j] * c
            if val != 0.0:
                out[mo] = out.get(mo, 0.0) + sign * val
    return Form(eta.n, eta.grade, out)


def random_form(n: int, grade: int, rng: np.random.Generator) -> Form:
    """Random sparse form with coefficients in [-1, 1]."""
    from math import comb

    count = min(RANDOM_FORM_TERMS, comb(n, grade))
    coeffs: dict[int, float] = {}
    while len(coeffs) < count:
        idx = rng.choice(n, size=grade, replace=False)
        m = mask_of(sorted(int(i) for i in idx)) if grade else 0
        coeffs[m] = float(rng.uniform(-1.0, 1.0))
    return Form(n, grade, coeffs)


def _star_chain(a_mat: np.ndarray, omega: Form) -> Form:
    """sum_ij a_ji eps(theta^i) *(eps(theta^j) w), evaluated with wedge and star only.

    ``hodge(_star_chain(a, w))`` is the symbol of *d*(alpha ^ w) and
    ``_star_chain(a, hodge(w))`` the symbol of d*(alpha ^ *w).
    """
    n = omega.n
    acc: dict[int, float] = {}
    for j in range(n):
        inner_form = hodge(epsilon(j, omega))
        if inner_form.is_zero():
            continue
        for i in range(n):
            c = float(a_mat[j, i])
            if c != 0.0:
                for m, v in epsilon(i, inner_form).coeffs.items():
                    acc[m] = acc.get(m, 0.0) + v * c
    return Form(n, n - omega.grade, acc)


def duality_report(n: int, p: int, trials: int, rng: np.random.Generator) -> dict:
    """Check the three sign identities tying the two star chains to T(a, w).

    Returns the maximal absolute residual of each identity over random
    trace-free symmetric coefficients and random sparse forms.  Any sign
    discrepancy shows up as an O(1) residual rather than being absorbed.
    """
    if not 1 <= p <= n - 1:
        raise ValueError("grade must be between 1 and n-1 for the chain")
    sign_direct = -1 if (p * (n - p - 1) + 1) % 2 else 1
    sign_codiff = -1 if ((p - 1) * (n - p)) % 2 else 1
    sign_link = -1 if (n - 1) % 2 else 1
    res = {"direct_vs_T": 0.0, "codiff_vs_T": 0.0, "direct_vs_codiff": 0.0}
    for _ in range(trials):
        a = random_trace_free(n, rng)
        omega = random_form(n, p, rng)
        t_form = hessian_action(a, omega)
        e_direct = hodge(_star_chain(a, omega))
        e_codiff = _star_chain(a, hodge(omega))
        res["direct_vs_T"] = max(res["direct_vs_T"], (e_direct - sign_direct * t_form).sup_norm())
        res["codiff_vs_T"] = max(res["codiff_vs_T"], (e_codiff - sign_codiff * t_form).sup_norm())
        res["direct_vs_codiff"] = max(res["direct_vs_codiff"], (e_direct - sign_link * e_codiff).sup_norm())
    res["max"] = max(res.values())
    return res

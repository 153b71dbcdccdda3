"""Reference implementations for the tests.

The alternating-tensor helpers work on full n^p component arrays with
explicit permutation sums, so they share no code path with the sparse
bitmask algebra they are used to check.  Only practical for small n.
The constraint helpers evaluate and satisfy ``ConstraintSet`` rows by
explicit loops over the coordinates (i, j), i <= j, of a symmetric matrix,
where the coefficient of an off-diagonal coordinate multiplies a_ij once
(it already collects both index orders).  ``fd_tridiagonal`` discretizes the
radial Dirichlet problem -(A u')' / A on (0, R) by finite differences on a
half-cell-shifted grid, ``fd_ground_value`` takes its lowest eigenvalue by
LAPACK bisection and ``fd_richardson`` removes the O(h^2) error: a third route
to the bottom of the spectrum, beside collocation and the Jacobi closed form.
``sturm_count`` counts tridiagonal eigenvalues by the Sturm sequence in plain
numpy, independent of LAPACK.
The pair expansions of ``hessian_action`` and ``_star_chain`` are restated
over the full n x n grid of index pairs, dead terms included: an oracle for
which terms the live-pair enumeration keeps, on the same sign kernels.
``duality_report_by_rows``, ``random_forms_whole_batch`` and
``monomial_functionals_unfiltered`` are the plain forms of three exterior
loops: eight rows and one sort per identity, every row retested for repeats,
every term of a form expanded; the fast forms must match them bit for bit.
The batched kernels (octonion product, curvature operator forms) are
restated as single three-operand ``einsum`` contractions with no BLAS call
and no blocking.  ``sharpness_full_draw`` samples the feasible space of a
constraint set, a Monte Carlo cross-check of the exact certificate.  The Clifford
involutions come from octonion products of the basis vectors, and the
Cayley form Phi from them through plain dicts and ``wedge`` on one-row
batches, squaring each psi over all its term pairs.  The curvature operator
is recovered from the sectional formula alone: its Gram-weighted
biquadratic B(x, y) = <R(x ^ y), x ^ y> is polynomial of bidegree (2, 2),
so a four-point difference stencil polarizes it exactly.  ``splitmix64`` is the
generator behind ``octonion.Stream`` as a plain loop on Python integers.
"""

import itertools
import math

import numpy as np
import scipy.linalg

from cayleykit.curvature import CurvatureOperator
from cayleykit.exterior import (RANDOM_FORM_TERMS, _random_masks, _star_chain, epsilon, hessian_action,
                                hodge, indices_of, interior, mask_of, pair_action, random_trace_free,
                                residual, wedge)
from cayleykit.forms import _columns
from cayleykit.geodesy import log_area
from cayleykit.kernels import nullspace, quadratic_weights
from cayleykit.octonion import DEFAULT_TABLE, conj_arrays


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
            elif perm[i] == perm[j]:
                return 0
    return sign


def dense_from_form(form, n: int, p: int):
    """The n^p component array of a p-form batch, its terms summed (0-d at p = 0)."""
    t = np.zeros((n,) * p)
    for mask, c in zip(np.ravel(form[0]).tolist(), np.ravel(form[1]).tolist()):
        if c:
            idx = indices_of(mask)
            for perm in itertools.permutations(range(p)):
                t[tuple(idx[k] for k in perm)] += perm_sign(perm) * c
    return t


def form_from_dense(t, n: int, p: int):
    """The one-row batch of the components t[i_1, ..., i_p], i_1 < ... < i_p."""
    combs = list(itertools.combinations(range(n), p))
    t = np.asarray(t, dtype=float)
    return np.array([[mask_of(c) for c in combs]]), np.array([[t[c] for c in combs]])


def deviation(a, b, scale=1.0) -> float:
    """Largest |coefficient| of the batch a - scale * b, term by term, through ``residual``."""
    return residual(a, (b[0], -scale * np.asarray(b[1])))


def wedge_dense(a, b, n: int, p: int, q: int):
    if p == 0:
        return float(a) * np.asarray(b, dtype=float)
    if q == 0:
        return np.asarray(a, dtype=float) * float(b)
    r = p + q
    assert r <= n, "oracle comparisons stay below the top grade"
    outer = np.multiply.outer(a, b)
    out = np.zeros_like(outer)
    for perm in itertools.permutations(range(r)):
        out += perm_sign(perm) * np.transpose(outer, perm)
    return out / (math.factorial(p) * math.factorial(q))


def interior_dense(k: int, t, p: int):
    if p == 0:
        return np.float64(0.0)
    if p == 1:
        return np.float64(t[k])
    return np.array(t[k])


def epsilon_dense(k: int, t, n: int, p: int):
    e = np.zeros(n)
    e[k] = 1.0
    return wedge_dense(e, t, n, 1, p)


def hodge_dense(t, n: int, p: int):
    q = n - p
    if p == 0:
        out = np.zeros((n,) * n)
        for perm in itertools.permutations(range(n)):
            out[perm] = perm_sign(perm) * float(t)
        return out
    out = np.zeros((n,) * q) if q else np.float64(0.0)
    for j in itertools.product(range(n), repeat=q):
        acc = 0.0
        for i in itertools.product(range(n), repeat=p):
            e = perm_sign(i + j)
            if e:
                acc += float(t[i]) * e
        if q:
            out[j] = acc / math.factorial(p)
        else:
            out = np.float64(acc / math.factorial(p))
    return out


def hessian_dense(a, t, p: int):
    """Slotwise derivation action of the matrix a on a dense p-tensor."""
    a = np.asarray(a, dtype=float)
    if p == 0:
        return np.float64(0.0)
    out = np.zeros_like(np.asarray(t, dtype=float))
    for s in range(p):
        out += np.moveaxis(np.tensordot(a, t, axes=([1], [s])), 0, s)
    return out


def pair_grid(n: int, masks, coeffs):
    """eps(theta^i) l(e_j) on every term at all n x n pairs, shape (..., T, n, n), indexed [..., t, i, j]."""
    idx = np.arange(n)
    m, c = interior(idx, masks[..., None], coeffs[..., None])
    return epsilon(idx[:, None], m[..., None, :], c[..., None, :])


def hessian_grid(a, masks, coeffs):
    """T(a, w) on every row over the full pair grid, ``a`` one matrix or one per row; T n^2 terms a row."""
    a = np.asarray(a, dtype=float)
    m, c = pair_grid(a.shape[-1], masks, coeffs)
    return m.reshape(len(m), -1), (c * a[..., None, :, :]).reshape(len(m), -1)


def star_chain_grid(a, masks, coeffs):
    """sum_ij a_ji eps(theta^i) *(eps(theta^j) w) on every row over the full pair grid."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    idx = np.arange(n)
    m, c = hodge(n, *epsilon(idx, masks[..., None], coeffs[..., None]))
    m, c = epsilon(idx[:, None], m[..., None, :], c[..., None, :])
    return m.reshape(len(m), -1), (c * np.swapaxes(a, -1, -2)[..., None, :, :]).reshape(len(m), -1)


def duality_report_by_rows(n: int, p: int, trials: int, rng):
    """``exterior.duality_report`` with blocks of 8 rows and one ``residual`` call, so one
    sort, per identity and block."""
    sign_direct = -1 if (p * (n - p - 1) + 1) % 2 else 1
    sign_codiff = -1 if ((p - 1) * (n - p)) % 2 else 1
    sign_link = -1 if (n - 1) % 2 else 1
    drawn = (random_trace_free(n, trials, rng), *random_forms_whole_batch(n, np.full(trials, p), rng))
    worst = [0.0, 0.0, 0.0]
    for start in range(0, trials, 8):
        a, masks, coeffs = (x[start:start + 8] for x in drawn)
        t_masks, t_coeffs = hessian_action(a, masks, coeffs)
        direct = hodge(n, *_star_chain(a, masks, coeffs))
        codiff = _star_chain(a, *hodge(n, masks, coeffs))
        worst = [max(w, r) for w, r in zip(worst, (
            residual(direct, (t_masks, -sign_direct * t_coeffs)),
            residual(codiff, (t_masks, -sign_codiff * t_coeffs)),
            residual(direct, (codiff[0], -sign_link * codiff[1]))))]
    res = dict(zip(("direct_vs_T", "codiff_vs_T", "direct_vs_codiff"), worst))
    res["max"] = max(res.values())
    return res


def random_forms_whole_batch(n: int, grades, rng):
    """``exterior.random_forms`` that tests every row for a repeated mask in each round."""
    grades = np.broadcast_to(np.asarray(grades)[:, None], (len(grades), RANDOM_FORM_TERMS))
    counts = np.array([min(RANDOM_FORM_TERMS, math.comb(n, int(p))) for p in grades[:, 0]])
    live = np.arange(RANDOM_FORM_TERMS) < counts[:, None]
    masks = _random_masks(n, grades, rng)
    while True:
        repeat = np.tril(masks[:, :, None] == masks[:, None, :], -1).any(axis=-1) & live
        if not repeat.any():
            break
        masks[repeat] = _random_masks(n, grades[repeat], rng)
    return masks, np.where(live, rng.uniform(-1.0, 1.0, masks.shape), 0.0)


def monomial_functionals_unfiltered(n: int, masks, coeffs, targets):
    """``forms.monomial_functionals`` expanding every term of the form, not only those one
    index swap away from a target."""
    masks, coeffs, i, j = pair_action(n, masks, coeffs)
    cols = _columns(n)[i, j]
    rows = np.zeros((len(targets), n * (n + 1) // 2))
    for row, target in zip(rows, targets):
        hit = masks == target
        row[:] = np.bincount(cols[hit], weights=coeffs[hit], minlength=row.size)
    return rows


def evaluate(constraints, a):
    """Value of each constraint row on a symmetric matrix."""
    n = constraints.n
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    return np.array([sum(row[k] * a[i, j] for k, (i, j) in enumerate(coords))
                     for row in constraints.rows])


def project_feasible(constraints, a):
    """Orthogonal projection of symmetric a, in its coordinates (i, j), i <= j,
    onto the null space of the constraint rows."""
    n = constraints.n
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    q, _ = np.linalg.qr(constraints.rows.T)
    vec = np.array([a[i, j] for (i, j) in coords])
    vec = vec - q @ (q.T @ vec)
    b = np.zeros_like(a)
    for k, (i, j) in enumerate(coords):
        b[i, j] = b[j, i] = vec[k]
    return b


def fd_tridiagonal(radius: float, cells: int):
    """Symmetrized tridiagonal (diagonal, offdiagonal) of -(A u')'/A on (0, R), Dirichlet at R.

    Cell centres (k + 1/2) h, faces k h; the A(0) = 0 face carries no flux, so the natural
    condition at 0 is automatic.  Entries are ratios of A at neighbouring nodes, so the
    weight, up to e^{22 R}, never overflows.
    """
    h = radius / cells
    log_c = log_area((np.arange(cells) + 0.5) * h)
    log_f = np.empty(cells + 1)
    log_f[0] = -np.inf
    log_f[1:] = log_area(np.arange(1, cells + 1) * h)
    left = np.exp(log_f[:-1] - log_c)
    right = np.exp(log_f[1:] - log_c)
    diag = (left + right) / h**2
    diag[-1] += right[-1] / h**2  # ghost reflection u_N = -u_{N-1}
    off = -np.exp(log_f[1:-1] - 0.5 * (log_c[:-1] + log_c[1:])) / h**2
    return diag, off


def fd_ground_value(radius: float, cells: int) -> float:
    """Lowest eigenvalue of ``fd_tridiagonal`` by LAPACK bisection (``stebz``) to the underflow
    limit, accurate relative to the eigenvalue on these scaled matrices (Barlow & Demmel 1990);
    the default drivers reach only eps |T|, and |T| is 2e9 at N/R = 250."""
    return float(scipy.linalg.eigh_tridiagonal(
        *fd_tridiagonal(radius, cells), eigvals_only=True, select="i", select_range=(0, 0),
        lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny)[0])


def fd_richardson(radius: float, cells: int) -> float:
    """One Richardson step on N and N/2 cells, which removes the O(h^2) error."""
    return (4.0 * fd_ground_value(radius, cells) - fd_ground_value(radius, cells // 2)) / 3.0


def sturm_count(diag, off, shifts):
    """Number of eigenvalues of the symmetric tridiagonal (diag, off) below each shift."""
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


def mul_einsum(a, b, table=None):
    """Octonion product sum_ij C_ijk a_i b_j as one contraction with the structure tensor."""
    c = (table or DEFAULT_TABLE).structure_tensor()
    return np.einsum("ijk,...i,...j->...k", c, np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def clifford_by_products(table=None):
    """I_u(x, y) = (u y*, x* u) for u in the basis, and diag(1_8, -1_8), column by column."""
    x, y = np.eye(16)[:, :8], np.eye(16)[:, 8:]  # the basis of R^16 = O^2 split into (x, y)
    out = [np.concatenate([mul_einsum(u, conj_arrays(y), table),
                           mul_einsum(conj_arrays(x), u, table)], axis=1).T for u in np.eye(8)]
    return np.array(out + [np.diag([1.0] * 8 + [-1.0] * 8)])


def _add_terms(total: dict, form, sign=1.0) -> None:
    for mask, c in zip(np.ravel(form[0]).tolist(), np.ravel(form[1]).tolist()):
        total[mask] = total.get(mask, 0.0) + sign * c


def _one_row(terms: dict):
    live = {m: c for m, c in terms.items() if c != 0.0}
    return np.array([list(live)], dtype=np.int64), np.array([list(live.values())])


def cayley_form_by_wedge():
    """sum_{i<j<k<l} (om_ij ^ om_kl - om_ik ^ om_jl + om_il ^ om_jk)^2 / -5040
    as a one-row batch, ascending by mask, summed in plain dicts over ``wedge``
    of all term pairs, with om_ij(e_p, e_q) = <I_i I_j e_p, e_q>."""
    inv = clifford_by_products()
    omega = {}
    for i, j in itertools.combinations(range(9), 2):
        m = inv[i] @ inv[j]
        omega[i, j] = _one_row({mask_of((p, q)): m[q, p]
                                for p, q in itertools.combinations(range(16), 2)})
    phi = {}
    for i, j, k, l in itertools.combinations(range(9), 4):
        psi = {}
        for (a, b), (c, d), sign in (((i, j), (k, l), 1.0), ((i, k), (j, l), -1.0),
                                     ((i, l), (j, k), 1.0)):
            _add_terms(psi, wedge(*omega[a, b], *omega[c, d]), sign)
        psi = _one_row(psi)
        _add_terms(phi, wedge(*psi, *psi))
    return _one_row({m: phi[m] / -5040.0 for m in sorted(phi)})


def biquadratic(formula, x, y):
    """B(x, y) = K(span(x, y)) |x ^ y|^2 at a QR frame of the span, 0 on degenerate pairs.

    The package takes B on the pair itself, with no frame; this route through an
    orthonormal frame is the reference that formula is checked against."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    frame = np.linalg.qr(np.stack([x, y], axis=-1))[0]
    norms = np.sum(x * x, axis=-1) * np.sum(y * y, axis=-1)
    gram = norms - np.sum(x * y, axis=-1) ** 2
    k = formula.quadratic(frame[..., 0], frame[..., 1])
    return np.where(gram > 1e-14 * norms, k * gram, 0.0)


def polarized_tensor(formula, x, y, z, w):
    """R(x, y, z, w) from the exact bidegree-(2, 2) difference stencil on ``biquadratic``,
    normalized so that R(x, y, x, y) = B(x, y)."""
    def mixed(p, q):
        # exact d^2/ds dt at 0 for a polynomial of degree <= 2 in each slot
        return (biquadratic(formula, x + p, y + q) - biquadratic(formula, x + p, y - q)
                - biquadratic(formula, x - p, y + q) + biquadratic(formula, x - p, y - q)) / 4.0

    return (mixed(z, w) - mixed(w, z)) / 6.0


def polarized_operator(formula):
    """The operator on the 120 monomial bivectors by polarizing ``formula`` over all
    14,400 pairs of them, symmetrized."""
    eye = np.eye(16)
    a, b = np.triu_indices(16, 1)
    ii, jj = (t.ravel() for t in np.meshgrid(np.arange(a.size), np.arange(a.size), indexing="ij"))
    values = polarized_tensor(formula, eye[a[ii]], eye[b[ii]], eye[a[jj]], eye[b[jj]])
    values = values.reshape(a.size, a.size)
    return CurvatureOperator(0.5 * (values + values.T))


def operator_pairing(matrix, v, w):
    """<v, M w> for batched bivector coordinates v and w."""
    return np.einsum("...i,ij,...j->...", v, matrix, w)


def frame_matrix(matrix, vecs):
    """The matrix (<v_a, M v_b>)_ab of a stack of bivector coordinates."""
    return np.einsum("ai,ij,bj->ab", vecs, matrix, vecs)


def dense_action(triplets, shape):
    """The dense matrix of ``forms.so_action``'s triplets, a repeated entry summed."""
    rows, cols, values = triplets
    dense = np.zeros(shape)
    np.add.at(dense, (rows, cols), values)
    return dense


def sharpness_full_draw(constraints, ratio, rng, samples):
    """Feasible samples and those below ``ratio``: one standard normal per dimension of
    the whole feasible space, mapped through its basis."""
    basis = nullspace(constraints)
    weights_p, weights_q = quadratic_weights(constraints)
    vecs = rng.standard_normal((samples, basis.shape[1])) @ basis.T
    num, den = (vecs * vecs) @ weights_p, (vecs * vecs) @ weights_q
    good = den > 1e-12 * num
    return {
        "samples": int(np.sum(good)),
        "violations": int(np.sum(num[good] / den[good] < ratio - 1e-12)),
    }


def splitmix64(state: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 seeded ``state``: add gamma, then the finalizer."""
    outputs = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        outputs.append(z ^ z >> 31)
    return outputs

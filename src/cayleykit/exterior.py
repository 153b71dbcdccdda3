"""Sparse exterior algebra over R^n (n <= 16) on batches of bitmask arrays.

A monomial theta^{i_1} ^ ... ^ theta^{i_p} is the integer bitmask with
bits i_1 .. i_p set.  A batch of sparse forms is a pair of arrays of one
shape (B, T), integer ``masks`` and float64 ``coeffs``, one form per row;
a zero coefficient marks an absent term, so a term an operator annihilates
needs no case at the grade edges.  Each kernel maps a batch to a batch in
a few numpy calls; ``k`` and ``n`` are scalars or per-row columns.

Every sign comes from one rule, ``wedge_sign(a, b)``: theta^a ^ theta^b
is theta^(a | b) times (-1) to the number of index pairs i in a, j in b
with j < i, the parity of ``np.bitwise_count(a & P(b))`` for the prefix
parity P(b) of b.  Sign arithmetic is therefore exact and the error of
any identity check is pure float roundoff.

* ``wedge(...)`` multiplies two batches row by row, term by term.
* ``interior(k, ...)`` contracts the basis vector e_k into the first slot.
* ``epsilon(k, ...)`` is left exterior multiplication by theta^k.
* ``hodge(n, ...)`` uses the orientation theta^0 ^ ... ^ theta^{n-1} and
  the orthonormal monomial basis, so ``w ^ hodge(w) = |w|^2 vol``.

``hessian_action`` applies ``T(a, w) = sum_ij a_ij eps(theta^i) l(e_j) w``,
the constant-coefficient surrogate for a covariant Hessian paired with a
parallel form; ``duality_report`` checks the codifferential-style sign
identities that reduce such pairings to T, one sort per block of rows.  Each
pair expansion takes terms of one grade p and builds only the p (n - p + 1)
index pairs of a term that can be nonzero, not the n^2 of the full grid.
A single form, such as a candidate parallel form, is a one-row batch
(B = 1); ``collect`` sums the terms of a batch into one, and ``to_text`` /
``from_text`` serialize it.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .octonion import Stream

MAX_DIM = 16
RANDOM_FORM_TERMS = 8  # monomials of a random sparse form, if the grade has that many
DUALITY_BLOCK_TERMS = 8192  # terms per chain of a ``duality_report`` block


def mask_of(indices) -> int:
    """Bitmask of strictly ascending 0-based indices."""
    indices = list(indices)
    if any(i <= prev for prev, i in zip([-1] + indices, indices)):
        raise ValueError("indices must be strictly ascending")
    return sum(1 << i for i in indices)


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def wedge_sign(a, b):
    """Sign of theta^a ^ theta^b as floats: the parity of the pairs i in a, j in b with j < i.

    Bit i of the prefix parity of b is the parity of the bits of b below i
    (for i < MAX_DIM), so the pairs are the bits of a against it.
    """
    below = np.left_shift(b, 1)
    for shift in (1, 2, 4, 8):
        below = below ^ np.left_shift(below, shift)
    return np.where(np.bitwise_count(a & below) & 1, -1.0, 1.0)


def wedge(masks_a, coeffs_a, masks_b, coeffs_b):
    """Row-wise exterior product of two batches; the Ta Tb terms of a row come back unsummed."""
    ma, mb = masks_a[..., :, None], masks_b[..., None, :]
    coeffs = wedge_sign(ma, mb) * coeffs_a[..., :, None] * coeffs_b[..., None, :]
    masks, coeffs = ma | mb, np.where(ma & mb, 0.0, coeffs)
    shape = (*masks.shape[:-2], -1)
    return masks.reshape(shape), coeffs.reshape(shape)


def epsilon(k, masks, coeffs):
    """Left exterior multiplication by theta^k; a term holding bit k drops out."""
    bit = np.left_shift(1, k)
    return masks | bit, np.where(masks & bit, 0.0, coeffs * wedge_sign(bit, masks))


def interior(k, masks, coeffs):
    """Contraction of e_k into the first slot; a term without bit k drops out."""
    bit = np.left_shift(1, k)
    return masks & ~bit, np.where(masks & bit, coeffs * wedge_sign(bit, masks), 0.0)


def hodge(n, masks, coeffs):
    """Hodge star on R^n: theta^m goes to theta^c, c the complement of m, signed as theta^m ^ theta^c.

    The sign counts the complement's indices below each index of m, so it
    does not depend on n.
    """
    return masks ^ (np.left_shift(1, n) - 1), coeffs * wedge_sign(masks, ~masks)


def inner(masks_a, coeffs_a, masks_b, coeffs_b):
    """Row-wise inner product of two batches; monomials are orthonormal."""
    same = masks_a[..., :, None] == masks_b[..., None, :]
    return np.sum(same * coeffs_a[..., :, None] * coeffs_b[..., None, :], axis=(-2, -1))


def _runs(keys):
    """The first entry of each run of equal keys of an ascending array, and each entry's run number."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first, np.cumsum(first) - 1


def sum_terms(keys, coeffs):
    """Distinct keys, ascending, and the summed coefficient of each, added in input order: a
    stable sort lines each key's terms up in that order, and ``bincount`` adds them so."""
    order = np.argsort(np.ravel(keys), kind="stable")
    keys = np.ravel(keys)[order]
    first, runs = _runs(keys)
    return keys[first], np.bincount(runs, weights=np.ravel(coeffs)[order])


def _live_terms(batches):
    """Keys (row, mask) and coefficients of the nonzero terms, batch after batch, and the
    number of terms of each batch."""
    terms = [(np.nonzero(c)[0] << MAX_DIM | m[c != 0.0], c[c != 0.0]) for m, c in batches]
    return *map(np.concatenate, zip(*terms)), [c.size for _, c in terms]


def residual(*batches) -> float:
    """Largest |coefficient| of the sum of the batches, term by term.

    Terms are keyed by (row, mask), so a fault in one row cannot cancel
    against another row.
    """
    keys, values, _ = _live_terms(batches)
    _, sums = sum_terms(keys, values)
    return float(np.abs(sums).max(initial=0.0))


def collect(masks, coeffs):
    """The terms of a batch summed into one form: a one-row batch of distinct masks,
    ascending, with the terms that sum to zero dropped."""
    keys, sums = sum_terms(masks, coeffs)
    keep = sums != 0.0
    return keys[keep][None], sums[keep][None]


def to_text(masks, coeffs) -> str:
    """Serialize the collected terms of a batch as lines ``i1,i2,...:coefficient``."""
    (masks,), (coeffs,) = collect(masks, coeffs)
    return "".join(",".join(map(str, indices_of(m))) + f":{c!r}\n"
                   for m, c in zip(masks.tolist(), coeffs.tolist()))


def from_text(text: str, n: int, grade: int | None = None):
    """Parse ``to_text`` lines into a one-row batch; a repeated monomial sums.

    ``grade`` None takes the grade of the first line.  Every line, a zero
    term too, must name strictly ascending indices below n of that grade.
    """
    if not 1 <= n <= MAX_DIM:
        raise ValueError("dimension out of range")
    masks, coeffs = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        idx = tuple(int(t) for t in head.split(",") if t.strip() != "")
        m = mask_of(idx)
        if grade is None:
            grade = len(idx)
        if m >> n:
            raise ValueError("monomial uses indices beyond the dimension")
        if len(idx) != grade:
            raise ValueError("monomial grade mismatch")
        masks.append(m)
        coeffs.append(float(tail))
    if grade is None:
        raise ValueError("empty serialization needs an explicit grade")
    if not 0 <= grade <= n:
        raise ValueError("grade out of range")
    return collect(np.array(masks, dtype=np.int64), np.array(coeffs, dtype=float))


def random_trace_free(n: int, count: int, rng: Stream) -> np.ndarray:
    """``count`` random symmetric trace-free n x n matrices, Hessian surrogates in the harmonic case."""
    a = rng.uniform(-1.0, 1.0, (count, n, n))
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    a -= np.eye(n) * (np.trace(a, axis1=-2, axis2=-1)[..., None, None] / n)
    return a


def _random_masks(n: int, grades, rng: Stream):
    """Uniform random masks of the given grades: the p smallest of n uniform keys."""
    ranks = rng.random((*np.shape(grades), n)).argsort(axis=-1).argsort(axis=-1)
    return ((ranks < np.asarray(grades)[..., None]) << np.arange(n)).sum(axis=-1)


def random_forms(n: int, grades, rng: Stream):
    """One random sparse form per entry of ``grades``, as a (B, RANDOM_FORM_TERMS) batch.

    Row b holds min(RANDOM_FORM_TERMS, C(n, p_b)) distinct monomials, uniform
    over the masks of grade p_b, with coefficients uniform in [-1, 1]; the
    rest of the row is padding with zero coefficients.  A mask repeating an
    earlier one in its row is drawn again; only rows just redrawn are retested.
    """
    grades = np.broadcast_to(np.asarray(grades)[:, None], (len(grades), RANDOM_FORM_TERMS))
    counts = np.array([min(RANDOM_FORM_TERMS, comb(n, int(p))) for p in grades[:, 0]])
    live = np.arange(RANDOM_FORM_TERMS) < counts[:, None]
    masks, rows = _random_masks(n, grades, rng), np.arange(len(grades))
    while True:
        repeat = np.tril(masks[rows, :, None] == masks[rows, None, :], -1).any(axis=-1) & live[rows]
        r, c = np.nonzero(repeat)
        if not r.size:
            break
        masks[rows[r], c] = _random_masks(n, grades[rows[r], c], rng)
        rows = rows[repeat.any(axis=-1)]
    return masks, np.where(live, rng.uniform(-1.0, 1.0, masks.shape), 0.0)


def _pairs(n: int, masks):
    """The pairs (i, j) where eps(theta^i) l(e_j) can be nonzero on terms of one grade p, each of
    shape (..., T, p, n - p + 1): j over the p indices of a term, i over the n - p it lacks, then j."""
    # the grades present, in order; np.unique would import numpy.ma for this
    grades = np.flatnonzero(np.bincount(np.bitwise_count(masks).ravel()))
    if grades.size > 1:
        raise ValueError(f"terms of one grade expected, got grades {grades.tolist()}")
    p = int(grades[0]) if grades.size else 0
    bits = np.argsort(masks[..., None] >> np.arange(n) & 1 == 0, axis=-1, kind="stable")
    j = bits[..., :p, None]
    i = np.concatenate([np.broadcast_to(bits[..., None, p:], (*j.shape[:-1], n - p)), j], axis=-1)
    return i, np.broadcast_to(j, i.shape)


def pair_action(n: int, masks, coeffs):
    """eps(theta^i) l(e_j) on every term of one grade p at the ``_pairs`` only, the rest of the
    n x n grid being zero: masks, coeffs, i and j, each of shape (..., T, p, n - p + 1)."""
    i, j = _pairs(n, masks)
    m, c = interior(j[..., 0], masks[..., None], coeffs[..., None])
    return *epsilon(i, m[..., None], c[..., None]), i, j


def _weigh(a, i, j, masks, coeffs):
    """The terms of each row weighted by a[i, j], ``a`` one matrix or one per row, as a (B, -1) batch."""
    a = np.asarray(a, dtype=float)
    rows = np.arange(len(masks)).reshape(-1, *(1,) * (i.ndim - 1))
    weights = np.broadcast_to(a, (len(masks), *a.shape[-2:]))[rows, i, j]
    return masks.reshape(len(masks), -1), (coeffs * weights).reshape(len(masks), -1)


def hessian_action(a, masks, coeffs):
    """Apply ``T(a, w) = sum_ij a_ij eps(theta^i) l(e_j) w`` to every row of one grade p.

    ``a`` is one (n, n) matrix or one per row.  The T p (n - p + 1) live
    terms of a row come back unsummed.
    """
    m, c, i, j = pair_action(np.shape(a)[-1], masks, coeffs)
    return _weigh(a, i, j, m, c)


def _star_chain(a, masks, coeffs):
    """sum_ij a_ji eps(theta^i) *(eps(theta^j) w) on every row of one grade p, with wedge and star only.

    Only the live pairs are built, shape (..., T, n - p, p + 1): j over the n - p
    indices a term lacks, then i over its p indices and j.
    ``hodge(_star_chain(a, w))`` is the symbol of *d*(alpha ^ w) and
    ``_star_chain(a, hodge(w))`` the symbol of d*(alpha ^ *w).
    """
    n = np.shape(a)[-1]
    i, j = _pairs(n, masks ^ (1 << n) - 1)
    m, c = hodge(n, *epsilon(j[..., 0], masks[..., None], coeffs[..., None]))
    return _weigh(a, j, i, *epsilon(i, m[..., None], c[..., None]))


def duality_report(n: int, p: int, trials: int, rng: Stream) -> dict:
    """Check the three sign identities tying the two star chains to T(a, w).

    Returns the maximal absolute residual of each identity over random
    trace-free symmetric coefficients and random sparse forms, all drawn first,
    then compared in blocks of about ``DUALITY_BLOCK_TERMS`` terms per chain.  One
    stable sort lines up each (row, mask) key's terms of a block batch by batch,
    so each identity adds its two batches' terms in the order ``residual`` would.
    Any sign discrepancy shows up as an O(1) residual rather than being absorbed.
    """
    if not 1 <= p <= n - 1:
        raise ValueError("grade must be between 1 and n-1 for the chain")
    # each identity's weights on the direct chain, the codifferential chain and T
    weights = np.array([[1, 0, 1 if (p * (n - p - 1) + 1) % 2 else -1],
                        [0, 1, 1 if ((p - 1) * (n - p)) % 2 else -1],
                        [1, 1 if (n - 1) % 2 else -1, 0]], dtype=float)
    drawn = (random_trace_free(n, trials, rng), *random_forms(n, np.full(trials, p), rng))
    step = max(1, DUALITY_BLOCK_TERMS // (RANDOM_FORM_TERMS * max(p * (n - p + 1), (n - p) * (p + 1))))
    worst = [0.0, 0.0, 0.0]
    for start in range(0, trials, step):
        a, masks, coeffs = (x[start:start + step] for x in drawn)
        keys, values, counts = _live_terms((hodge(n, *_star_chain(a, masks, coeffs)),
                                            _star_chain(a, *hodge(n, masks, coeffs)),
                                            hessian_action(a, masks, coeffs)))
        order = np.argsort(keys, kind="stable")
        _, runs = _runs(keys[order])
        for k, w in enumerate(weights):  # the batch an identity leaves out adds zeros
            sums = np.bincount(runs, weights=np.take(np.repeat(w, counts) * values, order))
            worst[k] = max(worst[k], float(np.abs(sums).max(initial=0.0)))
    res = dict(zip(("direct_vs_T", "codiff_vs_T", "direct_vs_codiff"), worst))
    res["max"] = max(res.values())
    return res

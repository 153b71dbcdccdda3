"""Curvature model of the rank-one symmetric space built on octonion pairs.

Tangent vectors are elements of O^2 = R^16.  For any pair u = (a, b), v = (c, d)
the curvature quadratic form <R(u ^ v), u ^ v> is

    B = ALPHA * ( |a ^ c|^2 + |b ^ d|^2 + |a|^2 |d|^2 / 4 + |b|^2 |c|^2 / 4
                  + <ab, cd> / 2 - <ad, cb> )

with ALPHA = -4, products taken in the octonion algebra and |x ^ y|^2 the
Gram determinant.  B has bidegree (2, 2), so the sectional curvature of the
plane is K = B / |u ^ v|^2, and B = K on an orthonormal pair.

``assemble_operator`` builds the symmetric operator on the 120 monomial
bivectors e_A ^ e_B (A < B) in closed form: (ALPHA / 4) sum_{i<j} c_ij c_ij^T,
with c_ij the bivector coordinates of I_i I_j for the Clifford involutions
of ``octonion``, that is -8 times the projector onto spin(9).  The formula
is the independent route it is checked against.  Ricci, the radial Jacobi
operator and the pinch extremes (eigenvalues of the Jacobi operators) are
linear algebra against that matrix.

Both routes take the multiplication table a run verifies.  ``ALPHA`` is the
model's curvature scale and ``PINCH_STARTS`` the number of directions the
pinch search tries, not settings: the functions read them at call time, so a
test injects a scale fault, or shortens the search, by patching one name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import octonion

N = 16
ALPHA = -4.0
# unit directions whose Jacobi operators give the pinch extremes
PINCH_STARTS = 64
# directions per block of ``CurvatureOperator.jacobi_matrix``
JACOBI_BLOCK = 8

# the 120 bivector monomials e_A ^ e_B (A < B), in the triu order of ``octonion.spin9_generators``
_ROWS, _COLS = np.triu_indices(N, 1)

# n^2 (n^2 - 1) / 12: the dimension of the curvature-type tensors on R^n
CURVATURE_TENSOR_DIM = N * N * (N * N - 1) // 12

DEGENERATE_GRAM = 1e-10


def bivector(x, y, out=None, work=None) -> np.ndarray:
    """Coordinates of x ^ y in the monomial basis, batched on the left, into ``out`` with
    ``work`` as scratch, when given: arrays of the result's shape a caller reuses."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    # np.take gathers faster than fancy indexing; mode="clip" writes into ``out`` unbuffered
    out = np.take(x, _ROWS, axis=-1, out=out, mode="clip")
    work = np.take(y, _COLS, axis=-1, out=work, mode="clip")
    out *= work
    np.take(x, _COLS, axis=-1, out=work, mode="clip")
    work *= np.take(y, _ROWS, axis=-1)
    out -= work
    return out


def bivector_matrix(w) -> np.ndarray:
    """Antisymmetric 16 x 16 matrix of a bivector coordinate array."""
    w = np.asarray(w, dtype=float)
    mat = np.zeros(w.shape[:-1] + (N, N))
    mat[..., _ROWS, _COLS] = w
    mat[..., _COLS, _ROWS] = -w
    return mat


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _gram(x, y):
    """The Gram determinant |x ^ y|^2 and the mask of pairs spanning a plane.

    A pair counts as degenerate when the Gram determinant falls below
    ``DEGENERATE_GRAM`` relative to |x|^2 |y|^2.
    """
    norms = _dot(x, x) * _dot(y, y)
    gram = norms - _dot(x, y) ** 2
    return gram, gram > DEGENERATE_GRAM * norms


@dataclass(frozen=True)
class SectionalCurvature:
    """The curvature quadratic form B of the formula, with scale ``ALPHA`` and the products of
    ``table``, and the sectional curvature B / |x ^ y|^2 it gives.

    ``swap_products`` evaluates the mirrored product order
    (<ba, dc>, <da, bc>) instead; the verification suite uses it to report
    which of the two readings satisfies the pinching bounds.
    """

    swap_products: bool = False
    table: octonion.MultiplicationTable = field(default=octonion.DEFAULT_TABLE, repr=False)

    def quadratic(self, u, v) -> np.ndarray:
        """<R(u ^ v), u ^ v> for any pair (batched): the curvature itself on an orthonormal pair."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        a, b = u[..., :8], u[..., 8:]
        c, d = v[..., :8], v[..., 8:]
        # a, then c, is the operand shared by the stack [b, d]: ab, ad and cb, cd; the mirrored
        # reading multiplies on the other side, ba, da and bc, dc
        bd = np.stack([b, d])
        if self.swap_products:
            (ab, ad), (cb, cd) = (octonion.mul_arrays(bd, x, self.table) for x in (a, c))
        else:
            (ab, ad), (cb, cd) = (octonion.mul_arrays(x, bd, self.table) for x in (a, c))
        wedge_ac = _dot(a, a) * _dot(c, c) - _dot(a, c) ** 2
        wedge_bd = _dot(b, b) * _dot(d, d) - _dot(b, d) ** 2
        return ALPHA * (wedge_ac + wedge_bd + 0.25 * _dot(a, a) * _dot(d, d)
                        + 0.25 * _dot(b, b) * _dot(c, c) + 0.5 * _dot(ab, cd) - _dot(ad, cb))

    def plane_value(self, x, y):
        """Sectional curvature of span(x, y); NaN for a degenerate plane."""
        gram, good = _gram(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        q = self.quadratic(x, y)
        return np.divide(q, gram, out=np.full_like(q, np.nan), where=good)


@dataclass
class CurvatureOperator:
    """Symmetric operator on bivector monomial coordinates (120 x 120)."""

    matrix: np.ndarray

    def quadratic(self, x, y, out=None, work=None):
        """<R(x ^ y), x ^ y> (batched), through ``out`` and ``work`` as in ``bivector``."""
        v = bivector(x, y, out, work)
        return _dot(np.matmul(v, self.matrix, out=work), v)

    def ricci(self) -> np.ndarray:
        """Ric(u, v) = sum_A R(u, e_A, v, e_A) as a 16 x 16 matrix."""
        return sum(self.jacobi_matrix(e) for e in np.eye(N))

    def jacobi_matrix(self, u) -> np.ndarray:
        """Radial curvature operator X -> <R(X, u, Y, u)> in the basis, batched on the left,
        JACOBI_BLOCK directions at a time, so no array but the result grows with the batch."""
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1, N)
        out = np.empty((len(flat), N, N))
        for start in range(0, len(flat), JACOBI_BLOCK):
            rows = slice(start, start + JACOBI_BLOCK)
            vecs = bivector(np.eye(N), flat[rows, None, :])
            np.matmul(vecs @ self.matrix, np.swapaxes(vecs, -1, -2), out=out[rows])
        return out.reshape(u.shape + (N,))

    def jacobi_spectrum(self, u) -> np.ndarray:
        return np.linalg.eigvalsh(self.jacobi_matrix(u))

    def export_csv(self, path) -> None:
        np.savetxt(path, self.matrix, delimiter=",", fmt="%.17g")


def assemble_operator(table: octonion.MultiplicationTable = octonion.DEFAULT_TABLE):
    """(ALPHA / 4) sum_{i<j} c_ij c_ij^T over the bivectors c_ij of I_i I_j, the Clifford system
    of ``table``; at ALPHA = -4, -8 times the projector onto spin(9), spectrum {-8 x 36, 0 x 84}."""
    c = octonion.spin9_generators(table)
    return CurvatureOperator(ALPHA / 4.0 * (c.T @ c))


def bianchi_residual(op: CurvatureOperator, rng: octonion.Stream, trials: int) -> float:
    """Max norm of the cyclic sum R(x,y)z + R(z,x)y + R(y,z)x."""
    x, y, z = np.moveaxis(rng.uniform(-1.0, 1.0, (trials, 3, N)), 1, 0)
    total = sum(np.einsum("sab,sa->sb", bivector_matrix(bivector(u, v) @ op.matrix), t)
                for u, v, t in ((x, y, z), (z, x, y), (y, z, x)))
    return float(np.abs(total).max())


def roundtrip_residual(op: CurvatureOperator, x, y, quadratic, gram, good, work) -> float:
    """Worst gap between the operator's quadratic form and the formula's ``quadratic`` on the
    planes span(x, y) the Gram mask ``good`` keeps, over their Gram determinants ``gram``;
    ``work`` holds two arrays of the bivectors' shape for ``CurvatureOperator.quadratic``."""
    gap = np.abs(quadratic - op.quadratic(x, y, *work))
    return float((gap[good] / gram[good]).max(initial=0.0))


@dataclass
class PlaneSweep:
    """What one pass over random planes found; the ranges skip degenerate planes."""

    planes: int
    formula_range: tuple[float, float]
    mirrored_range: tuple[float, float]
    roundtrip: float


def sweep_planes(op: CurvatureOperator, rng: octonion.Stream, planes: int,
                 table: octonion.MultiplicationTable = octonion.DEFAULT_TABLE) -> PlaneSweep:
    """The formula of ``table`` and its mirrored reading on ``planes`` random planes, and
    the assembled operator against the formula on the same planes.

    The planes are drawn by ``octonion.uniform_blocks``, so the result does not depend
    on the block size and no array grows with ``planes``.
    """
    formula, mirrored = SectionalCurvature(table=table), SectionalCurvature(True, table)
    count, worst = 0, 0.0
    low, high = np.full(2, np.inf), np.full(2, -np.inf)  # the formula, the mirrored reading
    work = np.empty((2, min(octonion.MUL_BLOCK_ROWS, planes), len(_ROWS)))  # bivectors, products
    for x, y in octonion.uniform_blocks(rng, range(0, planes, octonion.MUL_BLOCK_ROWS), planes, N):
        gram, good = _gram(x, y)
        quadratic = formula.quadratic(x, y)
        values = np.stack([quadratic, mirrored.quadratic(x, y)])[:, good] / gram[good]
        count += values.shape[1]
        low = np.minimum(low, values.min(axis=1, initial=np.inf))
        high = np.maximum(high, values.max(axis=1, initial=-np.inf))
        worst = np.maximum(worst, roundtrip_residual(op, x, y, quadratic, gram, good, work[:, :len(x)]))
    return PlaneSweep(count, (float(low[0]), float(high[0])), (float(low[1]), float(high[1])),
                      float(worst))


@dataclass
class PinchResult:
    """Extreme sectional values from the Jacobi operators of ``PINCH_STARTS`` unit directions x.

    ``final_values`` holds the smallest eigenvalue of each J_x, then the largest on x⊥;
    ``witnesses`` holds the planes (x, eigenvector) they belong to, in the same order.
    """

    minimum: float
    maximum: float
    final_values: np.ndarray = field(repr=False)
    witnesses: tuple[np.ndarray, np.ndarray] = field(repr=False)


def pinch_extremes(op: CurvatureOperator, rng: octonion.Stream) -> PinchResult:
    """For unit y ⊥ x the sectional curvature K(x, y) is the Rayleigh quotient of J_x,
    so its extremes over y are eigenvalues of J_x restricted to x⊥; ``PINCH_STARTS``
    directions x are drawn from ``rng``."""
    x = rng.standard_normal((PINCH_STARTS, N))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    # the last 15 columns of a complete QR of x are an orthonormal basis of x⊥
    perp = np.linalg.qr(x[:, :, None], mode="complete")[0][:, :, 1:]
    values, vectors = np.linalg.eigh(np.swapaxes(perp, -1, -2) @ op.jacobi_matrix(x) @ perp)
    ends = perp @ vectors[:, :, [0, -1]]
    return PinchResult(
        minimum=float(values[:, 0].min()),
        maximum=float(values[:, -1].max()),
        final_values=np.concatenate([values[:, 0], values[:, -1]]),
        witnesses=(np.concatenate([x, x]), np.concatenate([ends[:, :, 0], ends[:, :, 1]])),
    )

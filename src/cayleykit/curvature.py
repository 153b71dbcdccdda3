"""Curvature model of the rank-one symmetric space built on octonion pairs.

Tangent vectors are elements of O^2 = R^16.  For an orthonormal pair
(a, b), (c, d) the sectional curvature is

    K = ALPHA * ( |a ^ c|^2 + |b ^ d|^2 + |a|^2 |d|^2 / 4 + |b|^2 |c|^2 / 4
                  + <ab, cd> / 2 - <ad, cb> )

with ALPHA = -4, products taken in the octonion algebra and |x ^ y|^2 the
Gram determinant.

``assemble_operator`` builds the symmetric operator on the 120 monomial
bivectors e_A ^ e_B (A < B) in closed form: (ALPHA / 4) sum_{i<j} c_ij c_ij^T,
with c_ij the bivector coordinates of I_i I_j for the Clifford involutions
of ``octonion``, that is -8 times the projector onto spin(9).  The formula
is the independent route it is checked against.  Ricci, the radial Jacobi
operator and the pinching searches are linear algebra against that matrix.

``ALPHA`` is the model's curvature scale, not a setting: the formula and
the operator read it at call time, so a test injects a scale fault by
patching it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import octonion

N = 16
ALPHA = -4.0

# bitmask-free index bookkeeping for the 120 bivector monomials
PAIRS = [(a, b) for a in range(N) for b in range(a + 1, N)]
_ROWS = np.array([a for a, _ in PAIRS])
_COLS = np.array([b for _, b in PAIRS])

# n^2 (n^2 - 1) / 12: the dimension of the curvature-type tensors on R^n
CURVATURE_TENSOR_DIM = N * N * (N * N - 1) // 12

DEGENERATE_GRAM = 1e-10
PINCH_STEP = 1e-2  # initial step of each pinch search start, halved on every rejection


def bivector(x, y) -> np.ndarray:
    """Coordinates of x ^ y in the monomial basis, batched on the left."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x[..., _ROWS] * y[..., _COLS] - x[..., _COLS] * y[..., _ROWS]


def bivector_matrix(w) -> np.ndarray:
    """Antisymmetric 16 x 16 matrix of a bivector coordinate array."""
    w = np.asarray(w, dtype=float)
    mat = np.zeros(w.shape[:-1] + (N, N))
    mat[..., _ROWS, _COLS] = w
    mat[..., _COLS, _ROWS] = -w
    return mat


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _gram(x, y):
    """The Gram determinant |x ^ y|^2 and the mask of pairs spanning a plane.

    A pair counts as degenerate when the Gram determinant falls below
    ``DEGENERATE_GRAM`` relative to |x|^2 |y|^2.
    """
    norms = _dot(x, x) * _dot(y, y)
    gram = norms - _dot(x, y) ** 2
    return gram, gram > DEGENERATE_GRAM * norms


def _orthonormalize(x, y):
    """Gram-Schmidt frame of (x, y), batched; a vector of zero norm is left as it is."""
    nx = np.linalg.norm(x, axis=-1, keepdims=True)
    x = x / np.where(nx > 0, nx, 1.0)
    y = y - np.sum(y * x, axis=-1, keepdims=True) * x
    ny = np.linalg.norm(y, axis=-1, keepdims=True)
    return x, y / np.where(ny > 0, ny, 1.0)


@dataclass(frozen=True)
class SectionalCurvature:
    """The orthonormal-pair curvature formula with scale ``ALPHA``.

    ``swap_products`` evaluates the mirrored product order
    (<ba, dc>, <da, bc>) instead; the verification suite uses it to report
    which of the two readings satisfies the pinching bounds.
    """

    swap_products: bool = False

    def orthonormal_value(self, u, v) -> np.ndarray:
        """Curvature of the plane of an orthonormal pair (batched)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        a, b = u[..., :8], u[..., 8:]
        c, d = v[..., :8], v[..., 8:]
        if self.swap_products:
            ab, cd = octonion.mul_arrays(b, a), octonion.mul_arrays(d, c)
            ad, cb = octonion.mul_arrays(d, a), octonion.mul_arrays(b, c)
        else:
            ab, cd = octonion.mul_arrays(a, b), octonion.mul_arrays(c, d)
            ad, cb = octonion.mul_arrays(a, d), octonion.mul_arrays(c, b)
        wedge_ac = _dot(a, a) * _dot(c, c) - _dot(a, c) ** 2
        wedge_bd = _dot(b, b) * _dot(d, d) - _dot(b, d) ** 2
        value = (
            wedge_ac
            + wedge_bd
            + 0.25 * _dot(a, a) * _dot(d, d)
            + 0.25 * _dot(b, b) * _dot(c, c)
            + 0.5 * _dot(ab, cd)
            - _dot(ad, cb)
        )
        return ALPHA * value

    def plane_value(self, x, y):
        """Sectional curvature of span(x, y); NaN for a degenerate plane."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _, good = _gram(x, y)
        return np.where(good, self.orthonormal_value(*_orthonormalize(x, y)), np.nan)


@dataclass
class CurvatureOperator:
    """Symmetric operator on bivector monomial coordinates (120 x 120)."""

    matrix: np.ndarray

    def tensor(self, x, y, z, w):
        """<R(x ^ y), z ^ w> (batched)."""
        return _dot(bivector(x, y) @ self.matrix, bivector(z, w))

    def quadratic(self, x, y):
        v = bivector(x, y)
        return _dot(v @ self.matrix, v)

    def sectional(self, x, y):
        gram, good = _gram(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.where(good, self.quadratic(x, y) / np.where(good, gram, 1.0), np.nan)

    def ricci(self) -> np.ndarray:
        """Ric(u, v) = sum_A R(u, e_A, v, e_A) as a 16 x 16 matrix."""
        return sum(self.jacobi_matrix(e) for e in np.eye(N))

    def jacobi_matrix(self, u) -> np.ndarray:
        """Radial curvature operator X -> <R(X, u, Y, u)> in the basis, batched on the left."""
        vecs = bivector(np.eye(N), np.asarray(u, dtype=float)[..., None, :])
        return vecs @ self.matrix @ np.swapaxes(vecs, -1, -2)

    def jacobi_spectrum(self, u) -> np.ndarray:
        return np.linalg.eigvalsh(self.jacobi_matrix(u))

    def export_csv(self, path) -> None:
        np.savetxt(path, self.matrix, delimiter=",", fmt="%.17g")


def assemble_operator() -> CurvatureOperator:
    """(ALPHA / 4) sum_{i<j} c_ij c_ij^T over the bivectors c_ij of I_i I_j; at ALPHA = -4,
    -8 times the projector onto spin(9), spectrum {-8 x 36, 0 x 84}."""
    inv = octonion.clifford_involutions()
    i, j = np.triu_indices(len(inv), 1)
    c = (inv[i] @ inv[j])[:, _ROWS, _COLS]
    return CurvatureOperator(ALPHA / 4.0 * (c.T @ c))


def bianchi_residual(op: CurvatureOperator, rng: np.random.Generator, trials: int) -> float:
    """Max norm of the cyclic sum R(x,y)z + R(z,x)y + R(y,z)x."""
    x, y, z = np.moveaxis(rng.uniform(-1.0, 1.0, (trials, 3, N)), 1, 0)
    total = sum(np.einsum("sab,sa->sb", bivector_matrix(bivector(u, v) @ op.matrix), t)
                for u, v, t in ((x, y, z), (z, x, y), (y, z, x)))
    return float(np.abs(total).max())


def symmetry_residual(op: CurvatureOperator, rng: np.random.Generator, trials: int) -> float:
    """Residual of the pair symmetry R(x,y,z,w) = R(z,w,x,y) on random data."""
    x, y, z, w = rng.uniform(-1.0, 1.0, (4, trials, N))
    return float(np.abs(op.tensor(x, y, z, w) - op.tensor(z, w, x, y)).max())


def roundtrip_residual(op: CurvatureOperator, formula: SectionalCurvature, rng: np.random.Generator,
                       trials: int) -> float:
    """Assembled operator against the direct formula on random planes, a block of rows at a time."""
    x, y = rng.uniform(-1.0, 1.0, (2, trials, N))
    worst = 0.0
    for start in range(0, trials, octonion.MUL_BLOCK_ROWS):
        rows = slice(start, start + octonion.MUL_BLOCK_ROWS)
        direct = formula.plane_value(x[rows], y[rows])
        good = ~np.isnan(direct)
        via_op = op.sectional(x[rows], y[rows])
        worst = max(worst, np.abs(direct[good] - via_op[good]).max(initial=0.0))
    return float(worst)


@dataclass
class PinchResult:
    minimum: float
    maximum: float
    final_values: np.ndarray = field(repr=False)


def _pinch_direction(op: CurvatureOperator, rng, starts, max_steps, maximize):
    x = rng.standard_normal((starts, N))
    y = rng.standard_normal((starts, N))
    x, y = _orthonormalize(x, y)
    sign = 1.0 if maximize else -1.0
    step = np.full(starts, PINCH_STEP)
    value = sign * op.sectional(x, y)
    for _ in range(max_steps):
        omega = bivector(x, y) @ op.matrix
        mat = bivector_matrix(omega)
        gx = 2.0 * sign * np.einsum("sab,sb->sa", mat, y)
        gy = -2.0 * sign * np.einsum("sab,sb->sa", mat, x)
        # gradient of the Gram-normalized quotient, evaluated at orthonormal pairs
        k = value[:, None]
        gx = gx - 2.0 * k * x
        gy = gy - 2.0 * k * y
        cand_x = x + step[:, None] * gx
        cand_y = y + step[:, None] * gy
        cand_x, cand_y = _orthonormalize(cand_x, cand_y)
        cand_val = sign * op.sectional(cand_x, cand_y)
        better = cand_val > value + 1e-16
        x = np.where(better[:, None], cand_x, x)
        y = np.where(better[:, None], cand_y, y)
        value = np.where(better, cand_val, value)
        step = np.where(better, step, step * 0.5)
        if np.all(step < 1e-14):
            break
    return sign * value


def pinch_extremes(op: CurvatureOperator, starts: int, max_steps: int, seed: int) -> PinchResult:
    """Projected-gradient search for extreme sectional values on G(2, 16)."""
    rng = np.random.default_rng(seed)
    min_vals = _pinch_direction(op, rng, starts, max_steps, maximize=False)
    max_vals = _pinch_direction(op, rng, starts, max_steps, maximize=True)
    return PinchResult(
        minimum=float(min_vals.min()),
        maximum=float(max_vals.max()),
        final_values=np.concatenate([min_vals, max_vals]),
    )

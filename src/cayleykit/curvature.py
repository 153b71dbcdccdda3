"""Curvature model of the rank-one symmetric space built on octonion pairs.

Tangent vectors are elements of O^2 = R^16.  For an orthonormal pair
(a, b), (c, d) the sectional curvature is

    K = alpha * ( |a ^ c|^2 + |b ^ d|^2 + |a|^2 |d|^2 / 4 + |b|^2 |c|^2 / 4
                  + <ab, cd> / 2 - <ad, cb> )

with alpha = -4, products taken in the octonion algebra and |x ^ y|^2 the
Gram determinant.  Extended by the Gram factor this is the biquadratic
form B(x, y) = <R(x ^ y), x ^ y>, and a four-point polarization stencil
recovers the full (4, 0) tensor exactly because B is polynomial of
bidegree (2, 2).

``assemble_operator`` produces the symmetric operator on the 120 monomial
bivectors e_A ^ e_B (A < B); everything downstream (Ricci, the radial
Jacobi operator, pinching searches) is linear algebra against that
matrix.
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

DEGENERATE_GRAM = 1e-10


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


def _gram(x, y, threshold: float = DEGENERATE_GRAM):
    """|x|^2, the Gram determinant |x ^ y|^2 and the mask of pairs spanning a plane.

    A pair counts as degenerate when the Gram determinant falls below
    ``threshold`` relative to |x|^2 |y|^2.
    """
    nx2 = _dot(x, x)
    ny2 = _dot(y, y)
    gram = nx2 * ny2 - _dot(x, y) ** 2
    scale = np.where(nx2 * ny2 > 0.0, nx2 * ny2, 1.0)
    return nx2, gram, gram > threshold * scale


@dataclass(frozen=True)
class SectionalCurvature:
    """The orthonormal-pair curvature formula with scale ``alpha``.

    ``swap_products`` evaluates the mirrored product order
    (<ba, dc>, <da, bc>) instead; the verification suite uses it to report
    which of the two readings satisfies the pinching bounds.
    """

    alpha: float = ALPHA
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
        return self.alpha * value

    def _frame_value(self, x, y, threshold: float):
        """Curvature of span(x, y) at its Gram-Schmidt frame, with Gram data."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        nx2, gram, good = _gram(x, y, threshold)
        u = x / np.sqrt(np.where(nx2 > 0, nx2, 1.0))[..., None]
        yproj = y - _dot(y, u)[..., None] * u
        np2 = _dot(yproj, yproj)
        v = yproj / np.sqrt(np.where(np2 > 0, np2, 1.0))[..., None]
        return self.orthonormal_value(u, v), gram, good

    def plane_value(self, x, y):
        """Sectional curvature of span(x, y); NaN for a degenerate plane."""
        k, _, good = self._frame_value(x, y, DEGENERATE_GRAM)
        return np.where(good, k, np.nan)

    def biquadratic(self, x, y):
        """B(x, y) = K(span) * Gram(x, y), continuously 0 on degenerate pairs."""
        k, gram, good = self._frame_value(x, y, 1e-14)
        return np.where(good, k * gram, 0.0)


def polarized_tensor(formula: SectionalCurvature, x, y, z, w) -> np.ndarray:
    """R(x, y, z, w) from the exact bidegree-(2,2) difference stencil.

    Normalized so that R(x, y, x, y) equals the biquadratic B(x, y).
    """
    x, y, z, w = (np.asarray(t, dtype=float) for t in (x, y, z, w))

    def mixed(p, q):
        # exact d^2/ds dt at 0 for a polynomial of degree <= 2 in each slot
        return (
            formula.biquadratic(x + p, y + q)
            - formula.biquadratic(x + p, y - q)
            - formula.biquadratic(x - p, y + q)
            + formula.biquadratic(x - p, y - q)
        ) / 4.0

    return (mixed(z, w) - mixed(w, z)) / 6.0


@dataclass
class CurvatureOperator:
    """Symmetric operator on bivector monomial coordinates (120 x 120)."""

    matrix: np.ndarray
    assembly_asymmetry: float = 0.0

    def tensor(self, x, y, z, w):
        """<R(x ^ y), z ^ w> (batched)."""
        wxy = bivector(x, y)
        wzw = bivector(z, w)
        return np.einsum("...i,ij,...j->...", wxy, self.matrix, wzw)

    def quadratic(self, x, y):
        v = bivector(x, y)
        return np.einsum("...i,ij,...j->...", v, self.matrix, v)

    def sectional(self, x, y):
        _, gram, good = _gram(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.where(good, self.quadratic(x, y) / np.where(good, gram, 1.0), np.nan)

    def ricci(self) -> np.ndarray:
        """Ric(u, v) = sum_A R(u, e_A, v, e_A) as a 16 x 16 matrix."""
        ric = np.zeros((N, N))
        eye = np.eye(N)
        for a in range(N):
            vecs = bivector(eye, np.broadcast_to(eye[a], (N, N)))
            ric += np.einsum("ui,ij,vj->uv", vecs, self.matrix, vecs)
        return ric

    def jacobi_matrix(self, u) -> np.ndarray:
        """Radial curvature operator X -> <R(X, u, Y, u)> in the basis."""
        u = np.asarray(u, dtype=float)
        eye = np.eye(N)
        vecs = bivector(eye, np.broadcast_to(u, (N, N)))
        return np.einsum("ai,ij,bj->ab", vecs, self.matrix, vecs)

    def jacobi_spectrum(self, u) -> np.ndarray:
        return np.linalg.eigvalsh(self.jacobi_matrix(u))

    def export_csv(self, path) -> None:
        np.savetxt(path, self.matrix, delimiter=",", fmt="%.17g")


def assemble_operator(formula: SectionalCurvature | None = None) -> CurvatureOperator:
    """Polarize the sectional formula over all monomial bivector pairs.

    The full 120 x 120 array is computed entry by entry without imposing
    symmetry; the measured asymmetry is kept as a self-check and the
    stored matrix is the symmetrized average.
    """
    formula = formula or SectionalCurvature()
    eye = np.eye(N)
    m = len(PAIRS)
    idx = np.arange(m)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    x = eye[_ROWS[ii]]
    y = eye[_COLS[ii]]
    z = eye[_ROWS[jj]]
    w = eye[_COLS[jj]]
    values = polarized_tensor(formula, x, y, z, w).reshape(m, m)
    asym = float(np.abs(values - values.T).max())
    sym = 0.5 * (values + values.T)
    return CurvatureOperator(matrix=sym, assembly_asymmetry=asym)


def bianchi_residual(op: CurvatureOperator, rng: np.random.Generator, trials: int = 200) -> float:
    """Max norm of the cyclic sum R(x,y)z + R(z,x)y + R(y,z)x."""
    worst = 0.0
    for _ in range(trials):
        x, y, z = rng.uniform(-1.0, 1.0, (3, N))
        total = np.zeros(N)
        for (u, v, t) in ((x, y, z), (z, x, y), (y, z, x)):
            omega = bivector(u, v) @ op.matrix
            total = total + bivector_matrix(omega).T @ t
        worst = max(worst, float(np.abs(total).max()))
    return worst


def symmetry_residual(op: CurvatureOperator, rng: np.random.Generator, trials: int = 500) -> float:
    """Residual of the pair symmetry R(x,y,z,w) = R(z,w,x,y) on random data."""
    x, y, z, w = rng.uniform(-1.0, 1.0, (4, trials, N))
    return float(np.abs(op.tensor(x, y, z, w) - op.tensor(z, w, x, y)).max())


def roundtrip_residual(op: CurvatureOperator, formula: SectionalCurvature, rng: np.random.Generator,
                       trials: int = 10000) -> float:
    """Assembled operator against the direct formula on random planes."""
    x, y = rng.uniform(-1.0, 1.0, (2, trials, N))
    direct = formula.plane_value(x, y)
    via_op = op.sectional(x, y)
    good = ~np.isnan(direct)
    return float(np.abs(direct[good] - via_op[good]).max())


@dataclass
class PinchResult:
    minimum: float
    maximum: float
    min_plane: tuple[np.ndarray, np.ndarray]
    max_plane: tuple[np.ndarray, np.ndarray]
    final_values: np.ndarray = field(repr=False)


def _orthonormalize(x, y):
    nx = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-300)
    x = x / nx
    y = y - np.sum(y * x, axis=-1, keepdims=True) * x
    ny = np.maximum(np.linalg.norm(y, axis=-1, keepdims=True), 1e-300)
    return x, y / ny


def _pinch_direction(op: CurvatureOperator, rng, starts, max_steps, step0, maximize):
    x = rng.standard_normal((starts, N))
    y = rng.standard_normal((starts, N))
    x, y = _orthonormalize(x, y)
    sign = 1.0 if maximize else -1.0
    step = np.full(starts, step0)
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
    best = int(np.argmax(value))
    return sign * value, (x[best], y[best])


def pinch_extremes(op: CurvatureOperator, starts: int = 64, max_steps: int = 10000,
                   step: float = 1e-2, seed: int = 0) -> PinchResult:
    """Projected-gradient search for extreme sectional values on G(2, 16)."""
    rng = np.random.default_rng(seed)
    min_vals, min_plane = _pinch_direction(op, rng, starts, max_steps, step, maximize=False)
    max_vals, max_plane = _pinch_direction(op, rng, starts, max_steps, step, maximize=True)
    return PinchResult(
        minimum=float(min_vals.min()),
        maximum=float(max_vals.max()),
        min_plane=min_plane,
        max_plane=max_plane,
        final_values=np.concatenate([min_vals, max_vals]),
    )

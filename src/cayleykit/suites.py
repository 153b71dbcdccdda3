"""Verification suites: every headline identity as a named residual check.

Each suite draws from its own deterministic substream of the master seed
(stable across suite selection; the pinch directions alone are seeded with
the master seed, as ``cayleykit pinch`` is), evaluates a list of checks and
reports the worst residual per check against a pinned tolerance.  The CLI
renders these into ``report.json``; byte-for-byte determinism of that
file (timing aside) is part of the contract, so no check may embed a
wall time.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from . import curvature, exterior, forms, geodesy, kernels, octonion

SUITE_ORDER = ("octonion", "exterior", "curvature", "geodesy", "forms", "kernels")


# pinned tolerances, one per kind of residual
TOL_IDENTITY = 1e-12
TOL_ALGEBRA = 1e-10
TOL_MODEL = 1e-9
TOL_NUMERIC = 1e-8
TOL_SEARCH = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run; each field but ``table`` is set by one flag.

    ``trials`` is the master sampling budget; suites derive their own
    counts from it (octonion pairs = trials, random planes = trials / 10
    but at least 5,440, sparse forms = trials / 100 but at least 1); the
    forms suite draws nothing.  The octonion pairs and the random planes
    are drawn a block of rows at a time, so no array of theirs grows with
    ``trials``.  Every value is checked here, before any suite runs, and
    the multiplication table file is read here, once, into ``table``.
    ``out`` None means no report file for ``verify`` and the current
    directory elsewhere; otherwise ``out``, or the nearest of its
    ancestors that exists, must be a directory.
    """

    seed: int = 0
    trials: int = 100000
    radii: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0)
    out: str | None = None
    fmt: str = "json"
    table_path: str | None = None
    starts: int = 64
    table: octonion.MultiplicationTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("trials", "starts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.fmt!r}")
        if self.out is not None:
            # out itself, or the nearest ancestor that exists, must be a directory
            nearest = os.path.abspath(self.out)
            while not os.path.exists(nearest):
                nearest = os.path.dirname(nearest)
            if not os.path.isdir(nearest):
                raise ValueError(f"out {self.out!r}: {nearest!r} exists and is not a directory")
        if not self.radii:
            raise ValueError("radii must be nonempty")
        if not all(math.isfinite(r) and r >= 1.0 for r in self.radii):
            raise ValueError("radius must be finite and at least 1")
        table = (octonion.MultiplicationTable.load(self.table_path)
                 if self.table_path else octonion.DEFAULT_TABLE)
        object.__setattr__(self, "table", table)

    def suite_rng(self, name: str) -> np.random.Generator:
        key = SUITE_ORDER.index(name)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(key,)))


@dataclass
class CheckResult:
    check: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        d = {"check": self.check, "residual": self.residual,
             "tolerance": self.tolerance, "passed": bool(self.passed)}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class SuiteResult:
    """The checks of one suite; ``artifacts``, not part of the report, holds what the CLI
    writes or reuses (curvature: ``operator`` and ``pinch``)."""

    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, check: str, residual: float, tolerance: float, note: str = "") -> CheckResult:
        res = CheckResult(check, float(residual), float(tolerance),
                          float(residual) <= float(tolerance), note)
        self.checks.append(res)
        return res

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "checks": [c.as_dict() for c in self.checks],
        }


def _relative(delta, scale) -> float:
    return float(np.max(np.abs(delta) / np.maximum(scale, 1e-30)))


def _octonion_residuals(a, b, table, work) -> dict[str, float]:
    """Worst relative residual of each sampled octonion identity on one block of rows.

    The suite reuses ``work``, an (11, rows, 8) array, from block to block: it takes the nine
    products, conj(a) and conj(b), then the three product differences in its first rows.
    """
    mul, conj = partial(octonion.mul_arrays, table=table), octonion.conj_arrays
    a_ab, ab_b, conj_b_conj_a, ab, aa, bb, aa_b, a_bb, a_conj_a, conj_a, conj_b = work
    mul(a, b, out=ab)
    mul(a, a, out=aa)
    mul(b, b, out=bb)
    mul(a, ab, out=a_ab)
    mul(aa, b, out=aa_b)
    mul(ab, b, out=ab_b)
    mul(a, bb, out=a_bb)
    mul(a, conj(a, out=conj_a), out=a_conj_a)
    mul(conj(b, out=conj_b), conj_a, out=conj_b_conj_a)
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    norm_gap = np.linalg.norm(ab, axis=-1) - na * nb
    # row maxima as elementwise maxima of the columns: max(axis=-1) over rows of eight is slower
    square_gap = (reduce(np.maximum, np.abs(a_conj_a[:, 1:], out=a_conj_a[:, 1:]).T)
                  + np.abs(a_conj_a[:, 0] - na**2))
    np.subtract(a_ab, aa_b, out=a_ab)
    np.subtract(ab_b, a_bb, out=ab_b)
    np.subtract(conj(ab, out=aa), conj_b_conj_a, out=conj_b_conj_a)  # aa is read no more
    scale = reduce(np.maximum, np.abs(ab, out=ab).T)[:, None] + 1.0
    deviations = np.divide(np.abs(work[:3], out=work[:3]), scale, out=work[:3])
    return {
        "alternative-laws": float(deviations[:2].max()),
        "conjugation-reversal": float(deviations[2].max()),
        "norm-multiplicativity": _relative(norm_gap, na * nb),
        "conjugate-square-norm": _relative(square_gap, na**2),
    }


def suite_octonion(cfg: RunConfig) -> SuiteResult:
    rng = cfg.suite_rng("octonion")
    out = SuiteResult("octonion")
    table = cfg.table

    # structural table checks are exact: residual 1.0, and the note names the first breakage
    breaks = []
    for i in range(1, 8):
        if table.product(i, i) != (-1, 0):
            breaks.append(f"square of basis {i}")
        for j in range(1, 8):
            if i == j:
                continue
            s, k = table.product(i, j)
            s2, k2 = table.product(j, i)
            if (s2, k2) != (-s, k):
                breaks.append(f"antisymmetry at ({i}, {j})")
            if k in (0, i, j):
                breaks.append(f"closure at ({i}, {j})")
    ref = octonion.MultiplicationTable.generate()
    if not (np.array_equal(table.sign, ref.sign) and np.array_equal(table.index, ref.index)):
        breaks.append("table deviates from the seven triples")
    out.add("octonion.table-closure", 1.0 if breaks else 0.0, 0.5, breaks[0] if breaks else "")

    # a and b each continue their own stream across blocks, so no residual depends on the
    # block size; every block reuses the arrays of the first
    a_rng, b_rng = rng.spawn(2)
    step = octonion.MUL_BLOCK_ROWS
    draws = np.empty((2, min(step, cfg.trials), 8))
    work = np.empty((11, min(step, cfg.trials), 8))
    worst: dict[str, float] = {}
    for start in range(0, cfg.trials, step):
        rows = min(step, cfg.trials - start)
        a, b = draws[:, :rows]
        a_rng.random(out=a)
        b_rng.random(out=b)
        draws[:, :rows] *= 2.0
        draws[:, :rows] -= 1.0  # uniform in [-1, 1)
        for name, value in _octonion_residuals(a, b, table, work[:, :rows]).items():
            worst[name] = max(worst.get(name, 0.0), value)
    for name, value in worst.items():
        out.add(f"octonion.{name}", value, TOL_IDENTITY)

    e = np.eye(8)[1:]  # imaginary units e_0 .. e_6
    fro1 = octonion.mul_arrays(octonion.mul_arrays(e[0], e[1], table), e[2], table)
    fro2 = octonion.mul_arrays(e[0], octonion.mul_arrays(e[1], e[2], table), table)
    wit = max(np.abs(fro1 + e[5]).max(), np.abs(fro2 - e[5]).max())
    out.add("octonion.association-witness", wit, TOL_IDENTITY,
            "(e0 e1) e2 = -e5 while e0 (e1 e2) = +e5")
    return out


def _minus(exponent, batch):
    """The batch times -(-1) ** exponent, elementwise: the subtracted side of an identity."""
    return batch[0], (2.0 * (np.asarray(exponent) % 2) - 1.0) * batch[1]


def _identity_residuals(n, p, k, m, eta) -> dict[str, float]:
    """Worst residual of each single-form identity; ``n``, ``p``, ``k``, ``m`` are per-row columns."""
    ex = exterior
    star = ex.hodge(n, *eta)
    contracted = ex.interior(k, *eta)
    return {
        "involution": ex.residual(ex.hodge(n, *star), _minus(p * (n - p), eta)),
        "push": ex.residual(ex.hodge(n, *ex.epsilon(k, *eta)), _minus(p, ex.interior(k, *star))),
        "pull": ex.residual(ex.epsilon(k, *star), _minus(p - 1, ex.hodge(n, *contracted))),
        "double": ex.residual(ex.hodge(n, *ex.epsilon(k, *star)), _minus((p - 1) * (n - p), contracted)),
        "anticommute": ex.residual(ex.interior(k, *ex.epsilon(m, *eta)), ex.epsilon(m, *contracted),
                                   (eta[0], np.where(k == m, -eta[1], 0.0))),
    }


def suite_exterior(cfg: RunConfig) -> SuiteResult:
    """Hodge and contraction identities in three batches of cases.

    Every monomial of every n <= 6 against every index pair (k, m);
    ``trials / 100`` random sparse forms of mixed grades at n = 16; and the
    duality chain at grades (4, 2), (8, 4), (16, 8).  Serialization runs on
    one row of a batch at a time.
    """
    rng = cfg.suite_rng("exterior")
    out = SuiteResult("exterior")
    ex = exterior

    cases = np.array([(n, mask, k, m) for n in range(1, 7) for mask in range(1 << n)
                      for k in range(n) for m in range(n)])
    n, mask, k, m = cases.T[:, :, None]
    p = np.bitwise_count(mask).astype(np.int64)
    worst = _identity_residuals(n, p, k, m, (mask, np.ones(mask.shape)))

    rows = max(1, cfg.trials // 100)
    p = rng.integers(1, 16, rows)
    k, m, j = rng.integers(0, 16, (3, rows, 1))
    eta = ex.random_forms(16, p, rng)
    xi = ex.random_forms(16, p - 1, rng)
    sampled = _identity_residuals(16, p[:, None], k, m, eta)
    worst = {name: max(worst[name], sampled[name]) for name in worst}
    adjoint = np.abs(ex.inner(*ex.epsilon(j, *xi), *eta) - ex.inner(*xi, *ex.interior(j, *eta)))

    out.add("exterior.star-involution", worst["involution"], TOL_IDENTITY)
    out.add("exterior.star-after-epsilon", worst["push"], TOL_IDENTITY)
    out.add("exterior.epsilon-after-star", worst["pull"], TOL_IDENTITY)
    out.add("exterior.star-epsilon-star", worst["double"], TOL_IDENTITY)
    out.add("exterior.contraction-anticommutator", worst["anticommute"], TOL_IDENTITY)
    out.add("exterior.epsilon-interior-adjoint", adjoint.max(), TOL_IDENTITY)

    trials = 100
    chain = 0.0
    for n, p in ((4, 2), (8, 4), (16, 8)):
        rep = ex.duality_report(n, p, trials, rng)
        chain = max(chain, rep["max"])
    out.add("exterior.duality-chain", chain, TOL_IDENTITY,
            "grades (4,2), (8,4), (16,8)")

    grades = rng.integers(0, 17, 50)
    ser = 0.0
    for p, masks, coeffs in zip(grades.tolist(), *ex.random_forms(16, grades, rng)):
        masks_back, coeffs_back = ex.from_text(ex.to_text(masks, coeffs), 16, p)
        ser = max(ser, ex.residual((masks[None], coeffs[None]), (masks_back, -coeffs_back)))
    out.add("exterior.serialization-roundtrip", ser, 0.0)
    return out


def _outside_pinch(low: float, high: float) -> float:
    """How far the range [low, high] reaches outside [-4, -1]; 1.0 when it is empty."""
    return max(0.0, -4.0 - low, high + 1.0) if low <= high else 1.0


def suite_curvature(cfg: RunConfig) -> SuiteResult:
    rng = cfg.suite_rng("curvature")
    out = SuiteResult("curvature")
    formula = curvature.SectionalCurvature()

    # adapted planes: same-slot pairs sit at -4, opposite-slot pairs at -1
    a = rng.standard_normal((200, 8))
    c = rng.standard_normal((200, 8))
    zero = np.zeros_like(a)
    same = formula.plane_value(np.concatenate([a, zero], axis=1), np.concatenate([c, zero], axis=1))
    mixed = formula.plane_value(np.concatenate([a, zero], axis=1), np.concatenate([zero, c], axis=1))
    res_adapted = max(np.abs(same + 4.0).max(), np.abs(mixed + 1.0).max())
    out.add("curvature.adapted-sectional", res_adapted, TOL_MODEL)

    # one pass over at least the 5,440 planes the operator roundtrip needs, so a small
    # --trials still tests; the pinch range, the mirrored reading and the roundtrip share it
    op = curvature.assemble_operator()
    sweep = curvature.sweep_planes(op, rng, max(curvature.CURVATURE_TENSOR_DIM, cfg.trials // 10))
    out.add("curvature.pinch-range", _outside_pinch(*sweep.formula_range), TOL_MODEL,
            f"{sweep.planes} random planes in [-4, -1]")
    out.add("curvature.product-order-reading", _outside_pinch(*sweep.mirrored_range), TOL_MODEL,
            "mirrored reading <ba,dc> on the same planes")

    # the spin(9) closed form; with first-bianchi, the roundtrip identifies it with the formula
    out.add("curvature.operator-pair-symmetry", float(np.abs(op.matrix - op.matrix.T).max()),
            TOL_ALGEBRA)
    out.add("curvature.first-bianchi", curvature.bianchi_residual(op, rng, trials=200), TOL_ALGEBRA)
    out.add("curvature.operator-roundtrip", sweep.roundtrip, TOL_MODEL)

    ric = op.ricci()
    out.add("curvature.einstein-constant", float(np.abs(ric + 36.0 * np.eye(curvature.N)).max()),
            TOL_MODEL, "Ric = -36 I, scalar -576")

    u = rng.standard_normal((100, curvature.N))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    target = np.array([-4.0] * 7 + [-1.0] * 8 + [0.0])  # ascending, as eigvalsh returns them
    out.add("curvature.radial-spectrum", np.abs(op.jacobi_spectrum(u) - target).max(), TOL_NUMERIC,
            "eigenvalues {0, -4 x 7, -1 x 8} for every unit direction")

    # seeded like ``cayleykit pinch``, so report's pinch.csv is this very search; the formula
    # at the witness planes is the second route to the eigenvalues
    pinch = curvature.pinch_extremes(op, starts=cfg.starts, seed=cfg.seed)
    witness = np.abs(formula.plane_value(*pinch.witnesses) - pinch.final_values).max()
    # np.max, unlike max, keeps a NaN from a degenerate witness plane, so it fails
    res_pinch = np.max([abs(pinch.minimum + 4.0), abs(pinch.maximum + 1.0), witness])
    out.add("curvature.pinch-search", res_pinch, TOL_MODEL,
            f"extremes ({pinch.minimum:.8f}, {pinch.maximum:.8f}) from {cfg.starts} starts, "
            f"formula at the witness planes within {witness:.1e}")
    out.artifacts = {"operator": op, "pinch": pinch}
    return out


def _routes_gap(route_c, exact: float) -> float:
    """Relative gap of route C to route J; an unconverged route C never passes."""
    return abs(route_c.value - exact) / exact if route_c.converged else 1.0


def _routes_note(route_c, exact: float) -> str:
    note = (f"R={route_c.radius:g} N={route_c.nodes}: collocation {route_c.value:.12f} "
            f"(N/2N gap {route_c.error_estimate:.1e}), Jacobi {exact:.12f}")
    return note if route_c.converged else note + ", unconverged"


def suite_geodesy(cfg: RunConfig) -> SuiteResult:
    """Radial comparison, the spectrum bottom by two routes and the warped metric."""
    out = SuiteResult("geodesy")
    g = geodesy

    frozen = 25.026688374180324  # 14 coth 2 + 8 coth 1
    out.add("geodesy.distance-laplacian-value",
            abs(g.distance_laplacian(1.0) - frozen), TOL_MODEL)
    limits = max(abs(g.distance_laplacian(20.0) - 22.0),
                 abs(1e-4 * g.distance_laplacian(1e-4) - 15.0))
    out.add("geodesy.distance-laplacian-limits", limits, 1e-6,
            "22 at infinity, (n - 1)/r near zero")

    tri = 0.0
    for r in (0.5, 1.0, 2.0, 5.0):
        route1 = g.distance_laplacian(r)
        route2 = sum(m * g.index_form(c, r, 2 * g.QUAD_NODES) for c, m in g.CLASSES)
        h = 1e-6
        route3 = (g.log_area(r + h) - g.log_area(r - h)) / (2.0 * h)
        tri = max(tri, abs(route1 - route2), abs(route1 - route3))
    out.add("geodesy.consistency-triangle", tri, TOL_NUMERIC,
            "closed form vs index-form sum vs area derivative")

    quad = gap = 0.0
    for c, _ in g.CLASSES:
        for L in (1.0, 2.0):
            value = g.index_form(c, L, g.QUAD_NODES)
            quad = max(quad, abs(value - g.hessian_eigenvalue(c, L)))
            gap = max(gap, abs(g.index_form(c, L, 2 * g.QUAD_NODES) - value))
    out.add("geodesy.jacobi-index-form", quad if gap <= TOL_NUMERIC else 1.0, TOL_NUMERIC,
            f"{g.QUAD_NODES}-node Gauss-Legendre, {gap:.1e} off {2 * g.QUAD_NODES} nodes")

    grow = abs(g.log_area(50.0) / 50.0 - 22.0) / 22.0
    small = abs(g.area(1e-3) / (2.0**7 * (1e-3) ** 15) - 1.0)
    held = "(< 1%)" if small <= 1e-3 and grow <= 0.01 else f"(A off by {small:.2%} at r = 1e-3)"
    out.add("geodesy.area-volume", small, 1e-3,
            f"A ~ 128 r^15 near zero; log A(50)/50 off 22 by {grow:.2%} {held}")
    out.add("geodesy.volume-growth-rate", grow, 0.01)

    # the paper's bottom 121 against rho^2, and collocation against the Jacobi closed form at
    # R = 10; both routes read CLASSES, so only the claim sees a class fault
    rho2 = g.spectrum_bottom()
    at10, exact = g.dirichlet_value(10.0), g.jacobi_dirichlet(10.0)
    out.add("geodesy.spectrum-bottom", max(_routes_gap(at10, exact), abs(rho2 - 121.0) / 121.0),
            g.TOL_DIRICHLET,
            f"{_routes_note(at10, exact)}; rho^2 = {rho2:g} against 121")

    values = sorted((g.dirichlet_value(r) for r in cfg.radii), key=lambda v: v.radius)
    lams = [v.value for v in values]
    monotone = all(a >= b * (1.0 - g.TOL_DIRICHLET) for a, b in zip(lams, lams[1:]))
    # McKean: q >= rho^2 gives lambda(R) > rho^2 at every R; far out q rounds to rho^2 within ulps
    bound = min(0.0, float((g.liouville_potential(np.linspace(1e-3, 60.0, 6000)) - rho2).min()))
    above = min(lams) > rho2
    converged = all(v.converged for v in values)
    gaps = max(v.error_estimate for v in values)
    note = (f"collocation (N <= {max(v.nodes for v in values)}, N/2N gaps <= {gaps:.1e}) "
            f"{'decreases' if monotone else 'does not decrease'} with R; lowest {min(lams):.12f}, "
            f"{'above' if above else 'below'} rho^2 = {rho2:g}; "
            f"inf q - rho^2 = {bound:.1e} (McKean)")
    if not converged:
        note += ", unconverged"
    held = monotone and above and converged and bound >= -4.0 * np.spacing(rho2)
    out.add("geodesy.spectrum-domain-monotone", 0.0 if held else 1.0, 0.5, note)

    worst = max(((v, g.jacobi_dirichlet(v.radius)) for v in values), key=lambda p: _routes_gap(*p))
    out.add("geodesy.sturm-crosscheck", _routes_gap(*worst), g.TOL_DIRICHLET, _routes_note(*worst))

    # the warped metric's mean curvature and Hessian are sums over CLASSES, per class
    blocks = [-c * m for c, m in g.CLASSES]
    fixed = max(abs(sum(blocks) + 22.0), abs(sum(c * c * m for c, m in g.CLASSES) - 36.0),
                *(abs(b - claim) for b, claim in zip(blocks, (-14.0, -8.0))))
    out.add("geodesy.warped-constants", fixed, TOL_IDENTITY,
            "mean curvature -22, Hessian norm 36")
    out.add("geodesy.warped-curvature-fd", g.warped_curvature_residual(), TOL_SEARCH)
    return out


def suite_forms(cfg: RunConfig) -> SuiteResult:
    out = SuiteResult("forms")
    f = forms

    expected2 = f.ConstraintSet(4, f.diagonal_rows(4, [(0, 2), (1, 3)]))
    got2 = f.standard_constraints("kahler", 2)
    expected4 = f.ConstraintSet(8, f.diagonal_rows(8, [(i, i + 4) for i in range(4)]))
    got4 = f.standard_constraints("kahler", 4)
    out.add("forms.kahler-constraints",
            0.0 if (got2 == expected2 and got4 == expected4) else 1.0, 0.5,
            "exactly the n diagonal-pair functionals")

    vol_dev = exterior.residual(f.quaternionic_form(1), (np.array([[0b1111]]), np.array([[-6.0]])))
    out.add("forms.quaternionic-volume", vol_dev, TOL_IDENTITY, "n = 1 form is 6 vol")

    got_q1 = f.standard_constraints("quaternionic", 1)
    exp_q1 = f.ConstraintSet(4, f.diagonal_rows(4, [range(4)]))
    got_q2 = f.standard_constraints("quaternionic", 2)
    exp_q2 = f.ConstraintSet(8, f.diagonal_rows(8, [range(i, 8, 2) for i in range(2)]))
    out.add("forms.quaternionic-constraints",
            0.0 if (got_q1 == exp_q1 and got_q2 == exp_q2) else 1.0, 0.5,
            "the n four-term diagonal functionals")

    phi = f.spin9_form()
    (masks,), (coeffs,) = phi
    tops = coeffs[np.isin(masks, f.spin9_targets())]
    sizes = Counter(np.rint(np.abs(coeffs) * -f.CAYLEY_SCALE).astype(int).tolist())
    types = Counter(zip(np.bitwise_count(masks & f.V_TOP).tolist(),
                        np.bitwise_count(masks & f.W_TOP).tolist()))
    (rows, cols, values), (size, width) = f.so_action(f.SPIN9_DIM, *phi)
    inv = octonion.clifford_involutions()
    i, j = np.triu_indices(9, 1)
    p, q = np.triu_indices(f.SPIN9_DIM, 1)
    spin9 = (inv[i] @ inv[j])[:, p, q]
    gram, annihilated, step = np.zeros((size, size)), 0.0, octonion.MUL_BLOCK_ROWS
    # Gram matrix and I_i I_j products over dense blocks of ``step`` columns, the last zero-padded
    for start in range(0, width, step):
        live = (cols >= start) & (cols < start + step)
        action = np.bincount(rows[live] * step + cols[live] - start, values[live],
                             minlength=size * step).reshape(size, step)
        gram += action @ action.T
        annihilated = max(annihilated, float(np.abs(spin9 @ action).max()))
    stabilizer = size - np.linalg.matrix_rank(gram)
    base_ok = (tops.tolist() == [-1.0, 1.0]
               and sizes == {360: 448, 720: 252, 5040: 2}
               and types == {(8, 0): 1, (6, 2): 112, (4, 4): 476, (2, 6): 112, (0, 8): 1}
               and stabilizer == 36 and annihilated <= TOL_ALGEBRA)
    out.add("forms.spin9-base-form", 0.0 if base_ok else 1.0, 0.5,
            f"Phi: {masks.size} terms, tops {'/'.join(f'{t:+g}' for t in tops) or 'none'}; "
            f"stabilizer in so(16) of dimension {stabilizer}, "
            f"every I_i I_j annihilates Phi to {annihilated:.1e}")

    expect = -f.diagonal_rows(f.SPIN9_DIM, [range(8)])
    func_dev = float(np.abs(f.monomial_functionals(f.SPIN9_DIM, *phi, [f.V_TOP]) - expect).max())
    out.add("forms.spin9-top-functional", func_dev, TOL_IDENTITY,
            "-sum of the first eight diagonal entries")
    out.add("forms.spin9-no-leak", f.no_leak_report(*phi), 0.0,
            f"the {masks.size - 2} non-top terms leave both top coefficients untouched "
            f"at all 256 index pairs")

    an = f.extract_constraints(f.SPIN9_DIM, masks, 3.7 * coeffs, f.spin9_targets())
    bn = f.extract_constraints(f.SPIN9_DIM, *phi, f.spin9_targets())
    out.add("forms.extraction-invariance", 0.0 if an == bn else 1.0, 0.5, "rescaling invariance")
    return out


def suite_kernels(cfg: RunConfig) -> SuiteResult:
    out = SuiteResult("kernels")
    k = kernels
    f = forms

    cs9 = f.standard_constraints("spin9")
    r9 = k.min_bochner_ratio(cs9)
    cross = abs(r9.eigen_ratio - float(r9.rational))
    out.add("kernels.ratio-spin9", float(abs(r9.rational - Fraction(8, 7))) + cross, TOL_MODEL,
            f"minimal ratio 8/7 certified, eigen route off by {cross:.2e}")

    # the minimizing eigenspace is one-dimensional, so a_11 = -7 fixes scale and sign
    a = r9.minimizer
    want = np.diag([-7.0] + [1.0] * 7 + [0.0] * 8)
    shape = float(np.abs(a * (-7.0 / a[0, 0]) - want).max()) if a[0, 0] else 1.0
    attained = abs(k.objective(a) - float(r9.rational))
    out.add("kernels.spin9-minimizer", max(shape, attained), TOL_MODEL,
            "diag(-7 mu, mu I7, 0_8) up to scale, attaining 8/7")

    res = 0.0
    for n in (2, 4):
        rk = k.min_bochner_ratio(f.standard_constraints("kahler", n))
        exponent, _ = k.kato_transform(rk.rational)
        res = max(res, float(abs(rk.rational - 2)), 0.0 if exponent == 0 else 1.0)
    out.add("kernels.ratio-kahler", res, TOL_MODEL, "ratio 2, transform degenerate")

    res = 0.0
    for n in (1, 2):
        rq = k.min_bochner_ratio(f.standard_constraints("quaternionic", n))
        _, drift = k.kato_transform(rq.rational)
        res = max(res, float(abs(rq.rational - Fraction(4, 3))), float(abs(drift - 24)))
    out.add("kernels.ratio-quaternionic", res, TOL_MODEL)

    # the claim itself, not the eigen route's candidate
    reason = k.certify_ratio(cs9, Fraction(8, 7))
    out.add("kernels.sharpness", 0.0 if reason is None else 1.0, 0.0,
            reason or "8/7 exact: P - 8/7 Q semidefinite and singular on the feasible space")

    # nested feasible sets, nested ratios: the trace alone (1 + 1/15 in closed form), then
    # Spin(9)'s rows, then one more row
    alone = k.min_bochner_ratio(f.ConstraintSet(16, np.zeros((0, cs9.rows.shape[1])))).rational
    extra = f.ConstraintSet(16, np.vstack([cs9.rows, f.diagonal_rows(16, [(1, 9)])]))
    tightened, _ = k.rayleigh_ratio(extra)
    mono = (alone == Fraction(16, 15) and alone <= r9.rational
            and tightened >= float(r9.rational) - 1e-12)
    out.add("kernels.constraint-monotonicity", 0.0 if mono else 1.0, 0.5,
            f"trace-free alone {alone}, extra constraint moves the ratio to {tightened:.6f}")

    exponent, drift = k.kato_transform(r9.rational)
    trans = max(abs(exponent - Fraction(6, 7)), abs(drift - Fraction(216, 7)))
    out.add("kernels.kato-transform", float(trans), TOL_IDENTITY, "exponent 6/7, drift 216/7")

    lam1 = geodesy.spectrum_bottom()
    thr = max(abs(k.vanishing_threshold(1.0, lam1) + 242.0),
              abs(k.vanishing_threshold(1.0 / 7.0, lam1) + 968.0 / 7.0))
    out.add("kernels.vanishing-thresholds", thr, TOL_IDENTITY,
            f"threshold -(1 + b) rho^2, rho^2 = {lam1:g}: -242 at b = 1, -968/7 at b = 1/7")
    return out


SUITES = {
    "octonion": suite_octonion,
    "exterior": suite_exterior,
    "curvature": suite_curvature,
    "geodesy": suite_geodesy,
    "forms": suite_forms,
    "kernels": suite_kernels,
}


def run_suites(names, cfg: RunConfig) -> tuple[list[SuiteResult], dict[str, float]]:
    """Run the named suites in ``SUITE_ORDER``, timing each one; a suite that
    raises is one failed check ``<suite>.crashed``, and the others still run."""
    results: list[SuiteResult] = []
    timings: dict[str, float] = {}
    for name in SUITE_ORDER:
        if name in names:
            start = time.monotonic()
            try:
                result = SUITES[name](cfg)
            except Exception as exc:
                result = SuiteResult(name)
                result.add(f"{name}.crashed", 1.0, 0.5, f"{type(exc).__name__}: {exc}")
            results.append(result)
            timings[name] = time.monotonic() - start
    return results, timings

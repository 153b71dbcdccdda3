"""Verification suites: every headline identity as a named residual check.

Each suite draws from its own deterministic substream of the master seed
(stable across suite selection), evaluates a list of checks and reports
the worst residual per check against a pinned tolerance.  The CLI
renders these into ``report.json``; byte-for-byte determinism of that
file (timing aside) is part of the contract, so no check may embed a
wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import curvature, exterior, forms, geodesy, kernels, octonion

SUITE_ORDER = ("octonion", "exterior", "curvature", "geodesy", "forms", "kernels")


# pinned tolerances, one per kind of residual
TOL_IDENTITY = 1e-12
TOL_ALGEBRA = 1e-10
TOL_MODEL = 1e-9
TOL_NUMERIC = 1e-8
TOL_SEARCH = 1e-6
TOL_SPECTRAL = 0.005


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run; each field is set by one command line flag.

    ``trials`` is the master sampling budget; suites derive their own
    counts from it (document: forms specs = trials / 1000, random planes
    = trials / 10, sparse forms = trials / 100, all at least 1).  Every
    value is checked here, before any suite runs.
    """

    seed: int = 0
    trials: int = 100000
    radii: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0)
    grids: tuple[int, ...] = (2000, 4000, 8000)
    out: str = "."
    fmt: str = "json"
    table_path: str | None = None
    starts: int = 64
    steps: int = 10000

    def __post_init__(self):
        for name in ("trials", "starts", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.fmt!r}")
        if not self.radii or not self.grids:
            raise ValueError("radii and grids must be nonempty")
        # the smallest problem any spectrum estimate solves: its coarse half grid
        for radius in self.radii:
            geodesy.SturmLiouvilleProblem(radius, min(self.grids) // 2)

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
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

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


def suite_octonion(cfg: RunConfig) -> SuiteResult:
    rng = cfg.suite_rng("octonion")
    out = SuiteResult("octonion")
    table = (octonion.MultiplicationTable.load(cfg.table_path)
             if cfg.table_path else octonion.DEFAULT_TABLE)

    # structural table checks are exact: residual 1.0 flags the first breakage
    structural = 0.0
    note = ""
    for i in range(1, 8):
        if table.product(i, i) != (-1, 0):
            structural, note = 1.0, f"square of basis {i}"
        for j in range(1, 8):
            if i == j:
                continue
            s, k = table.product(i, j)
            s2, k2 = table.product(j, i)
            if (s2, k2) != (-s, k):
                structural, note = 1.0, f"antisymmetry at ({i}, {j})"
            if k in (0, i, j):
                structural, note = 1.0, f"closure at ({i}, {j})"
    ref = octonion.MultiplicationTable.generate()
    if not (np.array_equal(table.sign, ref.sign) and np.array_equal(table.index, ref.index)):
        structural, note = max(structural, 1.0), note or "table deviates from the seven triples"
    out.add("octonion.table-closure", structural, 0.5, note)

    a = rng.uniform(-1.0, 1.0, (cfg.trials, 8))
    b = rng.uniform(-1.0, 1.0, (cfg.trials, 8))
    ab = octonion.mul_arrays(a, b, table)
    scale = np.abs(ab).max(axis=-1) + 1.0
    left = octonion.mul_arrays(a, ab, table) - octonion.mul_arrays(octonion.mul_arrays(a, a, table), b, table)
    right = octonion.mul_arrays(ab, b, table) - octonion.mul_arrays(a, octonion.mul_arrays(b, b, table), table)
    out.add("octonion.alternative-laws",
            max(_relative(left.max(axis=-1), scale), _relative(right.max(axis=-1), scale)),
            TOL_IDENTITY)

    conj_prod = octonion.conj_arrays(ab)
    rev = octonion.mul_arrays(octonion.conj_arrays(b), octonion.conj_arrays(a), table)
    out.add("octonion.conjugation-reversal", _relative((conj_prod - rev).max(axis=-1), scale),
            TOL_IDENTITY)

    na = octonion.norm_arrays(a)
    nb = octonion.norm_arrays(b)
    out.add("octonion.norm-multiplicativity",
            _relative(octonion.norm_arrays(ab) - na * nb, na * nb), TOL_IDENTITY)

    sq = octonion.mul_arrays(a, octonion.conj_arrays(a), table)
    dev = np.abs(sq[:, 1:]).max(axis=-1) + np.abs(sq[:, 0] - na**2)
    out.add("octonion.conjugate-square-norm", _relative(dev, na**2), TOL_IDENTITY)

    e = np.eye(8)[1:]  # imaginary units e_0 .. e_6
    fro1 = octonion.mul_arrays(octonion.mul_arrays(e[0], e[1], table), e[2], table)
    fro2 = octonion.mul_arrays(e[0], octonion.mul_arrays(e[1], e[2], table), table)
    wit = max(np.abs(fro1 + e[5]).max(), np.abs(fro2 - e[5]).max())
    out.add("octonion.association-witness", wit, TOL_IDENTITY,
            "(e0 e1) e2 = -e5 while e0 (e1 e2) = +e5")
    return out


def suite_exterior(cfg: RunConfig) -> SuiteResult:
    rng = cfg.suite_rng("exterior")
    out = SuiteResult("exterior")
    ex = exterior

    worst = {name: 0.0 for name in ("involution", "push", "pull", "double", "anticommute", "adjoint")}

    def run_case(eta, k, m):
        n, p = eta.n, eta.grade
        worst["involution"] = max(worst["involution"],
                                  (ex.hodge(ex.hodge(eta)) - (-1) ** (p * (n - p)) * eta).sup_norm())
        if p < n:
            worst["push"] = max(worst["push"],
                                (ex.hodge(ex.epsilon(k, eta)) - (-1) ** p * ex.interior(k, ex.hodge(eta))).sup_norm())
        if p >= 1:
            worst["pull"] = max(worst["pull"],
                                (ex.epsilon(k, ex.hodge(eta)) - (-1) ** (p - 1) * ex.hodge(ex.interior(k, eta))).sup_norm())
            worst["double"] = max(worst["double"],
                                  (ex.hodge(ex.epsilon(k, ex.hodge(eta)))
                                   - (-1) ** ((p - 1) * (n - p)) * ex.interior(k, eta)).sup_norm())
        # at the grade edges one side of the anticommutator vanishes identically
        if p == n:
            anti = ex.epsilon(m, ex.interior(k, eta))
        elif p == 0:
            anti = ex.interior(k, ex.epsilon(m, eta))
        else:
            anti = ex.interior(k, ex.epsilon(m, eta)) + ex.epsilon(m, ex.interior(k, eta))
        target = eta if k == m else ex.Form.zero(n, p)
        worst["anticommute"] = max(worst["anticommute"], (anti - target).sup_norm())

    # exhaustive over small dimensions, every monomial and index pair
    for n in range(1, 7):
        for p in range(0, n + 1):
            for mask in range(1 << n):
                if mask.bit_count() != p:
                    continue
                eta = ex.Form(n, p, {mask: 1.0})
                for k in range(n):
                    for m in range(n):
                        run_case(eta, k, m)
    # random sparse forms at full dimension
    for _ in range(max(1, cfg.trials // 100)):
        p = int(rng.integers(1, 16))
        eta = ex.random_form(16, p, rng)
        run_case(eta, int(rng.integers(0, 16)), int(rng.integers(0, 16)))
        xi = ex.random_form(16, p - 1, rng)
        k = int(rng.integers(0, 16))
        adj = abs(ex.inner(ex.epsilon(k, xi), eta) - ex.inner(xi, ex.interior(k, eta)))
        worst["adjoint"] = max(worst["adjoint"], adj)

    out.add("exterior.star-involution", worst["involution"], TOL_IDENTITY)
    out.add("exterior.star-after-epsilon", worst["push"], TOL_IDENTITY)
    out.add("exterior.epsilon-after-star", worst["pull"], TOL_IDENTITY)
    out.add("exterior.star-epsilon-star", worst["double"], TOL_IDENTITY)
    out.add("exterior.contraction-anticommutator", worst["anticommute"], TOL_IDENTITY)
    out.add("exterior.epsilon-interior-adjoint", worst["adjoint"], TOL_IDENTITY)

    trials = 100
    chain = 0.0
    for n, p in ((4, 2), (8, 4), (16, 8)):
        rep = ex.duality_report(n, p, trials, rng)
        chain = max(chain, rep["max"])
    out.add("exterior.duality-chain", chain, TOL_IDENTITY,
            "grades (4,2), (8,4), (16,8)")

    ser = 0.0
    for _ in range(50):
        p = int(rng.integers(0, 17))
        eta = ex.random_form(16, p, rng)
        back = ex.Form.from_text(eta.to_text(), 16, p)
        ser = max(ser, (eta - back).sup_norm())
    out.add("exterior.serialization-roundtrip", ser, 0.0)
    return out


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

    planes = max(1, cfg.trials // 10)
    x, y = rng.uniform(-1.0, 1.0, (2, planes, curvature.N))
    ks = formula.plane_value(x, y)
    ks = ks[~np.isnan(ks)]
    overshoot = max(0.0, float((-4.0 - ks.min())), float(ks.max() - (-1.0)))
    out.add("curvature.pinch-range", overshoot, TOL_MODEL,
            f"{ks.size} random planes in [-4, -1]")

    mirrored = curvature.SectionalCurvature(swap_products=True)
    km = mirrored.plane_value(x, y)
    km = km[~np.isnan(km)]
    mirror_overshoot = max(0.0, float((-4.0 - km.min())), float(km.max() - (-1.0)))
    both = mirror_overshoot <= TOL_MODEL
    out.add("curvature.product-order-reading", overshoot, TOL_MODEL,
            "chosen reading <ab,cd> passes; mirrored reading "
            + ("also satisfies the bounds" if both else "fails the bounds"))

    op = curvature.assemble_operator(formula)
    sym = max(op.assembly_asymmetry, curvature.symmetry_residual(op, rng, trials=500))
    out.add("curvature.operator-pair-symmetry", sym, TOL_ALGEBRA)
    out.add("curvature.first-bianchi", curvature.bianchi_residual(op, rng, trials=200), TOL_ALGEBRA)
    out.add("curvature.operator-roundtrip",
            curvature.roundtrip_residual(op, formula, rng, trials=max(1, cfg.trials // 10)),
            TOL_MODEL)

    ric = op.ricci()
    out.add("curvature.einstein-constant", float(np.abs(ric + 36.0 * np.eye(curvature.N)).max()),
            TOL_MODEL, "Ric = -36 I, scalar -576")

    target = np.array([-4.0] * 7 + [-1.0] * 8 + [0.0])
    jac = 0.0
    for _ in range(100):
        u = rng.standard_normal(curvature.N)
        u /= np.linalg.norm(u)
        spec = np.sort(op.jacobi_spectrum(u))
        jac = max(jac, float(np.abs(spec - np.sort(target)).max()))
    out.add("curvature.radial-spectrum", jac, TOL_NUMERIC,
            "eigenvalues {0, -4 x 7, -1 x 8} for every unit direction")

    pinch = curvature.pinch_extremes(op, starts=cfg.starts, max_steps=cfg.steps,
                                     seed=int(rng.integers(0, 2**32)))
    res_pinch = max(abs(pinch.minimum + 4.0), abs(pinch.maximum + 1.0))
    out.add("curvature.pinch-search", res_pinch, TOL_SEARCH,
            f"extremes ({pinch.minimum:.8f}, {pinch.maximum:.8f}) from {cfg.starts} starts")
    return out


def suite_geodesy(cfg: RunConfig) -> SuiteResult:
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
        route2 = sum(m * g.hessian_eigenvalue(c, r) for c, m in g.CAYLEY.classes)
        h = 1e-6
        route3 = (g.log_area(r + h) - g.log_area(r - h)) / (2.0 * h)
        tri = max(tri, abs(route1 - route2), abs(route1 - route3))
    out.add("geodesy.consistency-triangle", tri, TOL_NUMERIC,
            "closed form vs index-form sum vs area derivative")

    quad = 0.0
    for c, _ in g.CAYLEY.classes:
        for L in (1.0, 2.0):
            def energy(t, c=c, L=L):
                fp = c * np.cosh(c * t) / np.sinh(c * L)
                return float(fp**2 + c**2 * g.jacobi_profile(c, L, t) ** 2)
            quad = max(quad, abs(g.adaptive_simpson(energy, 0.0, L) - g.hessian_eigenvalue(c, L)))
    out.add("geodesy.jacobi-index-form", quad, TOL_NUMERIC)

    grow = abs(g.log_area(50.0) / 50.0 - 22.0) / 22.0
    small = abs(g.area(1e-3) / (2.0**7 * (1e-3) ** 15) - 1.0)
    _, vol1 = g.area_volume(1.0)
    _, vol2 = g.area_volume(2.0)
    mono = 0.0 if 0.0 < vol1 < vol2 else 1.0
    out.add("geodesy.area-volume", max(small, mono), 1e-3,
            f"A ~ 128 r^15 near zero; log A(50)/50 off 22 by {grow:.2%} (< 1%)")
    out.add("geodesy.volume-growth-rate", grow, 0.01)

    grid = max(cfg.grids)
    est = g.spectrum_estimate(10.0, grid)
    in_band = 121.0 <= est.value <= 123.0
    rel = abs(est.richardson - 121.0) / 121.0
    note = (f"R=10 N={grid}: value {est.value:.6f}, extrapolated {est.richardson:.6f} "
            f"(gap {est.gap:+.4f})")
    if not est.converged:
        note += ", unconverged"
    out.add("geodesy.spectrum-bottom", rel if in_band and est.converged else 1.0, TOL_SPECTRAL,
            note)

    lams = [g.spectrum_estimate(r, min(cfg.grids)).value for r in cfg.radii]
    monotone = all(lams[i] >= lams[i + 1] - 1e-9 for i in range(len(lams) - 1))
    floor = min(lams) >= 121.0 - 1e-6
    out.add("geodesy.spectrum-domain-monotone", 0.0 if (monotone and floor) else 1.0, 0.5,
            "Dirichlet values decrease with R and stay above 121")

    prob = g.SturmLiouvilleProblem(8.0, 2000)
    d, e = prob.tridiagonal()
    own = g.smallest_eigenvalue(d, e)
    # bisection to full accuracy; the default drivers only reach ~eps * |T|
    lapack = float(scipy.linalg.eigh_tridiagonal(
        d, e, eigvals_only=True, select="i", select_range=(0, 0),
        lapack_driver="stebz", tol=2.0 * np.finfo(float).tiny)[0])
    out.add("geodesy.sturm-crosscheck", abs(own - lapack), TOL_MODEL,
            "multisection bisection vs LAPACK")

    rep = g.warped_report()
    fixed = max(
        abs(rep.mean_curvature + 22.0),
        abs(rep.hessian_norm_sq - 36.0),
        abs(rep.cauchy_schwarz_lhs - 36.0),
        abs(sum(rep.hessian_diagonal[:7]) + 14.0),
        abs(sum(rep.hessian_diagonal[7:]) + 8.0),
    )
    out.add("geodesy.warped-constants", fixed, TOL_IDENTITY,
            "mean curvature -22, Hessian norm 36, Cauchy-Schwarz saturated")
    out.add("geodesy.warped-curvature-fd", max(rep.fd_residual, rep.jacobi_residual), TOL_SEARCH)
    return out


def suite_forms(cfg: RunConfig) -> SuiteResult:
    rng = cfg.suite_rng("forms")
    out = SuiteResult("forms")
    f = forms

    expected2 = f.ConstraintSet(4, [(((0, 0), 1.0), ((2, 2), 1.0)), (((1, 1), 1.0), ((3, 3), 1.0))])
    got2 = f.standard_constraints("kahler", 2)
    expected4 = f.ConstraintSet(8, [tuple([((i, i), 1.0), ((i + 4, i + 4), 1.0)]) for i in range(4)])
    got4 = f.standard_constraints("kahler", 4)
    out.add("forms.kahler-constraints",
            0.0 if (got2 == expected2 and got4 == expected4) else 1.0, 0.5,
            "exactly the n diagonal-pair functionals")

    q1 = f.quaternionic_form(1)
    vol_dev = (q1 - 6.0 * exterior.Form.volume(4)).sup_norm()
    out.add("forms.quaternionic-volume", vol_dev, TOL_IDENTITY, "n = 1 form is 6 vol")

    got_q1 = f.standard_constraints("quaternionic", 1)
    exp_q1 = f.ConstraintSet(4, [tuple([((i, i), 1.0) for i in range(4)])])
    got_q2 = f.standard_constraints("quaternionic", 2)
    exp_q2 = f.ConstraintSet(8, [tuple([((i, i), 1.0), ((i + 2, i + 2), 1.0),
                                        ((i + 4, i + 4), 1.0), ((i + 6, i + 6), 1.0)])
                                 for i in range(2)])
    out.add("forms.quaternionic-constraints",
            0.0 if (got_q1 == exp_q1 and got_q2 == exp_q2) else 1.0, 0.5,
            "the n four-term diagonal functionals")

    base = f.spin9_form()
    base_ok = (sorted(base.coeffs.items()) == [(f.V_TOP, -1.0), (f.W_TOP, 1.0)])
    out.add("forms.spin9-base-form", 0.0 if base_ok else 1.0, 0.5,
            "two top monomials with coefficients -1 and +1")

    specs = max(1, cfg.trials // 1000)
    func_dev = 0.0
    leak = 0.0
    for _ in range(specs):
        spec = f.random_f_spec(rng)
        func = f.coefficient_functional(f.spin9_form(spec), f.V_TOP)
        expect = {(i, i): -1.0 for i in range(8)}
        keys = set(func) | set(expect)
        func_dev = max(func_dev, max(abs(func.get(k, 0.0) - expect.get(k, 0.0)) for k in keys))
        leak = max(leak, f.no_leak_report(f.build_correction(spec))["max_leak"])
    out.add("forms.spin9-top-functional", func_dev, TOL_IDENTITY,
            f"-sum of the first eight diagonal entries, independent of F ({specs} corrections)")
    out.add("forms.spin9-no-leak", leak, 0.0,
            "all 256 index pairs leave both top coefficients untouched")

    spec = f.random_f_spec(rng)
    an = f.extract_constraints(3.7 * f.spin9_form(spec), f.spin9_targets())
    bn = f.extract_constraints(f.spin9_form(spec), f.spin9_targets())
    ser_ok = all(
        f.ConstraintSet.from_json(cs.to_json()) == cs
        for cs in (got2, got_q2, bn)
    )
    out.add("forms.extraction-invariance", 0.0 if (an == bn and ser_ok) else 1.0, 0.5,
            "rescaling invariance and JSON round trip")
    return out


def suite_kernels(cfg: RunConfig) -> SuiteResult:
    rng = cfg.suite_rng("kernels")
    out = SuiteResult("kernels")
    k = kernels
    f = forms

    prob9 = k.RatioProblem(16, f.standard_constraints("spin9"))
    r9 = k.min_bochner_ratio(prob9)
    cross = abs(r9.eigen_ratio - r9.closed_ratio)
    out.add("kernels.ratio-spin9", abs(r9.ratio - 8.0 / 7.0) + cross, TOL_MODEL,
            f"minimal ratio 8/7, routes agree to {cross:.2e}")

    canon = k.canonical_minimizer(r9.minimizer, prob9)
    want = np.diag([-7.0] + [1.0] * 7 + [0.0] * 8)
    out.add("kernels.spin9-minimizer", float(np.abs(canon - want).max()), TOL_MODEL,
            "diag(-7 mu, mu I7, 0_8) up to scale")

    res = 0.0
    for n in (2, 4):
        rk = k.min_bochner_ratio(k.RatioProblem(2 * n, f.standard_constraints("kahler", n)))
        res = max(res, abs(rk.ratio - 2.0))
        deg = k.kato_transform(rk.ratio)
        if not deg.degenerate:
            res = max(res, 1.0)
    out.add("kernels.ratio-kahler", res, TOL_MODEL, "ratio 2, transform degenerate")

    res = 0.0
    for n in (1, 2):
        rq = k.min_bochner_ratio(k.RatioProblem(4 * n, f.standard_constraints("quaternionic", n)))
        res = max(res, abs(rq.ratio - 4.0 / 3.0), abs(rq.drift - 24.0))
    out.add("kernels.ratio-quaternionic", res, TOL_MODEL)

    sample = k.sharpness_sample(prob9, r9, rng, samples=cfg.trials)
    attained = abs(prob9.objective(r9.minimizer) - r9.ratio)
    out.add("kernels.sharpness", float(sample["violations"]) + min(attained, 1.0), TOL_MODEL,
            f"{sample['samples']} feasible samples, none below 8/7; minimizer attains")

    extra = list(f.standard_constraints("spin9").rows) + [(((1, 1), 1.0), ((9, 9), 1.0))]
    tightened, _ = k.rayleigh_ratio(k.RatioProblem(16, extra))
    mono = 0.0 if tightened >= r9.ratio - 1e-12 else 1.0
    out.add("kernels.constraint-monotonicity", mono, 0.5,
            f"extra constraint moves the ratio to {tightened:.6f}")

    kt = k.kato_transform(8.0 / 7.0)
    trans = max(abs(kt.exponent - 6.0 / 7.0), abs(kt.drift - 216.0 / 7.0))
    out.add("kernels.kato-transform", trans, TOL_IDENTITY, "exponent 6/7, drift 216/7")

    thr = max(abs(k.vanishing_threshold(1.0) + 242.0),
              abs(k.vanishing_threshold(1.0 / 7.0) + 8.0 / 7.0 * 121.0))
    out.add("kernels.vanishing-thresholds", thr, TOL_IDENTITY,
            "threshold -(1 + b) 121: -242 at b = 1, -968/7 at b = 1/7")
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
    """Run the named suites in ``SUITE_ORDER``, timing each one."""
    results: list[SuiteResult] = []
    timings: dict[str, float] = {}
    for name in SUITE_ORDER:
        if name in names:
            start = time.monotonic()
            results.append(SUITES[name](cfg))
            timings[name] = time.monotonic() - start
    return results, timings

"""Verification suites: every headline identity as a named check, recorded as its claim,
the value of each route and the evidence, from which ``SuiteResult.add`` computes the
residual against a pinned tolerance and ``CheckResult.note`` renders the note.

Each suite draws from its own ``octonion.Stream``, keyed by the master seed and the suite's
index in ``SUITE_ORDER``, so its draws do not depend on which suites run.  The CLI renders
the records into ``report.json``; byte-for-byte determinism of that file (timing aside) is
part of the contract, so no check may embed a wall time.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
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
PINCH = (-4.0, -1.0)  # the sectional curvatures, an interval claim


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run; each field but ``table`` is set by one flag.  How many radii
    the spectrum is solved at and how many directions the pinch search tries are part of the
    checks, not settings: ``geodesy.RADII`` and ``curvature.PINCH_STARTS``.

    ``trials`` is the master sampling budget; suites derive their own
    counts from it (octonion pairs = trials, random planes = trials / 10
    but at least 5,440, sparse forms = trials / 100 but at least 1); the
    forms suite draws nothing.  The octonion pairs and the random planes
    are drawn a block of rows at a time, so no array of theirs grows with
    ``trials``.  Every value is checked here, before any suite runs, and
    the multiplication table file is read here, once, into ``table``, which
    every suite that builds the model reads.
    ``out`` None means no report file for ``verify`` and the current
    directory for ``report``; otherwise ``out``, or the nearest of its
    ancestors that exists, must be a directory.
    """

    seed: int = 0
    trials: int = 100000
    out: str | None = None
    table_path: str | None = None
    table: octonion.MultiplicationTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.out is not None:
            # out itself, or the nearest ancestor that exists, must be a directory
            nearest = os.path.abspath(self.out)
            while not os.path.exists(nearest):
                nearest = os.path.dirname(nearest)
            if not os.path.isdir(nearest):
                raise ValueError(f"out {self.out!r}: {nearest!r} exists and is not a directory")
        table = (octonion.MultiplicationTable.load(self.table_path)
                 if self.table_path else octonion.DEFAULT_TABLE)
        object.__setattr__(self, "table", table)

    def suite_rng(self, name: str) -> octonion.Stream:
        """The stream keyed by (seed, the suite's index in ``SUITE_ORDER``)."""
        return octonion.Stream(self.seed, SUITE_ORDER.index(name))


def _score(value, claim, relative: bool):
    """One route's gap to its claim, with the route and claim entries it was read at: 0 or 1 for a
    bool or other non-number, equal or not; |value - claim| for a number, over |claim| if
    ``relative``, or its distance outside an interval claim (low, high); for an array, its worst
    entry (where all agree, that of the largest claim), kept with the claim there.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (numbers.Number, np.ndarray)):
        return (0.0 if value == claim else 1.0), value, claim
    if isinstance(claim, tuple):
        gap = max(0.0, claim[0] - value, value - claim[1])
        return (math.nan if math.isnan(value) else gap), value, claim
    gaps = np.asarray(np.abs(np.subtract(value, claim)) / (np.abs(claim) if relative else 1))
    value, claim = np.broadcast_to(value, gaps.shape), np.broadcast_to(claim, gaps.shape)
    worst = np.unravel_index(np.argmax(gaps if gaps.any() else np.abs(claim)), gaps.shape)
    return float(gaps[worst]), value[worst], claim[worst]


def _text(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key}: {_text(v)}" for key, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _plain(value):
    """``value`` as JSON; a Fraction, like any other non-number, as its text, such as "8/7"."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, dict):
        return {str(key): _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    return value if value is None or isinstance(value, (bool, int, float)) else str(value)


@dataclass
class CheckResult:
    """One check as a record: its claim (one for every route, or a mapping route -> claim), the
    value each route computed, and the evidence: sample and node counts, N/2N gaps, witnesses,
    a certificate's or a crash's text."""

    check: str
    residual: float
    tolerance: float
    passed: bool
    claim: object = None
    routes: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)
    relative: bool = False

    @property
    def note(self) -> str:
        """Claim, routes, evidence; a text stands alone, so a crashed check's note is its error."""
        parts = ({"claim": self.claim} if self.routes else {}, self.routes, self.evidence)
        return "; ".join(filter(None, (", ".join(v if isinstance(v, str) else f"{k} {_text(v)}"
                                                 for k, v in part.items() if v is not None)
                                       for part in parts)))

    def as_dict(self) -> dict:
        return {"check": self.check, "residual": self.residual, "tolerance": self.tolerance,
                "passed": bool(self.passed), "claim": _plain(self.claim), "routes": _plain(self.routes),
                "relative": self.relative, "evidence": _plain(self.evidence), "note": self.note}


@dataclass
class SuiteResult:
    """The checks of one suite; ``artifacts``, not part of the report, holds what the CLI
    writes or reuses (curvature: ``operator`` and ``pinch``; geodesy: ``spectrum``, the
    (route C, route J) pair at each of ``geodesy.RADII``)."""

    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, check: str, tolerance: float, routes: dict, *, claim, relative: bool = False,
            evidence: dict | None = None) -> CheckResult:
        """Record a check whose residual is the worst ``_score`` of its routes against ``claim``:
        one claim for every route, a mapping route -> claim, or an array read entry by entry,
        which the record keeps as a mapping.  A NaN score fails; no routes (a crash) or a false
        ``evidence["converged"]`` scores 1.0."""
        claims = claim if isinstance(claim, dict) else dict.fromkeys(routes, claim)
        scored = {name: _score(value, claims[name], relative) for name, value in routes.items()}
        evidence = evidence or {}
        gaps = [gap for gap, _, _ in scored.values()] if evidence.get("converged", True) else []
        residual = float(np.max(gaps)) if gaps else 1.0
        if isinstance(claim, (dict, np.ndarray)):
            claim = {name: kept for name, (_, _, kept) in scored.items()}
        res = CheckResult(check, residual, float(tolerance), residual <= tolerance, claim,
                          {name: value for name, (_, value, _) in scored.items()}, evidence, relative)
        self.checks.append(res)
        return res

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def as_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed, "max_residual": self.max_residual,
                "checks": [c.as_dict() for c in self.checks]}


def _relative(delta, scale) -> float:
    return float(np.max(np.abs(delta) / np.maximum(scale, 1e-30)))


def _octonion_residuals(a, b, table, work) -> dict[str, float]:
    """Worst relative residual of each sampled octonion identity on one block of rows.

    The suite reuses ``work``, an (11, rows, 8) array, from block to block.  Its slots are
    b, a, bb, ab, aa, a(bb), a(ab), (ab)b, (aa)b, b* a*, a a*, so each stack of operands that
    shares one factor is a slice, and the nine products take four ``mul_arrays`` passes, each
    building one set of matrices: R(b) on [b, a], L(a) on [a, bb, ab], R(b) again on [ab, aa],
    and R(a*) on [b*, a].  b* and a* overwrite b and bb, which are read no more, and the three
    product differences land in slots 7 to 9.
    """
    mul, conj = partial(octonion.mul_arrays, table=table), octonion.conj_arrays
    work[0], work[1] = b, a
    b, a, bb, ab, aa, a_bb, a_ab, ab_b, aa_b, conj_b_conj_a, a_conj_a = work
    mul(work[0:2], b, out=work[2:4])
    mul(a, work[1:4], out=work[4:7])
    mul(work[3:5], b, out=work[7:9])
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    conj(b, out=b)
    mul(work[0:2], conj(a, out=bb), out=work[9:11])
    norm_gap = np.linalg.norm(ab, axis=-1) - na * nb
    # row maxima as elementwise maxima of the columns: max(axis=-1) over rows of eight is slower
    square_gap = (reduce(np.maximum, np.abs(a_conj_a[:, 1:], out=a_conj_a[:, 1:]).T)
                  + np.abs(a_conj_a[:, 0] - na**2))
    np.subtract(ab_b, a_bb, out=ab_b)
    np.subtract(aa_b, a_ab, out=aa_b)
    np.subtract(conj(ab, out=aa), conj_b_conj_a, out=conj_b_conj_a)  # aa is read no more
    scale = reduce(np.maximum, np.abs(ab, out=ab).T)[:, None] + 1.0
    deviations = np.divide(np.abs(work[7:10], out=work[7:10]), scale, out=work[7:10])
    return {
        "alternative-laws": float(deviations[:2].max()),
        "conjugation-reversal": float(deviations[2].max()),
        "norm-multiplicativity": _relative(norm_gap, na * nb),
        "conjugate-square-norm": _relative(square_gap, na**2),
    }


OCTONION_CHUNK_BLOCKS = 16  # row blocks per octonion chunk, the unit of work any worker claims


def _octonion_chunks(trials: int) -> list[range]:
    """The first rows of the octonion suite's row blocks, in chunks of consecutive blocks.  A very
    large ``trials`` widens the chunks, so there are at most 255 and ``run_suites`` can write a
    one-byte index for each to one pipe before it forks."""
    starts = range(0, trials, octonion.MUL_BLOCK_ROWS)
    width = max(OCTONION_CHUNK_BLOCKS, -(-len(starts) // 255))
    return [starts[first:first + width] for first in range(0, len(starts), width)]


def _octonion_blocks(cfg: RunConfig, starts: range) -> list[dict]:
    """The residuals of the row blocks that begin at ``starts``, drawn by
    ``octonion.uniform_blocks``, so no residual depends on the block or chunk size.  Every
    block reuses the work arrays of the first, the largest."""
    blocks, work = [], None
    for a, b in octonion.uniform_blocks(cfg.suite_rng("octonion"), starts, cfg.trials, 8):
        work = np.empty((11, *a.shape)) if work is None else work
        blocks.append(_octonion_residuals(a, b, cfg.table, work[:, :len(a)]))
    return blocks


def suite_octonion(cfg: RunConfig, blocks: list[dict] | None = None) -> SuiteResult:
    """The table's structure, the sampled identities and an association witness.  ``blocks``
    holds the residuals of every row block, in order, as ``run_suites`` gathers them from the
    chunks its workers ran; None runs every block here, as one chunk."""
    if blocks is None:
        blocks = _octonion_blocks(cfg, range(0, cfg.trials, octonion.MUL_BLOCK_ROWS))
    out = SuiteResult("octonion")
    table = cfg.table

    # the table is exact: it is the one closed from the seven triples, or the evidence names
    # the first entry (i, j), in row-major order, where the two differ, with both products
    builtin = octonion.DEFAULT_TABLE
    differ = np.argwhere(table.structure_tensor() != builtin.structure_tensor())
    first = None
    if len(differ):
        i, j = differ[0, :2].tolist()
        here, there = (("-" if s < 0 else "+") + ("1" if k == 0 else f"e{k - 1}")
                       for s, k in (table.product(i, j), builtin.product(i, j)))
        first = f"at ({i}, {j}): {here} against {there} from the seven triples"
    out.add("octonion.table-closure", 0.5, {"no breakage": first is None}, claim=True,
            evidence={"first break": first})

    for name in blocks[0]:
        out.add(f"octonion.{name}", TOL_IDENTITY,
                {"relative deviation": np.array([block[name] for block in blocks])}, claim=0.0,
                evidence={"pairs": cfg.trials})

    e = np.eye(8)[1:]  # imaginary units e_0 .. e_6
    out.add("octonion.association-witness", TOL_IDENTITY,
            {"(e0 e1) e2": octonion.mul_arrays(octonion.mul_arrays(e[0], e[1], table), e[2], table),
             "e0 (e1 e2)": octonion.mul_arrays(e[0], octonion.mul_arrays(e[1], e[2], table), table)},
            claim={"(e0 e1) e2": -e[5], "e0 (e1 e2)": e[5]})
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
        "star-involution": ex.residual(ex.hodge(n, *star), _minus(p * (n - p), eta)),
        "star-after-epsilon": ex.residual(ex.hodge(n, *ex.epsilon(k, *eta)),
                                          _minus(p, ex.interior(k, *star))),
        "epsilon-after-star": ex.residual(ex.epsilon(k, *star), _minus(p - 1, ex.hodge(n, *contracted))),
        "star-epsilon-star": ex.residual(ex.hodge(n, *ex.epsilon(k, *star)),
                                         _minus((p - 1) * (n - p), contracted)),
        "contraction-anticommutator": ex.residual(ex.interior(k, *ex.epsilon(m, *eta)),
                                                  ex.epsilon(m, *contracted),
                                                  (eta[0], np.where(k == m, -eta[1], 0.0))),
    }


def suite_exterior(cfg: RunConfig) -> SuiteResult:
    """Hodge and contraction identities on every monomial of every n <= 6 against every index
    pair (k, m) and on ``trials / 100`` random sparse forms of mixed grades at n = 16; the
    duality chain at grades (4, 2), (8, 4), (16, 8); serialization, one form at a time."""
    rng = cfg.suite_rng("exterior")
    out = SuiteResult("exterior")
    ex = exterior

    cases = np.array([(n, mask, k, m) for n in range(1, 7) for mask in range(1 << n)
                      for k in range(n) for m in range(n)])
    n, mask, k, m = cases.T[:, :, None]
    p = np.bitwise_count(mask).astype(np.int64)
    monomials = _identity_residuals(n, p, k, m, (mask, np.ones(mask.shape)))

    rows = max(1, cfg.trials // 100)
    p = rng.integers(1, 16, rows)
    k, m = rng.integers(0, 16, (2, rows, 1))
    eta = ex.random_forms(16, p, rng)
    xi = ex.random_forms(16, p - 1, rng)
    sampled = _identity_residuals(16, p[:, None], k, m, eta)
    for name, value in monomials.items():
        out.add(f"exterior.{name}", TOL_IDENTITY, {"monomials": value, "random forms": sampled[name]},
                claim=0.0, evidence={"monomial cases": len(cases), "random forms": rows})

    # <eps_j xi, eta> is 0 unless a term of xi plus bit j is a term of eta, so every row makes
    # one: j is a random bit of eta's first term, and xi's first term is that term without bit
    # j; a term of xi that already was trades places with xi's first term
    first = eta[0][:, :1]
    bits = np.argsort(first >> np.arange(16) & 1 == 0, axis=-1, kind="stable")  # its bits first
    j = np.take_along_axis(bits, rng.integers(0, p[:, None], (rows, 1)), axis=-1)
    target, masks = first ^ 1 << j, xi[0]
    np.put_along_axis(masks, np.argmax(masks == target, axis=-1)[:, None], masks[:, :1], axis=-1)
    masks[:, :1] = target
    adjoint = ex.inner(*ex.epsilon(j, *xi), *eta)
    out.add("exterior.epsilon-interior-adjoint", TOL_IDENTITY, {"<eps_j xi, eta>": adjoint},
            claim=ex.inner(*xi, *ex.interior(j, *eta)),
            evidence={"random forms": rows, "nonzero rows": int(np.count_nonzero(adjoint))})

    out.add("exterior.duality-chain", TOL_IDENTITY,
            {f"grades {grades}": ex.duality_report(*grades, 100, rng)["max"]
             for grades in ((4, 2), (8, 4), (16, 8))}, claim=0.0, evidence={"forms per grade": 100})

    grades = rng.integers(0, 17, 50)
    read_back = []
    for p, masks, coeffs in zip(grades.tolist(), *ex.random_forms(16, grades, rng)):
        masks_back, coeffs_back = ex.from_text(ex.to_text(masks, coeffs), 16, p)
        read_back.append(ex.residual((masks[None], coeffs[None]), (masks_back, -coeffs_back)))
    out.add("exterior.serialization-roundtrip", 0.0, {"read back off written": np.array(read_back)},
            claim=0.0, evidence={"forms": grades.size})
    return out


def suite_curvature(cfg: RunConfig) -> SuiteResult:
    rng = cfg.suite_rng("curvature")
    out = SuiteResult("curvature")
    formula = curvature.SectionalCurvature(table=cfg.table)

    # adapted planes: same-slot pairs sit at -4, opposite-slot pairs at -1
    a, c = rng.standard_normal((2, 200, 8))
    x, zero = np.concatenate([a, np.zeros_like(a)], axis=1), np.zeros_like(c)
    out.add("curvature.adapted-sectional", TOL_MODEL,
            {"same slot": formula.plane_value(x, np.concatenate([c, zero], axis=1)),
             "opposite slots": formula.plane_value(x, np.concatenate([zero, c], axis=1))},
            claim={"same slot": PINCH[0], "opposite slots": PINCH[1]}, evidence={"planes": len(a)})

    # one pass over at least the 5,440 planes the operator roundtrip needs, so a small --trials
    # still tests; the pinch range, the mirrored reading <ba,dc> and the roundtrip share it
    op = curvature.assemble_operator(cfg.table)
    sweep = curvature.sweep_planes(op, rng, max(curvature.CURVATURE_TENSOR_DIM, cfg.trials // 10),
                                   cfg.table)
    planes = {"planes": sweep.planes}
    for name, (low, high) in (("pinch-range", sweep.formula_range),
                              ("product-order-reading", sweep.mirrored_range)):
        out.add(f"curvature.{name}", TOL_MODEL, {"lowest": low, "highest": high}, claim=PINCH,
                evidence=planes)

    # the spin(9) closed form; with first-bianchi, the roundtrip identifies it with the formula
    out.add("curvature.operator-pair-symmetry", TOL_ALGEBRA, {"M": op.matrix}, claim=op.matrix.T)
    bianchi = curvature.bianchi_residual(op, rng, trials=200)
    out.add("curvature.first-bianchi", TOL_ALGEBRA, {"cyclic sum": bianchi}, claim=0.0,
            evidence={"triples": 200})
    out.add("curvature.operator-roundtrip", TOL_MODEL, {"off the formula": sweep.roundtrip}, claim=0.0,
            evidence=planes)
    out.add("curvature.einstein-constant", TOL_MODEL, {"Ric": op.ricci()},
            claim=-36.0 * np.eye(curvature.N))

    u = rng.standard_normal((100, curvature.N))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    out.add("curvature.radial-spectrum", TOL_NUMERIC, {"Jacobi eigenvalues": op.jacobi_spectrum(u)},
            claim=np.array([-4.0] * 7 + [-1.0] * 8 + [0.0]),  # ascending, as eigvalsh returns them
            evidence={"directions": len(u)})

    # the last draws of the suite, so the other records do not move with PINCH_STARTS; report's
    # pinch.csv is this very search, and the formula at the witness planes is the second route
    # to the eigenvalues
    pinch = curvature.pinch_extremes(op, rng)
    out.add("curvature.pinch-search", TOL_MODEL,
            {"minimum": pinch.minimum, "maximum": pinch.maximum,
             "formula at the witness planes": formula.plane_value(*pinch.witnesses)},
            claim={"minimum": PINCH[0], "maximum": PINCH[1],
                   "formula at the witness planes": pinch.final_values},
            evidence={"starts": curvature.PINCH_STARTS})
    out.artifacts = {"operator": op, "pinch": pinch}
    return out


def suite_geodesy(cfg: RunConfig) -> SuiteResult:
    """Radial comparison, the spectrum bottom by two routes and the warped metric."""
    out = SuiteResult("geodesy")
    g = geodesy

    out.add("geodesy.distance-laplacian-value", TOL_MODEL, {"at r = 1": g.distance_laplacian(1.0)},
            claim=25.026688374180324)  # 14 coth 2 + 8 coth 1
    out.add("geodesy.distance-laplacian-limits", 1e-6,  # 22 at infinity, (n - 1)/r near zero
            {"at 20": g.distance_laplacian(20.0), "times r at 1e-4": 1e-4 * g.distance_laplacian(1e-4)},
            claim={"at 20": 22.0, "times r at 1e-4": 15.0})

    # the closed form against the index-form sum and the area derivative
    radii, h = (0.5, 1.0, 2.0, 5.0), 1e-6
    out.add("geodesy.consistency-triangle", TOL_NUMERIC,
            {"index-form sum": np.array([sum(m * g.index_form(c, r, 2 * g.QUAD_NODES)
                                             for c, m in g.CLASSES) for r in radii]),
             "area derivative": np.array([(g.log_area(r + h) - g.log_area(r - h)) / (2.0 * h)
                                          for r in radii])},
            claim=np.array([g.distance_laplacian(r) for r in radii]), evidence={"radii": list(radii)})

    cases = [(c, L) for c, _ in g.CLASSES for L in (1.0, 2.0)]
    quad = np.array([g.index_form(c, L, g.QUAD_NODES) for c, L in cases])
    gap = float(np.abs(np.array([g.index_form(c, L, 2 * g.QUAD_NODES) for c, L in cases]) - quad).max())
    out.add("geodesy.jacobi-index-form", TOL_NUMERIC, {"Gauss-Legendre": quad},
            claim=np.array([g.hessian_eigenvalue(c, L) for c, L in cases]),
            evidence={"nodes": g.QUAD_NODES, "N/2N gap": gap, "converged": gap <= TOL_NUMERIC})

    out.add("geodesy.area-volume", 1e-3,
            {"A / 128 r^15 at r = 1e-3": g.area(1e-3) / (2.0**7 * (1e-3) ** 15)}, claim=1.0)
    out.add("geodesy.volume-growth-rate", 0.01, {"log A(50) / 50": g.log_area(50.0) / 50.0},
            claim=22.0, relative=True)

    # both routes once at each of RADII, which report writes to spectrum.csv
    pairs = [(g.dirichlet_value(r), g.jacobi_dirichlet(r)) for r in g.RADII]
    out.artifacts = {"spectrum": pairs}

    # the paper's bottom 121 against rho^2, and collocation against the Jacobi closed form at
    # the largest radius; both routes read CLASSES, so only the claim sees a class fault
    rho2 = g.spectrum_bottom()
    far, exact_far = pairs[-1]
    out.add("geodesy.spectrum-bottom", g.TOL_DIRICHLET, {"collocation": far.value, "rho^2": rho2},
            claim={"collocation": exact_far, "rho^2": 121.0}, relative=True,
            evidence={"R": far.radius, "nodes": far.nodes, "N/2N gap": far.error_estimate,
                      "converged": far.converged})

    solved = {"nodes": [v.nodes for v, _ in pairs], "N/2N gaps": [v.error_estimate for v, _ in pairs],
              "converged": all(v.converged for v, _ in pairs)}
    lams = [v.value for v, _ in pairs]
    # McKean: q >= rho^2 gives lambda(R) > rho^2 at every R; far out q rounds to rho^2 within ulps
    bound = min(0.0, float((g.liouville_potential(np.linspace(1e-3, 60.0, 6000)) - rho2).min()))
    out.add("geodesy.spectrum-domain-monotone", 0.5,
            {"decreases with R": all(a >= b * (1.0 - g.TOL_DIRICHLET) for a, b in zip(lams, lams[1:])),
             "above rho^2": min(lams) > rho2, "McKean": bound >= -4.0 * np.spacing(rho2)},
            claim=True, evidence={"lowest": min(lams), "rho^2": rho2, "inf q - rho^2": bound, **solved})
    out.add("geodesy.sturm-crosscheck", g.TOL_DIRICHLET,
            {f"collocation, R = {v.radius:g}": v.value for v, _ in pairs},
            claim={f"collocation, R = {v.radius:g}": exact for v, exact in pairs}, relative=True,
            evidence=solved)

    # the warped metric's mean curvature and Hessian are sums over CLASSES, per class
    blocks = [-c * m for c, m in g.CLASSES]
    out.add("geodesy.warped-constants", TOL_IDENTITY,
            {"mean curvature": sum(blocks), "Hessian norm": g.ricci_norm(),
             "per class": np.array(blocks)},
            claim={"mean curvature": -22.0, "Hessian norm": 36.0, "per class": np.array([-14.0, -8.0])})
    out.add("geodesy.warped-curvature-fd", TOL_SEARCH, {"-f''/f off c^2": g.warped_curvature_residual()},
            claim=0.0, evidence={"h": g.WARP_STEP})
    return out


def suite_forms(cfg: RunConfig) -> SuiteResult:
    out = SuiteResult("forms")
    f = forms

    out.add("forms.kahler-constraints", 0.5,
            {"n = 2": f.standard_constraints("kahler", 2), "n = 4": f.standard_constraints("kahler", 4)},
            claim={"n = 2": f.ConstraintSet(4, f.diagonal_rows(4, [(0, 2), (1, 3)])),
                   "n = 4": f.ConstraintSet(8, f.diagonal_rows(8, [(i, i + 4) for i in range(4)]))})
    minus_6_vol = (np.array([[0b1111]]), np.array([[-6.0]]))
    out.add("forms.quaternionic-volume", TOL_IDENTITY,
            {"n = 1 off 6 vol": exterior.residual(f.quaternionic_form(1), minus_6_vol)}, claim=0.0)
    out.add("forms.quaternionic-constraints", 0.5,
            {"n = 1": f.standard_constraints("quaternionic", 1),
             "n = 2": f.standard_constraints("quaternionic", 2)},
            claim={"n = 1": f.ConstraintSet(4, f.diagonal_rows(4, [range(4)])),
                   "n = 2": f.ConstraintSet(8, f.diagonal_rows(8, [range(i, 8, 2) for i in range(2)]))})

    phi = f.spin9_form(cfg.table)
    (masks,), (coeffs,) = phi
    gram, annihilated = f.action_gram(*f.so_action(f.SPIN9_DIM, *phi), octonion.spin9_generators(cfg.table))
    out.add("forms.spin9-base-form", 0.5,
            {"tops": coeffs[np.isin(masks, f.spin9_targets())].tolist(),
             "terms by size": Counter(np.rint(np.abs(coeffs) * -f.CAYLEY_SCALE).astype(int).tolist()),
             "terms by type": Counter(zip(np.bitwise_count(masks & f.V_TOP).tolist(),
                                          np.bitwise_count(masks & f.W_TOP).tolist())),
             "stabilizer in so(16)": len(gram) - int(np.linalg.matrix_rank(gram)),
             "every I_i I_j annihilates": annihilated <= TOL_ALGEBRA},
            claim={"tops": [-1.0, 1.0], "terms by size": {360: 448, 720: 252, 5040: 2},
                   "terms by type": {(8, 0): 1, (6, 2): 112, (4, 4): 476, (2, 6): 112, (0, 8): 1},
                   "stabilizer in so(16)": 36, "every I_i I_j annihilates": True},
            evidence={"terms": masks.size, "annihilation": annihilated})

    out.add("forms.spin9-top-functional", TOL_IDENTITY,
            {"v-top functional": f.monomial_functionals(f.SPIN9_DIM, *phi, [f.V_TOP])},
            claim=-f.diagonal_rows(f.SPIN9_DIM, [range(8)]))  # -sum of the first eight diagonal entries
    out.add("forms.spin9-no-leak", 0.0, {"largest leak into a top": f.no_leak_report(*phi)}, claim=0.0,
            evidence={"non-top terms": masks.size - 2, "index pairs": f.SPIN9_DIM ** 2})
    out.add("forms.extraction-invariance", 0.5,
            {"3.7 Phi": f.extract_constraints(f.SPIN9_DIM, masks, 3.7 * coeffs, f.spin9_targets())},
            claim=f.extract_constraints(f.SPIN9_DIM, *phi, f.spin9_targets()))
    return out


def suite_kernels(cfg: RunConfig) -> SuiteResult:
    out = SuiteResult("kernels")
    k = kernels
    f = forms

    sharp = Fraction(8, 7)
    cs9 = f.standard_constraints("spin9", table=cfg.table)
    r9 = k.min_bochner_ratio(cs9)
    out.add("kernels.ratio-spin9", TOL_MODEL, {"certified": r9.rational, "eigen": r9.eigen_ratio},
            claim=sharp)

    # the minimizing eigenspace is one-dimensional, so a_11 = -7 fixes scale and sign
    a = r9.minimizer
    out.add("kernels.spin9-minimizer", TOL_MODEL,
            {"minimizer at a_11 = -7": a * (-7.0 / a[0, 0]) if a[0, 0] else a,
             "its ratio": k.objective(a)},
            claim={"minimizer at a_11 = -7": np.diag([-7.0] + [1.0] * 7 + [0.0] * 8),
                   "its ratio": r9.rational})

    # each sharp ratio, certified and by eigenvalue, and its transform: Kahler's is degenerate
    ricci = geodesy.ricci_norm()
    for kind, ns, claim in (("kahler", (2, 4), [2, 0, 0]),
                            ("quaternionic", (1, 2), [Fraction(4, 3), Fraction(2, 3), 24])):
        routes = {}
        for n in ns:
            r = k.min_bochner_ratio(f.standard_constraints(kind, n))
            routes[f"n = {n}"] = [r.rational, *k.kato_transform(r.rational, ricci)]
            routes[f"eigen at n = {n}"] = r.eigen_ratio
        out.add(f"kernels.ratio-{kind}", TOL_MODEL, routes,
                claim={name: claim[0] if name.startswith("eigen") else claim for name in routes})

    # the claim itself, not the eigen route's candidate, which min_bochner_ratio certified
    reason = None if r9.rational == sharp else k.certify_ratio(cs9, sharp)
    out.add("kernels.sharpness", 0.0, {"P - 8/7 Q semidefinite and singular": reason is None},
            claim=True, evidence={"refused": reason})

    # nested feasible sets, nested ratios: the trace alone (1 + 1/15 in closed form), then
    # Spin(9)'s rows, then one more row
    alone = k.min_bochner_ratio(f.ConstraintSet(16, np.zeros((0, cs9.rows.shape[1])))).rational
    extra = f.ConstraintSet(16, np.vstack([cs9.rows, f.diagonal_rows(16, [(1, 9)])]))
    tightened, _ = k.rayleigh_ratio(extra)
    out.add("kernels.constraint-monotonicity", 0.5,
            {"trace alone 16/15": alone == Fraction(16, 15), "alone <= Spin(9)": alone <= r9.rational,
             "one more row >= Spin(9)": tightened >= float(r9.rational) - 1e-12},
            claim=True, evidence={"trace alone": alone, "one more row": tightened})

    exponent, drift = k.kato_transform(r9.rational, ricci)
    out.add("kernels.kato-transform", TOL_IDENTITY, {"exponent": exponent, "drift": drift},
            claim={"exponent": Fraction(6, 7), "drift": Fraction(216, 7)})

    lam1 = geodesy.spectrum_bottom()
    out.add("kernels.vanishing-thresholds", TOL_IDENTITY,
            {"b = 1": k.vanishing_threshold(1.0, lam1),
             "b = 1/7": k.vanishing_threshold(1.0 / 7.0, lam1)},
            claim={"b = 1": -242, "b = 1/7": Fraction(-968, 7)}, evidence={"rho^2": lam1})
    return out


SUITES = {"octonion": suite_octonion, "exterior": suite_exterior, "curvature": suite_curvature,
          "geodesy": suite_geodesy, "forms": suite_forms, "kernels": suite_kernels}


def _crashed(name: str, error: str) -> SuiteResult:
    result = SuiteResult(name)
    result.add(f"{name}.crashed", 0.5, {}, claim=None, evidence={"error": error})
    return result


def _timed(name: str, run, *args) -> tuple:
    """``run(*args)``, or the failed check ``<name>.crashed`` if it raises, and its wall time."""
    start = time.monotonic()
    try:
        value = run(*args)
    except Exception as exc:
        value = _crashed(name, f"{type(exc).__name__}: {exc}")
    return value, time.monotonic() - start


def _work(chosen: list[str], cfg: RunConfig, share, queue: int, chunks: list[range]) -> list[tuple]:
    """One worker's part as (key, result, seconds): the suites at ``share`` into ``chosen`` in turn,
    keyed by name, then the octonion chunk of each index it reads from ``queue``, one byte at a
    time until the queue is empty, keyed by that index."""
    done = [(chosen[i], *_timed(chosen[i], SUITES[chosen[i]], cfg)) for i in share]
    while index := os.read(queue, 1):
        done.append((index[0], *_timed("octonion", _octonion_blocks, cfg, chunks[index[0]])))
    return done


def _worker_of(index: int, workers: int) -> int:
    """The worker that runs suite ``index``, dealt out 0, 1, ..., w - 1, w - 1, ..., 0, 0, 1, ...;
    dealing back and forth evens the shares more than round robin when an early suite is
    the largest."""
    turn = index % (2 * workers)
    return min(turn, 2 * workers - 1 - turn)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def run_suites(names, cfg: RunConfig) -> tuple[list[SuiteResult], dict[str, float]]:
    """Run the named suites, timing each one, and return them in ``SUITE_ORDER``.

    The suites share no state, so they run on one worker per usable CPU, at most one per unit of
    work.  The units are the whole suites and the octonion suite's chunks of row blocks
    (``_octonion_chunks``).  With two or more workers every worker is a forked child, and this
    process only deals, gathers and reaps: a fresh child does not hold the file pages this
    process touched while importing, so the children peak lower.  Each worker first runs a fixed
    share of the suites (``_worker_of``), so the same suites share a process and each process's
    memory is the same on every run; octonion's slot in that deal runs no suite, as this process
    builds octonion's record last from the chunks' blocks.  Then every worker claims octonion chunks, one index
    byte at a time from one pipe, until the pipe is empty, so one sampled suite keeps every
    worker busy.  A child sends its results back in one pickle and exits, and is reaped before
    this returns.  This process runs a share, and claims chunks, only for a worker it could not
    fork, and with one worker it runs everything.  A suite or a chunk that raises fails its check
    ``<suite>.crashed``, and so does every suite of a dead worker, octonion too if it held any
    chunk.  The one-thread BLAS policy (see ``__init__``) leaves no thread to fork past.
    """
    chosen = [name for name in SUITE_ORDER if name in names]
    whole = [index for index, name in enumerate(chosen) if name != "octonion"]
    chunks = _octonion_chunks(cfg.trials) if "octonion" in chosen else []
    workers = min(len(whole) + len(chunks), _usable_cpus()) if hasattr(os, "fork") else 1
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(chunks))))  # at most 255 bytes, which any pipe holds
    os.close(fill)
    children, pipes = [], []
    try:
        for worker in range(workers if workers > 1 else 0):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one runs the shares not forked
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as out:
                        share = [i for i in whole if _worker_of(i, workers) == worker]
                        pickle.dump(_work(chosen, cfg, share, queue, chunks), out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append(pid)
            pipes.append(open(read_end, "rb"))
        done = []
        if len(children) < workers:  # the workers from len(children) on were not forked
            share = [i for i in whole if _worker_of(i, workers) >= len(children)]
            done = _work(chosen, cfg, share, queue, chunks)
        outputs = [pipe.read() for pipe in pipes]
    finally:
        os.close(queue)
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    lost = [str(status) for status in statuses if status != 0]
    for status, output in zip(statuses, outputs):
        if status == 0:
            done += pickle.loads(output)
    held = {key: (result, seconds) for key, result, seconds in done}
    if chunks and all(i in held for i in range(len(chunks))):  # else octonion is lost with a worker
        parts = [held.pop(i) for i in range(len(chunks))]
        crashed = [blocks for blocks, _ in parts if isinstance(blocks, SuiteResult)]
        result, own = (crashed[0], 0.0) if crashed else _timed(
            "octonion", SUITES["octonion"], cfg, [block for blocks, _ in parts for block in blocks])
        held["octonion"] = result, own + sum(chunk_seconds for _, chunk_seconds in parts)
    results: list[SuiteResult] = []
    timings: dict[str, float] = {}
    for name in chosen:
        if name in held:
            result, timings[name] = held[name]
        else:
            result = _crashed(name, f"worker exited with status {', '.join(lost)}")
        results.append(result)
    return results, timings

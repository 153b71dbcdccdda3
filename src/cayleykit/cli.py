"""Command line front end.

Subcommands
    verify    run verification suites, print one line per check
    report    every suite, plus report.json and the artifacts in one output directory

Exit status: 0 all checks passed, 1 at least one check failed (a suite
that raises fails its ``<suite>.crashed`` check), 2 usage error (bad
flags, unknown suite, unreadable table file).

Reports are deterministic for a fixed seed: rerunning with the same
flags reproduces ``report.json`` byte for byte except for the isolated
``timing`` entry.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

# suites, the largest module, before numpy (which curvature and geodesy import): compiled from
# source (no bytecode cache), its parse frees memory that numpy's import then reuses; compiled
# after numpy, it left about 1 MiB of the heap unused at every command's peak
from . import suites  # isort: skip

from . import __version__, curvature, geodesy


# flag -> (RunConfig field, parser, help)
_OPTIONS = {
    "seed": ("seed", int, "master RNG seed (default 0)"),
    "trials": ("trials", int, "sampling budget (default 100000)"),
    "out": ("out", str, "output directory for artifacts"),
    "mul_table": ("table_path", str, "CSV multiplication table to verify instead of the builtin"),
}


def build_config(args: argparse.Namespace) -> suites.RunConfig:
    """The flags given over the defaults of ``RunConfig``."""
    return suites.RunConfig(**{field: getattr(args, flag) for flag, (field, _, _) in _OPTIONS.items()
                               if getattr(args, flag) is not None})


def config_echo(cfg: suites.RunConfig) -> dict:
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "table": cfg.table_path or "builtin",
    }


def build_report(results, cfg: suites.RunConfig, timings: dict) -> dict:
    failed = [c.check for r in results for c in r.checks if not c.passed]
    return {
        "schema": 4,
        "generator": {"package": "cayleykit", "version": __version__},
        "config": config_echo(cfg),
        "suites": [r.as_dict() for r in results],
        "summary": {
            "suites": len(results),
            "checks": sum(len(r.checks) for r in results),
            "failed": failed,
        },
        "passed": not failed,
        # the only nondeterministic entry; everything else is reproducible
        "timing": {
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_time_s": {k: round(v, 3) for k, v in timings.items()},
        },
    }


def print_results(results) -> None:
    for res in results:
        for c in res.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = f"{mark} {c.check:42s} residual {c.residual:.3e}  tol {c.tolerance:.0e}"
            if c.note:
                line += f"  ({c.note})"
            print(line)
    total = sum(len(r.checks) for r in results)
    bad = [c.check for r in results for c in r.checks if not c.passed]
    print(f"{total - len(bad)}/{total} checks passed" + (f"; failed: {', '.join(bad)}" if bad else ""))


def write_report(report: dict, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# artifacts


_PALETTE = ("#1f6fb2", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#34495e")


def svg_line_chart(path: Path, series, title: str, x_label: str, y_label: str,
                   hline: float) -> None:
    """Hand-rolled 800 x 600 line chart; ``series`` is (label, xs, ys) triples."""
    width, height = 800, 600
    left, right, top, bottom = 80, 24, 48, 56
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys] + [hline]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    pad = 0.06 * (y1 - y0) or 1.0
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return left + (x - x0) / (x1 - x0) * (width - left - right)

    def py(y):
        return height - bottom - (y - y0) / (y1 - y0) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="17">{title}</text>',
    ]
    axis = f'stroke="#333" stroke-width="1"'
    parts.append(f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
                 f'y2="{height - bottom}" {axis}/>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" {axis}/>')
    for i in range(6):
        xv = x0 + i * (x1 - x0) / 5
        yv = y0 + i * (y1 - y0) / 5
        parts.append(f'<line x1="{px(xv):.2f}" y1="{height - bottom}" x2="{px(xv):.2f}" '
                     f'y2="{height - bottom + 5}" {axis}/>')
        parts.append(f'<text x="{px(xv):.2f}" y="{height - bottom + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{xv:.4g}</text>')
        parts.append(f'<line x1="{left - 5}" y1="{py(yv):.2f}" x2="{left}" '
                     f'y2="{py(yv):.2f}" {axis}/>')
        parts.append(f'<text x="{left - 9}" y="{py(yv) + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{yv:.5g}</text>')
    parts.append(f'<text x="{(left + width - right) / 2:.0f}" y="{height - 14}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="14">{x_label}</text>')
    parts.append(f'<text x="22" y="{(top + height - bottom) / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14" '
                 f'transform="rotate(-90 22 {(top + height - bottom) / 2:.0f})">{y_label}</text>')
    parts.append(f'<line x1="{left}" y1="{py(hline):.2f}" x2="{width - right}" '
                 f'y2="{py(hline):.2f}" stroke="#888" stroke-width="1" '
                 f'stroke-dasharray="6 4"/>')
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - right - 8}" y="{top + 18 + 18 * k}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="13" fill="{color}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def write_spectrum_artifacts(out: Path, rows) -> None:
    """spectrum.csv and .svg from the (route C, route J) pair at each radius."""
    out.mkdir(parents=True, exist_ok=True)
    bottom = geodesy.spectrum_bottom()
    with open(out / "spectrum.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "nodes", "value", "coarse_value", "error_estimate", "jacobi",
                         "gap", "converged"])
        for v, exact in rows:
            writer.writerow([repr(v.radius), v.nodes, repr(v.value), repr(v.coarse_value),
                             repr(v.error_estimate), repr(exact), repr(v.value - bottom),
                             v.converged])
    rs_routes = [v.radius for v, _ in rows]
    svg_line_chart(out / "spectrum.svg",
                   [("collocation", rs_routes, [v.value for v, _ in rows]),
                    ("Jacobi closed form", rs_routes, [exact for _, exact in rows])],
                   "Bottom of the Dirichlet spectrum vs domain radius",
                   "radius R", "lowest eigenvalue", hline=bottom)


def write_pinch_artifacts(out: Path, result: curvature.PinchResult) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "pinch.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "direction", "sectional"])
        half = len(result.final_values) // 2
        for i, val in enumerate(result.final_values):
            writer.writerow([i % half, "min" if i < half else "max", repr(float(val))])


# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    for flag, (_, parse, help_text) in _OPTIONS.items():
        sub.add_argument("--" + flag.replace("_", "-"), dest=flag, type=parse, help=help_text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleykit",
        description="Numerical verification toolkit for rank-one octonionic geometry.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="run verification suites")
    verify.add_argument("suites", nargs="*", default=["all"],
                        metavar="suite", help="all or any of: %s" % ", ".join(suites.SUITE_ORDER))
    _add_common(verify)

    report = subs.add_parser("report", help="full verification with artifacts")
    report.add_argument("--export-operator", action="store_true",
                        help="also write the assembled 120 x 120 operator matrix")
    report.set_defaults(suites=["all"])
    _add_common(report)
    return parser


def run_command(args, cfg: suites.RunConfig) -> int:
    """Both commands: run the chosen suites, print one line per check and write report.json
    to ``out`` (``report``'s default is .); ``report`` then writes its artifacts beside it,
    from what the geodesy and curvature suites computed (a crashed suite holds nothing)."""
    unknown = set(args.suites) - {"all", *suites.SUITE_ORDER}
    if unknown:
        print(f"error: unknown suite: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    names = [n for n in suites.SUITE_ORDER if n in args.suites or "all" in args.suites]
    results, timings = suites.run_suites(names, cfg)
    print_results(results)
    out = Path(cfg.out or ".")
    if cfg.out is not None or args.command == "report":
        path = write_report(build_report(results, cfg, timings), out)
        print(f"report written to {path}")
    if args.command == "report":
        held = {r.suite: r.artifacts for r in results}
        if held["geodesy"]:
            write_spectrum_artifacts(out, held["geodesy"]["spectrum"])
        if held["curvature"]:
            write_pinch_artifacts(out, held["curvature"]["pinch"])
            if args.export_operator:
                held["curvature"]["operator"].export_csv(out / "operator.csv")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return run_command(args, build_config(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

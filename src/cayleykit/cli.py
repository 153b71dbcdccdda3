"""Command line front end.

Subcommands
    verify    run verification suites, print one line per check
    spectrum  tabulate the bottom of the Dirichlet spectrum over R by two routes
    pinch     extreme sectional values from the Jacobi operators
    report    everything above plus artifacts in one output directory

Exit status: 0 all checks passed, 1 at least one check failed (a suite
that raises fails its ``<suite>.crashed`` check), 2 usage error (bad
flags, unreadable config or table file).

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

# suites, the largest module, before numpy: compiled from source (no bytecode cache), its parse
# frees memory that numpy's import then reuses; compiled after numpy, it left about 1 MiB of
# the heap unused at every command's peak
from . import suites  # isort: skip
import numpy as np

from . import __version__, curvature, geodesy


def load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` pairs; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


# flag (also the config-file key) -> (RunConfig field, parser, help)
_OPTIONS = {
    "seed": ("seed", int, "master RNG seed (default 0)"),
    "trials": ("trials", int, "sampling budget (default 100000)"),
    "radius": ("radii", _float_tuple, "comma separated domain radii, each finite and at least 1"),
    "starts": ("starts", int, "unit directions whose Jacobi operators give the pinch extremes"),
    "out": ("out", str, "output directory for artifacts"),
    "format": ("fmt", str, "report format: json (default) or csv"),
    "mul_table": ("table_path", str, "CSV multiplication table to verify instead of the builtin"),
}


def build_config(args: argparse.Namespace) -> suites.RunConfig:
    """Defaults, overridden by --config file entries, overridden by flags."""
    values = {}
    if args.config:
        for key, raw in load_config(args.config).items():
            if key not in _OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            field, parse, _ = _OPTIONS[key]
            values[field] = parse(raw)
    for flag, (field, _, _) in _OPTIONS.items():
        value = getattr(args, flag)
        if value is not None:
            values[field] = value
    return suites.RunConfig(**values)


def config_echo(cfg: suites.RunConfig) -> dict:
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "radii": list(cfg.radii),
        "table": cfg.table_path or "builtin",
        "starts": cfg.starts,
    }


def build_report(results, cfg: suites.RunConfig, timings: dict) -> dict:
    failed = [c.check for r in results for c in r.checks if not c.passed]
    return {
        "schema": 3,
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


def write_report(report: dict, out: Path, fmt: str) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out / "report.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["suite", "check", "residual", "tolerance", "passed"])
            for suite in report["suites"]:
                for c in suite["checks"]:
                    writer.writerow([suite["suite"], c["check"], repr(c["residual"]),
                                     repr(c["tolerance"]), c["passed"]])
        return path
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


def write_laplacian_artifacts(out: Path, radii) -> None:
    """laplacian.csv and .svg: the radial Laplacian curve out to the largest radius."""
    out.mkdir(parents=True, exist_ok=True)
    rs = np.linspace(0.2, max(radii), 240)
    lap = geodesy.distance_laplacian(rs).tolist()
    svg_line_chart(out / "laplacian.svg",
                   [("14 coth 2r + 8 coth r", list(rs), lap)],
                   "Radial Laplacian of the distance function",
                   "r", "Laplacian", hline=22.0)
    with open(out / "laplacian.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "laplacian"])
        for r, value in zip(rs, lap):
            writer.writerow([repr(float(r)), repr(value)])


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
    sub.add_argument("--config", help="key=value config file; flags take precedence")


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

    spectrum = subs.add_parser("spectrum", help="Dirichlet spectrum sweep with artifacts")
    _add_common(spectrum)

    pinch = subs.add_parser("pinch", help="extreme sectional curvatures from the Jacobi operators")
    _add_common(pinch)

    report = subs.add_parser("report", help="full verification with artifacts")
    report.add_argument("--export-operator", action="store_true",
                        help="also write the assembled 120 x 120 operator matrix")
    _add_common(report)
    return parser


def cmd_verify(args, cfg: suites.RunConfig) -> int:
    unknown = set(args.suites) - {"all", *suites.SUITE_ORDER}
    if unknown:
        print(f"error: unknown suite: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    names = [n for n in suites.SUITE_ORDER if n in args.suites or "all" in args.suites]
    results, timings = suites.run_suites(names, cfg)
    print_results(results)
    if cfg.out is not None:
        path = write_report(build_report(results, cfg, timings), Path(cfg.out), cfg.fmt)
        print(f"report written to {path}")
    return 0 if all(r.passed for r in results) else 1


def cmd_spectrum(args, cfg: suites.RunConfig) -> int:
    out = Path(cfg.out or ".")
    rows = [(geodesy.dirichlet_value(r), geodesy.jacobi_dirichlet(r)) for r in cfg.radii]
    write_spectrum_artifacts(out, rows)
    write_laplacian_artifacts(out, cfg.radii)
    bottom = geodesy.spectrum_bottom()
    print(f"{'radius':>8} {'nodes':>5} {'collocation':>16} {'Jacobi':>16} {'gap':>10}")
    for v, exact in rows:
        flag = "" if v.converged else "  unconverged"
        print(f"{v.radius:8.2f} {v.nodes:5d} {v.value:16.12f} {exact:16.12f} "
              f"{v.value - bottom:+10.6f}{flag}")
    print(f"gap = collocation - rho^2, with rho^2 = {bottom:g} the bottom as R grows")
    print(f"artifacts in {out}: spectrum.csv spectrum.svg laplacian.csv laplacian.svg")
    return 0


def cmd_pinch(args, cfg: suites.RunConfig) -> int:
    out = Path(cfg.out or ".")
    result = curvature.pinch_extremes(curvature.assemble_operator(), starts=cfg.starts,
                                      seed=cfg.seed)
    write_pinch_artifacts(out, result)
    print(f"sectional range found: [{result.minimum:.12f}, {result.maximum:.12f}]")
    print(f"model bounds are [-4, -1]; per-start values in {out / 'pinch.csv'}")
    return 0


def cmd_report(args, cfg: suites.RunConfig) -> int:
    out = Path(cfg.out or ".")
    results, timings = suites.run_suites(list(suites.SUITE_ORDER), cfg)
    print_results(results)
    # what the geodesy and curvature suites computed (a crashed suite holds nothing)
    held = {r.suite: r.artifacts for r in results}
    if held["geodesy"]:
        write_spectrum_artifacts(out, held["geodesy"]["spectrum"])
    write_laplacian_artifacts(out, cfg.radii)
    if held["curvature"]:
        write_pinch_artifacts(out, held["curvature"]["pinch"])
        if args.export_operator:
            held["curvature"]["operator"].export_csv(out / "operator.csv")
    path = write_report(build_report(results, cfg, timings), out, cfg.fmt)
    print(f"report written to {path}")
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "pinch": cmd_pinch,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, build_config(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

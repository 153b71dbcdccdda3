"""Command line front end.

Subcommands
    verify    run verification suites, print one line per check
    report    every suite, plus report.json and the artifacts in one output directory

Exit status: 0 all checks passed, 1 at least one check failed (a suite
that raises fails its ``<suite>.crashed`` check), 2 usage error (bad
flags, unknown suite, unreadable table file, an output directory that
cannot be made).

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
    path = out / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# artifacts


def write_spectrum_artifacts(out: Path, rows) -> None:
    """spectrum.csv from the (route C, route J) pair at each radius."""
    bottom = geodesy.spectrum_bottom()
    with open(out / "spectrum.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "nodes", "value", "coarse_value", "error_estimate", "jacobi",
                         "gap", "converged"])
        for v, exact in rows:
            writer.writerow([repr(v.radius), v.nodes, repr(v.value), repr(v.coarse_value),
                             repr(v.error_estimate), repr(exact), repr(v.value - bottom),
                             v.converged])


def write_pinch_artifacts(out: Path, result: curvature.PinchResult) -> None:
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
    to ``out`` (``report``'s default is .), made before any suite runs; ``report`` then writes
    its artifacts beside it, from what the geodesy and curvature suites computed (a crashed
    suite holds nothing)."""
    unknown = set(args.suites) - {"all", *suites.SUITE_ORDER}
    if unknown:
        print(f"error: unknown suite: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    out = Path(cfg.out or ".")
    writes = cfg.out is not None or args.command == "report"
    if writes:
        out.mkdir(parents=True, exist_ok=True)
    names = [n for n in suites.SUITE_ORDER if n in args.suites or "all" in args.suites]
    results, timings = suites.run_suites(names, cfg)
    print_results(results)
    if writes:
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

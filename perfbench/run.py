#!/usr/bin/env python3
"""Benchmark of the cayleykit command line, measured from outside the package.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Each command runs in a fresh interpreter (``child.py``), one at a time.  A run
times set-up in several fresh interpreters, then starts the workload's command
again as long as fewer than ``--seconds`` have passed (at least once), checks
every repeat's exit code and check outcomes against ``expected.json``, and
compares ``report.json`` with earlier repeats at the same seed.  ``--trace 1``
makes one untraced and one traced repeat and reports the per-layer metrics
instead of the end-to-end ones.  The last line of output is one JSON object
with the metrics; ``perfbench/README.md`` describes them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = {
    "verify-all": ["verify"],
    "report-full": ["report", "--export-operator"],
    "sample-heavy": ["verify", "octonion", "curvature", "kernels", "--trials", "400000"],
}
SETUP_PROBES = 5          # timed set-ups per run, after one untimed warm-up
RUN_LIMIT_S = 170.0       # a run kills what is still running this long after it starts
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# child processes


def run_child(flags: list[str], cli_args: list[str], log: Path, deadline: float) -> dict:
    """Run child.py once; its own timings plus exit code, CPU and peak RSS from wait4.

    The child is killed at ``deadline`` (``time.monotonic()``) and marked timed out.
    """
    result_path = log.with_name(log.name + ".result.json")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, TMPDIR=str(WORK / "tmp"),
               PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    command = [sys.executable, str(HERE / "child.py"), str(result_path), *flags, "--", *cli_args]
    wall = time.perf_counter()
    with open(log, "w") as out:
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                timed_out = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {
        "exit": proc.returncode,
        "wall_s": time.perf_counter() - wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": timed_out,
    }
    try:
        child = json.loads(result_path.read_text())
    except (OSError, ValueError):
        record["no_result"] = True
    else:
        child.pop("exit", None)
        record.update(child)
    return record


def measure_setup(cli_args: list[str], deadline: float) -> tuple[list[float], dict]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, and the library versions."""
    log = WORK / "setup.log"
    samples, versions = [], {}
    for probe in range(SETUP_PROBES + 1):
        record = run_child(["--setup-only"], cli_args, log, deadline)
        if record["exit"] != 0 or "setup_s" not in record:
            raise SystemExit(f"error: set-up failed:\n{log.read_text()[-2000:]}")
        versions = record["versions"]
        if probe:  # the first probe fills the bytecode and file caches
            samples.append(record["setup_s"])
    return samples, versions


# ---------------------------------------------------------------------------
# correctness


def judge(record: dict, report: dict | None, expected: dict) -> list[str]:
    """Reasons a repeat failed: exit code, check names or outcomes differ from ``expected``."""
    problems = []
    if record.get("timed_out"):
        problems.append(f"killed {RUN_LIMIT_S:.0f} s after the run started")
    if record.get("no_result"):
        problems.append("the command did not return (no timing from the child)")
    if record["exit"] != expected["exit"]:
        problems.append(f"exit code {record['exit']}, expected {expected['exit']}")
    if report is None:
        problems.append("no report.json written")
        return problems
    got = {c["check"]: c["passed"] for s in report.get("suites", []) for c in s.get("checks", [])}
    want = expected["checks"]
    if list(got) != list(want):
        problems.append(f"check list differs: missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    problems += [f"{name}: passed={got[name]}, expected passed={ok}"
                 for name, ok in want.items() if name in got and got[name] != ok]
    return problems


def diff_paths(a, b, path: str = "") -> list[str]:
    """JSON paths at which two reports differ, ignoring the top-level ``timing``.

    List items that carry a ``suite`` or ``check`` name are labelled by it,
    e.g. ``suites[geodesy].checks[geodesy.spectrum-bottom].note``.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(set(a) | set(b)):
            if path == "" and key == "timing":
                continue
            sub = f"{path}.{key}" if path else key
            found += diff_paths(a[key], b[key], sub) if key in a and key in b else [sub]
        return found
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        found = []
        for i, (x, y) in enumerate(zip(a, b)):
            label = x.get("check", x.get("suite", i)) if isinstance(x, dict) else i
            found += diff_paths(x, y, f"{path}[{label}]")
        return found
    same = a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))
    return [] if same else [path]


def compare_with_reference(name: str, seed: int, digest: str, report: dict) -> list[str] | None:
    """Diff against the first report seen for this workload, seed and source; None if it is the first."""
    ref = WORK / "reference" / f"{name}-seed{seed}-{digest[:16]}.json"
    if ref.exists():
        return diff_paths(json.loads(ref.read_text()), report)
    ref.parent.mkdir(parents=True, exist_ok=True)
    ref.write_text(json.dumps({k: v for k, v in report.items() if k != "timing"}))
    return None


def run_repeat(name: str, cli_args: list[str], expected: dict, seed: int, digest: str,
               traced: bool, deadline: float) -> dict:
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    log = WORK / "command.log"
    record = run_child(["--trace"] if traced else [], [*cli_args, "--out", str(out)], log, deadline)
    record["traced"] = traced
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError):
        report = None
    shutil.rmtree(out, ignore_errors=True)
    record["problems"] = judge(record, report, expected)
    if report is not None:
        differs = compare_with_reference(name, seed, digest, report)
        record["differs_from_reference"] = differs
        record["problems"] += [f"residual differs from an earlier repeat: {p}" for p in differs or ()
                               if p.endswith(("residual", "max_residual"))]
    if record["problems"]:
        record["output_tail"] = log.read_text().splitlines()[-20:]
    return record


def fail_ratio(repeats: list[dict]) -> dict:
    """A repeat fails if ``run_repeat`` found any problem with it."""
    failed = sum(bool(r["problems"]) for r in repeats)
    return {"failed": failed, "attempted": len(repeats), "value": failed / len(repeats)}


# ---------------------------------------------------------------------------
# environment and statistics


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cache_per_instance": caches,
        **versions,
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "commit": commit,
        "src_sha256": source_digest(),
    }


def describe(samples: list[float]) -> dict:
    return {"n": len(samples), "median": statistics.median(samples), "min": min(samples),
            "max": max(samples)}


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())[name]
    cli_args = [*WORKLOADS[name], "--seed", str(seed)]
    digest = source_digest()
    deadline = time.monotonic() + RUN_LIMIT_S

    setup, versions = measure_setup(cli_args, deadline)
    repeats = []
    start = time.monotonic()
    # a traced run needs one untraced repeat only, to measure the tracing overhead against
    while not repeats or (not trace and time.monotonic() - start < seconds):
        repeats.append(run_repeat(name, cli_args, expected, seed, digest, False, deadline))
    if trace:
        repeats.append(run_repeat(name, cli_args, expected, seed, digest, True, deadline))

    untraced = [r for r in repeats if not r["traced"]]
    samples = {
        "run_s": [r.get("run_s", r["wall_s"]) for r in untraced],
        "setup_s": setup,
        "cpu_s": [r["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    summary = {metric: describe(values) for metric, values in samples.items()}
    failures = fail_ratio(repeats)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "command": ["cayleykit", *cli_args, "--out", "<tmp>"],
        "environment": environment(versions),
        "summary": summary,
        "fail_ratio": failures,
        "repeats": [{k: v for k, v in r.items() if k != "trace"} for r in repeats],
    }
    if trace:
        result["layers"] = trace_metrics(repeats[-1], summary["run_s"]["median"])
        wanted = spec["per_layer"]
        values = result["layers"]["metrics"]
    else:
        wanted = spec["end_to_end"]
        values = {metric: info["median"] for metric, info in summary.items()}
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result["correct"] = failures["failed"] == 0
    result["attempted"] = failures["attempted"]
    result["failed"] = failures["failed"]
    return result


def trace_metrics(traced: dict, untraced_run_s: float) -> dict:
    """Per-layer metrics of the traced repeat; see tracer.layer_metrics."""
    summary = traced.get("trace") or {"spans": {}, "counts": {}, "distinct": {}, "top": [], "absent": []}
    run_s = traced.get("run_s", traced["wall_s"])
    top_s = sum(s["end"] - s["start"] for s in summary["top"])
    metrics = layer_metrics(summary)
    metrics["trace.run_s"] = run_s
    metrics["trace.overhead_s"] = run_s - untraced_run_s
    metrics["trace.outside_spans_s"] = run_s - top_s
    return {"metrics": metrics, **summary}


def print_human(result: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}")
    print(f"   command: {' '.join(result['command'])}")
    print(f"   host: {env['nproc']} CPUs, {env['cpu_model']}, caches {env['cache_per_instance']}; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"OpenBLAS {env['numpy_openblas']}; thread variables {env['thread_env'] or 'unset'}; "
          f"commit {env['commit']}; src sha256 {env['src_sha256'][:16]}")
    for i, r in enumerate(result["repeats"], 1):
        state = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
        differs = r.get("differs_from_reference")
        same = ("first at this seed" if differs is None else
                "same as earlier repeats" if not differs else "differs at " + ", ".join(differs))
        print(f"   repeat {i}{' (traced)' if r['traced'] else ''}: exit {r['exit']}, "
              f"run_s {r.get('run_s', float('nan')):.3f}, {state}; report.json: {same}")
    units = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
    for metric, info in result["summary"].items():
        print(f"   {metric:12s} {info['median']:10.4f} {units[metric]:4s} median of {info['n']}"
              f" (min {info['min']:.4f}, max {info['max']:.4f})")
    fr = result["fail_ratio"]
    print(f"   {'fail_ratio':12s} {fr['value']:10.4f} {'ratio':4s} {fr['failed']} failed of "
          f"{fr['attempted']} attempted")
    if "layers" in result:
        trace = result["layers"]
        print("   top-level spans: " + ", ".join(
            f"{s['span']} {s['end'] - s['start']:.3f}" for s in trace["top"]))
        if trace["absent"]:
            print(f"   absent from the program: {', '.join(trace['absent'])}")
        for metric, value in trace["metrics"].items():
            print(f"   {metric:44s} {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the command it started (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cayleykit" / "cli.py").is_file():
        print(f"error: no cayleykit source under {SRC}", file=sys.stderr)
        return 2

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print_human(result)
        print(f"   detail: {path.relative_to(ROOT)}")
        results.append(result)
    shutil.rmtree(WORK / "tmp", ignore_errors=True)

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{m}" if prefix else m: v
                    for r in results for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

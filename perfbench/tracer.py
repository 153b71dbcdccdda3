"""Spans around cayleykit's public functions, installed from outside the package.

``Tracer.install`` replaces each function named in ``WRAPS`` (plus every
public function defined in ``cayleykit.forms``) with a timing wrapper.  The
wrapper is bound in the function's own module and wherever else a cayleykit
module, a module-level dict such as ``suites.SUITES`` or a class holds the
same object, so calls through ``from .x import f`` are seen as well.  A name
that no longer resolves is reported as absent instead of failing the run.

Spans nest on a stack.  A span's self time is its duration minus the
durations of the spans it called.  Spans are kept in memory, aggregated per
(calling span, span), and returned by ``summary()`` when the run ends; the
top-level spans are also kept one by one with their start and end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

SUITE_NAMES = ("octonion", "exterior", "curvature", "geodesy", "forms", "kernels")

# span name -> attribute path below the ``cayleykit`` package
WRAPS = {
    **{f"suites.{name}": f"suites.SUITES.{name}" for name in SUITE_NAMES},
    "octonion.mul_arrays": "octonion.mul_arrays",
    "exterior.duality_report": "exterior.duality_report",
    "exterior.hodge": "exterior.hodge",
    "exterior.epsilon": "exterior.epsilon",
    "exterior.interior": "exterior.interior",
    "exterior.inner": "exterior.inner",
    "exterior.random_form": "exterior.random_form",
    "exterior.hessian_action": "exterior.hessian_action",
    "curvature._octmul": "curvature._octmul",
    "curvature.plane_value": "curvature.SectionalCurvature.plane_value",
    "curvature.assemble_operator": "curvature.assemble_operator",
    "curvature.pinch_extremes": "curvature.pinch_extremes",
    "curvature.roundtrip_residual": "curvature.roundtrip_residual",
    "curvature.bianchi_residual": "curvature.bianchi_residual",
    "curvature.symmetry_residual": "curvature.symmetry_residual",
    "geodesy.smallest_eigenvalue": "geodesy.smallest_eigenvalue",
    "geodesy.spectrum_estimate": "geodesy.spectrum_estimate",
    "geodesy.adaptive_simpson": "geodesy.adaptive_simpson",
    "kernels.min_bochner_ratio": "kernels.min_bochner_ratio",
    "kernels.sharpness_sample": "kernels.sharpness_sample",
    "cli.write_report": "cli.write_report",
    "cli.write_spectrum_artifacts": "cli.write_spectrum_artifacts",
    "cli.write_pinch_artifacts": "cli.write_pinch_artifacts",
    "cli.svg_line_chart": "cli.svg_line_chart",
    "cli.export_csv": "curvature.CurvatureOperator.export_csv",
}

EXTERIOR_OPS = ("exterior.hodge", "exterior.epsilon", "exterior.interior", "exterior.inner")
CURVATURE_RESIDUALS = ("curvature.roundtrip_residual", "curvature.bianchi_residual",
                       "curvature.symmetry_residual")
CLI_ARTIFACTS = ("cli.write_report", "cli.write_spectrum_artifacts", "cli.write_pinch_artifacts",
                 "cli.svg_line_chart", "cli.export_csv")


def _octonion_products(call, result):
    """Products and bytes of one batched octonion product, computed from array sizes."""
    size = getattr(result, "size", 0)
    ins = sum(getattr(call.arguments.get(k), "size", 0) for k in ("a", "b"))
    return {"products": size // 8, "bytes": 8 * (ins + size)}


# span name -> counts taken from the bound arguments and the result of each call
COUNTERS = {
    "octonion.mul_arrays": _octonion_products,
    "curvature._octmul": _octonion_products,
    "curvature.plane_value": lambda call, result: {"planes": result.size},
    "geodesy.smallest_eigenvalue": lambda call, result: {"cells": len(call.arguments["diag"])},
    "geodesy.spectrum_estimate": lambda call, result: {
        "key": (float(call.arguments["radius"]), int(call.arguments["cells"]))},
}


class Tracer:
    def __init__(self):
        self.edges: dict[tuple, list] = {}   # (caller, span) -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.top: list[tuple[str, float, float]] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []         # (container, key, original binding)

    @classmethod
    def install(cls, wraps: dict[str, str] | None = None) -> "Tracer":
        tracer = cls()
        forms = importlib.import_module("cayleykit.forms")
        targets = dict(WRAPS if wraps is None else wraps)
        if wraps is None:
            for name, fn in inspect.getmembers(forms, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == forms.__name__:
                    targets[f"forms.{name}"] = f"forms.{name}"
        modules = [importlib.import_module(f"cayleykit.{m}") for m in
                   ("cli", "suites", "octonion", "exterior", "curvature", "geodesy", "forms", "kernels")]
        for span, path in targets.items():
            try:
                owner, key, fn = _resolve(path)
            except (AttributeError, KeyError, ImportError):
                tracer.absent.append(span)
                continue
            tracer._rebind(owner, key, fn, tracer._wrap(span, fn), modules)
        return tracer

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    def _rebind(self, owner, key, original, wrapped, modules) -> None:
        """Bind ``wrapped`` at owner[key] and wherever a module or module-level dict holds ``original``."""
        sites = {(id(owner), key): (owner, key)}
        for module in modules:
            for name, value in vars(module).items():
                if value is original:
                    sites[id(module), name] = (module, name)
                elif isinstance(value, dict):
                    sites.update({(id(value), k): (value, k) for k, v in value.items() if v is original})
        for container, name in sites.values():
            self._undo.append((container, name, original))
            if isinstance(container, dict):
                container[name] = wrapped
            else:
                setattr(container, name, wrapped)

    def _wrap(self, span: str, fn):
        clock = time.perf_counter
        stack, edges, top = self._stack, self.edges, self.top
        counter = COUNTERS.get(span)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    top.append((span, start, end))
                edge = edges.get((caller, span))
                if edge is None:
                    edge = edges[caller, span] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]
            if counter is not None:
                try:
                    counts = counter(signature.bind(*args, **kwargs), result)
                except (KeyError, TypeError, AttributeError):
                    # the function's parameters or result changed shape
                    if f"{span} counts" not in self.absent:
                        self.absent.append(f"{span} counts")
                else:
                    self._count(span, counts)
            return result

        return traced

    def _count(self, span: str, counts: dict) -> None:
        for name, value in counts.items():
            if name == "key":
                self.distinct.setdefault(span, set()).add(value)
            else:
                self.counts[f"{span}.{name}"] = self.counts.get(f"{span}.{name}", 0) + int(value)

    def summary(self) -> dict:
        spans: dict[str, dict] = {}
        for (caller, span), (calls, total, own) in sorted(self.edges.items(), key=lambda kv: str(kv[0])):
            entry = spans.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "callers": {}})
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += own
            entry["callers"][caller or "-"] = calls
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "distinct": {span: len(keys) for span, keys in self.distinct.items()},
            "top": [{"span": s, "start": a, "end": b} for s, a, b in self.top],
            "absent": list(self.absent),
        }


def _resolve(path: str):
    """(owner, key, function) for a dotted path; dict entries are walked by key."""
    first, *rest = path.split(".")
    owner, key = None, None
    obj = importlib.import_module(f"cayleykit.{first}")
    for part in rest:
        owner, key = obj, part
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    if not callable(obj):
        raise AttributeError(f"{path} is not callable")
    return owner, key, obj


def layer_metrics(summary: dict) -> dict[str, float | int]:
    """The per-layer metrics, by name, from one run's ``summary()``."""
    spans, counts = summary["spans"], summary["counts"]

    def stat(names, field):
        return sum(spans.get(n, {}).get(field, 0) for n in names)

    estimates = stat(["geodesy.spectrum_estimate"], "calls")
    distinct = summary["distinct"].get("geodesy.spectrum_estimate", 0)
    forms = [n for n in spans if n.startswith("forms.")]
    metrics = {f"suites.{s}.s": stat([f"suites.{s}"], "total_s") for s in SUITE_NAMES}
    metrics.update({
        "octonion.mul_arrays.calls": stat(["octonion.mul_arrays"], "calls"),
        "octonion.mul_arrays.products": counts.get("octonion.mul_arrays.products", 0),
        "octonion.mul_arrays.bytes": counts.get("octonion.mul_arrays.bytes", 0),
        "octonion.mul_arrays.self_s": stat(["octonion.mul_arrays"], "self_s"),
        "exterior.duality_report.self_s": stat(["exterior.duality_report"], "self_s"),
        "exterior.ops.calls": stat(EXTERIOR_OPS, "calls"),
        "exterior.ops.self_s": stat(EXTERIOR_OPS, "self_s"),
        "exterior.random_form.self_s": stat(["exterior.random_form"], "self_s"),
        "exterior.hessian_action.self_s": stat(["exterior.hessian_action"], "self_s"),
        "curvature._octmul.products": counts.get("curvature._octmul.products", 0),
        "curvature.plane_value.planes": counts.get("curvature.plane_value.planes", 0),
        "curvature.plane_value.self_s": stat(["curvature.plane_value"], "self_s"),
        "curvature.assemble_operator.calls": stat(["curvature.assemble_operator"], "calls"),
        "curvature.assemble_operator.self_s": stat(["curvature.assemble_operator"], "self_s"),
        "curvature.pinch_extremes.calls": stat(["curvature.pinch_extremes"], "calls"),
        "curvature.pinch_extremes.self_s": stat(["curvature.pinch_extremes"], "self_s"),
        "curvature.residuals.self_s": stat(CURVATURE_RESIDUALS, "self_s"),
        "geodesy.smallest_eigenvalue.calls": stat(["geodesy.smallest_eigenvalue"], "calls"),
        "geodesy.smallest_eigenvalue.cells": counts.get("geodesy.smallest_eigenvalue.cells", 0),
        "geodesy.smallest_eigenvalue.self_s": stat(["geodesy.smallest_eigenvalue"], "self_s"),
        "geodesy.spectrum_estimate.calls": estimates,
        "geodesy.spectrum_estimate.distinct": distinct,
        "geodesy.spectrum_estimate.distinct_ratio": distinct / estimates if estimates else 0.0,
        "geodesy.adaptive_simpson.self_s": stat(["geodesy.adaptive_simpson"], "self_s"),
        "kernels.min_bochner_ratio.self_s": stat(["kernels.min_bochner_ratio"], "self_s"),
        "kernels.sharpness_sample.self_s": stat(["kernels.sharpness_sample"], "self_s"),
        "forms.calls": stat(forms, "calls"),
        "forms.self_s": stat(forms, "self_s"),
        "cli.artifacts.self_s": stat(CLI_ARTIFACTS, "self_s"),
    })
    return metrics

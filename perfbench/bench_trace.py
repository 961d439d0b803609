"""Spans and memory probes wrapped around softknn's public functions.

Everything here works from outside the package: each traced function is
replaced at every binding site (the defining module, every module that
imported it by name, and tuples in module-level dicts such as
``constructions.REGISTRY``), so a call through ``softknn.harness.rasterize``
is seen as well as one through ``softknn.landscape.rasterize``. Bindings
are restored when the probe is removed.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, function) pairs traced as spans; the span name is "module.function".
TRACED = (
    ("classifier", "evaluate_points"),
    ("classifier", "classify"),
    ("classifier", "classify_batch"),
    ("landscape", "rasterize"),
    ("landscape", "region_report"),
    ("landscape", "risk_render"),
    ("landscape", "ppm_bytes"),
    ("landscape", "pgm_bytes"),
    ("landscape", "boundary_bisect"),
    ("harness", "verify_class_count"),
    ("harness", "verify_boundaries"),
    ("harness", "verify_invariances"),
    ("harness", "verify_circle_separation"),
    ("harness", "standard_report"),
    ("constructions", "circle_hard_baseline"),
    ("constructions", "fit_radial_labels"),
    ("core", "make_prototype_set"),
    ("core", "validate"),
    ("core", "load_json"),
    ("core", "save_json"),
    ("cli", "main"),
)
MODULES = ("classifier", "landscape", "harness", "constructions", "core", "cli")
SERIALIZERS = ("ppm_bytes", "pgm_bytes")
SMALL_CALL_POINTS = 64
MIB = 1 << 20


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_info(args, kwargs, result):
    pset, k = _arg(args, kwargs, 0, "pset"), _arg(args, kwargs, 1, "k")
    return {"points": len(result[1]), "k": int(k), "m": len(pset)}


# What each span records besides its times, computed from arguments and result.
EXTRAS = {
    "classifier.evaluate_points": _kernel_info,
    "classifier.classify_batch": lambda a, kw, r: {"points": len(r)},
    "landscape.rasterize": lambda a, kw, r: {"points": r.width * r.height},
    "constructions.fit_radial_labels": lambda a, kw, r: {"accepted_steps": len(r.history) - 1},
    **{f"landscape.{name}": (lambda a, kw, r: {"bytes": len(r)}) for name in SERIALIZERS},
}


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "softknn" or n.startswith("softknn.")]


def rebind(replacements: dict) -> callable:
    """Replace functions at every binding site; return a function that undoes it.

    ``replacements`` maps ``id(original)`` to ``(original, replacement)``.
    """
    undo = []

    def swap(value):
        hit = replacements.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    for mod in _package_modules():
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            new = swap(value)
            if new is not None:
                namespace[attr] = new
                undo.append((namespace, attr, value))
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if isinstance(entry, tuple) and any(swap(v) is not None for v in entry):
                        value[key] = tuple(swap(v) or v for v in entry)
                        undo.append((value, key, entry))

    def restore():
        for target, key, original in reversed(undo):
            target[key] = original

    return restore


class Tracer:
    """Records one span per traced call, in memory, for later aggregation.

    A span is ``[name, start_ns, end_ns, parent_index, job, extra]``;
    ``job`` is the sequence number of the benchmark job that caused it.
    """

    def __init__(self, sk):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._originals = {f"{mod}.{fn}": getattr(getattr(sk, mod), fn) for mod, fn in TRACED}

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> callable:
        return rebind({id(fn): (fn, self._wrap(name, fn)) for name, fn in self._originals.items()})


class MemoryProbe:
    """tracemalloc peaks per job, and the largest own peak of any rasterize call.

    A rasterize call's own peak is the traced peak during the call minus
    the traced size at its start. Resetting the peak for the call loses
    the job's earlier peak, so that is carried separately.
    """

    def __init__(self, sk):
        self.rasterize_peak = 0
        self._carried = 0
        self._rasterize = sk.landscape.rasterize

    def install(self) -> callable:
        fn = self._rasterize

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self._carried = max(self._carried, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rasterize_peak = max(self.rasterize_peak, tracemalloc.get_traced_memory()[1] - current)

        return rebind({id(fn): (fn, probed)})

    def start_job(self) -> None:
        self._carried = 0
        tracemalloc.start()

    def end_job(self) -> int:
        peak = max(self._carried, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return peak


def layer_metrics(spans, passes: int, traced_total_s: float, overhead: float, rasterize_peak: int) -> dict:
    """Per-layer metrics, per traced pass, from spans of ``passes`` traced passes.

    Self time is a span's duration minus its child spans' durations, so
    the module self times and ``trace.uncovered_s`` add up to
    ``trace.pass_s``. A rate whose denominator is zero on a workload (a
    layer the workload never calls) is reported as 0.
    """
    n = max(passes, 1)
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[i]
        own[s[0]] += dur[i] - child[i]

    def ratio(num, den):
        return num / den if den else 0.0

    kernel = defaultdict(lambda: [0, 0])  # category -> [ns, points]
    kernel_points = 0
    small = [0, 0]  # [ns, calls]
    bisect_classify = 0
    steps = 0
    out_bytes = 0
    for i, s in enumerate(spans):
        name, extra = s[0], s[5]
        if name == "classifier.evaluate_points" and extra is not None:
            k, m, pts = extra["k"], extra["m"], extra["points"]
            category = "all" if k == m else "k1" if k == 1 else "sorted"
            kernel[category][0] += dur[i]
            kernel[category][1] += pts
            kernel_points += pts
            if pts <= SMALL_CALL_POINTS:
                small[0] += dur[i]
                small[1] += 1
        elif name == "classifier.classify" and s[3] >= 0 and spans[s[3]][0] == "landscape.boundary_bisect":
            bisect_classify += 1
        elif name == "constructions.fit_radial_labels" and extra is not None:
            steps += extra["accepted_steps"]
        elif extra is not None and "bytes" in extra:
            out_bytes += extra["bytes"]

    def per_pass_s(ns):
        return ns / 1e9 / n

    module_self = {mod: sum(v for k, v in own.items() if k.startswith(mod + ".")) for mod in MODULES}
    export_ns = sum(total[f"landscape.{name}"] for name in SERIALIZERS)
    pass_s = traced_total_s / n
    m = {
        "classifier.self_s": (per_pass_s(module_self["classifier"]), "s"),
        **{
            f"classifier.evaluate_points.ns_per_point.{cat}": (ratio(kernel[cat][0], kernel[cat][1]), "ns")
            for cat in ("sorted", "all", "k1")
        },
        "classifier.evaluate_points.calls": (calls["classifier.evaluate_points"] / n, "count"),
        "classifier.evaluate_points.points": (kernel_points / n, "count"),
        "classifier.evaluate_points.self_s": (per_pass_s(own["classifier.evaluate_points"]), "s"),
        "classifier.evaluate_points.us_per_small_call": (ratio(small[0], small[1]) / 1e3, "us"),
        "classifier.classify.calls": (calls["classifier.classify"] / n, "count"),
        "classifier.classify_batch.calls": (calls["classifier.classify_batch"] / n, "count"),
        "landscape.self_s": (per_pass_s(module_self["landscape"]), "s"),
        "landscape.rasterize.self_s": (per_pass_s(own["landscape.rasterize"]), "s"),
        "landscape.rasterize.peak_mib": (rasterize_peak / MIB, "MiB"),
        "landscape.region_report.s": (per_pass_s(total["landscape.region_report"]), "s"),
        "landscape.risk_render.s": (per_pass_s(total["landscape.risk_render"]), "s"),
        **{f"landscape.{name}.s": (per_pass_s(total[f"landscape.{name}"]), "s") for name in SERIALIZERS},
        "landscape.export.mb_per_s": (ratio(out_bytes / 1e6, export_ns / 1e9), "MB/s"),
        "landscape.boundary_bisect.calls": (calls["landscape.boundary_bisect"] / n, "count"),
        "landscape.boundary_bisect.s": (per_pass_s(total["landscape.boundary_bisect"]), "s"),
        "landscape.boundary_bisect.classify_per_call": (
            ratio(bisect_classify, calls["landscape.boundary_bisect"]),
            "count",
        ),
        "harness.self_s": (per_pass_s(module_self["harness"]), "s"),
        **{
            f"harness.{name}.s": (per_pass_s(total[f"harness.{name}"]), "s")
            for name in ("verify_class_count", "verify_boundaries", "verify_invariances", "verify_circle_separation")
        },
        "harness.standard_report.self_s": (per_pass_s(own["harness.standard_report"]), "s"),
        "constructions.self_s": (per_pass_s(module_self["constructions"]), "s"),
        "constructions.circle_hard_baseline.s": (per_pass_s(total["constructions.circle_hard_baseline"]), "s"),
        "constructions.fit_radial_labels.s": (per_pass_s(total["constructions.fit_radial_labels"]), "s"),
        "constructions.fit_radial_labels.accepted_steps": (steps / n, "count"),
        "core.self_s": (per_pass_s(module_self["core"]), "s"),
        "core.make_prototype_set.calls": (calls["core.make_prototype_set"] / n, "count"),
        "core.make_prototype_set.s": (per_pass_s(total["core.make_prototype_set"]), "s"),
        **{f"core.{name}.s": (per_pass_s(total[f"core.{name}"]), "s") for name in ("validate", "load_json", "save_json")},
        "cli.main.self_s": (per_pass_s(module_self["cli"]), "s"),
        "trace.pass_s": (pass_s, "s"),
        "trace.spans": (len(spans) / n, "count"),
        "trace.overhead": (overhead, "ratio"),
        "trace.uncovered_s": (pass_s - per_pass_s(sum(module_self.values())), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}

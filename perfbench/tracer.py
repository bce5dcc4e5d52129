"""Outside-in per-layer tracing of the agcodes library.

The library is not modified. A Tracer rebinds each named public function in
every ``agcodes.*`` module namespace that holds it (so both
``combined.enumerate_sections`` and ``sections.enumerate_sections`` reach
the wrapper) and wraps the curve methods on ProjectiveLine/HermitianCurve.
Wrappers record nested spans into a Recorder: a span's self time is its
duration minus the time covered by its child spans. Every rebound name is
restored when the tracer is removed.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# module-level entry points per layer, wrapped from outside
ENTRY_POINTS = {
    "field": ("make_field",),
    "curves": ("build_curve",),
    "codes": ("make_code", "exact_min_distance", "code_from_text", "code_to_text", "build_goppa"),
    "kernels": ("field_tables", "linear_span_words", "words_array", "pairwise_min_distance",
                "center_search"),
    "xing": ("phi_basis_rows", "search_centers", "build_xing"),
    "sections": ("enumerate_sections", "phi0_projective", "multiplicity_census",
                 "solution_multiplicity"),
    "combined": ("phi_r_projective", "averaging_census", "build_combined"),
    "bounds": ("frontier_csv", "entropy_gap_max"),
    "cli": ("main",),
}
LAYERS = tuple(ENTRY_POINTS)

# curve methods, reported under the curves layer (one span name per method,
# whichever curve class runs it)
CURVE_CLASSES = ("ProjectiveLine", "HermitianCurve")
CURVE_METHODS = ("riemann_roch_basis", "local_expansion")

# work counters computed from a call's arguments and result; "cells" counts
# the symbol comparisons the exhaustive definition implies, so it stays
# comparable when an algorithm changes
WORK = {
    "sections.enumerate_sections": ("sections",),
    "kernels.center_search": ("centers", "cells"),
    "kernels.pairwise_min_distance": ("pairs", "cells"),
    "codes.make_code": ("words",),
    "kernels.linear_span_words": ("words",),
}
RATES = ("kernels.center_search", "kernels.pairwise_min_distance")


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in ENTRY_POINTS.items() for fn in fns]
    return names + [f"curves.{m}" for m in CURVE_METHODS]


def _work(name, args, result) -> dict:
    if name == "sections.enumerate_sections":
        return {"sections": len(result)}
    if name == "kernels.center_search":
        arrays = args[0]
        rows, positions = arrays[0].shape[0], len(arrays) * arrays[0].shape[1]
        return {"centers": result.n_candidates, "cells": result.n_candidates * rows * positions}
    if name == "kernels.pairwise_min_distance":
        m, n = args[0].shape
        return {"pairs": m * (m - 1) // 2, "cells": m * (m - 1) // 2 * n}
    if name == "codes.make_code":
        return {"words": len(result.words)}
    if name == "kernels.linear_span_words":
        return {"words": int(result.shape[0])}
    return {}


class Recorder:
    """Per-span totals: self time, calls and work counters, plus the
    precondition/verification errors that left each layer."""

    def __init__(self):
        self.stats = {n: dict.fromkeys(("self_s", "calls") + WORK.get(n, ()), 0)
                      for n in span_names()}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.stack = []  # open spans: [layer, seconds covered by children]

    def merge(self, other: "Recorder", scale: float = 1.0):
        for name, st in other.stats.items():
            for k, v in st.items():
                self.stats[name][k] += v * scale
        for layer, v in other.errors.items():
            self.errors[layer] += v * scale


def _wrap(recorder: Recorder, name: str, fn, error_types):
    layer = name.split(".", 1)[0]
    stats = recorder.stats[name]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = recorder.stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except error_types:
            if len(stack) < 2 or stack[-2][0] != layer:
                recorder.errors[layer] += 1
            raise
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            stats["self_s"] += dt - frame[1]
            stats["calls"] += 1
        if layer == "cli" and result not in (0, None):
            # cli.main turns these errors into exit codes 3 and 4
            recorder.errors["cli"] += 1
        for k, v in _work(name, args, result).items():
            stats[k] += v
        return result

    return traced


class Tracer:
    """Context manager: rebinds every entry point for the duration."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.rebound = []  # (namespace object, attribute, original)

    def __enter__(self):
        errors = sys.modules["agcodes.errors"]
        error_types = (errors.PreconditionError, errors.VerificationError)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "agcodes" or n.startswith("agcodes.")) and m is not None]
        try:
            for layer, fns in ENTRY_POINTS.items():
                home = sys.modules[f"agcodes.{layer}"]
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    wrapper = _wrap(self.recorder, f"{layer}.{fn_name}", original, error_types)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self.rebound.append((module, attr, original))
            curves = sys.modules["agcodes.curves"]
            for cls_name in CURVE_CLASSES:
                cls = getattr(curves, cls_name)
                for method in CURVE_METHODS:
                    original = cls.__dict__[method]
                    setattr(cls, method,
                            _wrap(self.recorder, f"curves.{method}", original, error_types))
                    self.rebound.append((cls, method, original))
        except BaseException:
            self.restore()
            raise
        return self.recorder

    def restore(self):
        for target, attr, original in reversed(self.rebound):
            setattr(target, attr, original)
        self.rebound.clear()

    def __exit__(self, *exc):
        self.restore()
        return False


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric a traced run reports."""
    out = []
    for name in span_names():
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.calls", "count", "lower"))
        out += [(f"{name}.{k}", "count", "lower") for k in WORK.get(name, ())]
    out += [(f"{name}.cells_per_s", "1/s", "higher") for name in RATES]
    out += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    out.append(("trace_overhead", "1", "lower"))
    return out


def per_layer_values(rec: Recorder, overhead: float) -> dict[str, float]:
    values = {}
    for name, st in rec.stats.items():
        for k, v in st.items():
            values[f"{name}.{k}"] = v
    for name in RATES:
        st = rec.stats[name]
        values[f"{name}.cells_per_s"] = st["cells"] / st["self_s"] if st["self_s"] > 0 else 0.0
    for layer, v in rec.errors.items():
        values[f"{layer}.errors"] = v
    values["trace_overhead"] = overhead
    return values

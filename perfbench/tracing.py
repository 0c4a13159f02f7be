"""Spans around calls into skylattice's public functions, from outside.

The tracer wraps each target function in every ``skylattice.*`` module
namespace that holds a reference to it: ``from ... import`` binds a second
name (``fcsar.fit_fcar``, ``evaluation.fit_fcsar``, ``cli.fit_fcsar``), so
patching only the defining module would miss calls made inside the
package.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _count_kernel_rows(counters: Counter, fit) -> None:
    # fit_fcar falls back to the spline pre-fit on rows where any
    # component's kernel estimate is unreliable or not finite
    ok = np.ones(fit.fitted.size, dtype=bool)
    for curve in fit.curves:
        ok &= curve.obs_reliable & np.isfinite(curve.obs_estimate)
    counters["fcar.rows"] += int(ok.size)
    counters["fcar.kernel_rows"] += int(ok.sum())


def _count_hull_fallbacks(counters: Counter, weights) -> None:
    counters["spatial.voronoi_weights.queries"] += 1
    counters["spatial.voronoi_weights.fallbacks"] += int(weights.hull_fallback)


# (defining module, function, result observer); span names are
# "<module>.<function>" without the package prefix
TARGETS = (
    ("core", "read_measurements_csv", None),
    ("core", "ingest_field", None),
    ("core", "detrend", None),
    ("core", "time_average", None),
    ("fcar", "fit_fcar", _count_kernel_rows),
    ("fcar", "sbk_estimate", None),
    ("fcar", "pseudo_responses", None),
    ("spatial", "build_neighbor_graph", None),
    ("spatial", "sar_fit_ml", None),
    ("spatial", "sar_residuals_field", None),
    ("spatial", "voronoi_weights", _count_hull_fallbacks),
    ("spatial", "natural_neighbor_predict", None),
    ("fcsar", "fit_fcsar", None),
    ("fcsar", "predict_missing_sensor", None),
    ("evaluation", "crossval", None),
    ("evaluation", "rmse", None),
    ("evaluation", "adjusted_r2", None),
    ("cli", "main", None),
)
MODULES = ("core", "fcar", "spatial", "fcsar", "evaluation", "cli")
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TARGETS)
STATS = ("calls", "busy_s", "self_s")
RATIOS = ("fcar.kernel_row_ratio", "spatial.voronoi_weights.fallback_ratio")


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a stable order."""
    names = [f"{span}.{stat}" for span in SPAN_NAMES for stat in STATS]
    names += [f"{mod}.{stat}" for mod in MODULES for stat in STATS]
    return names + list(RATIOS)


class Tracer:
    """Records spans (name, request, start, end, parent) while installed.

    ``parent`` is the index of the enclosing span in ``spans`` or -1;
    ``request`` is whatever the caller last stored in ``self.request``, so
    the spans of one CLI command share an identifier.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.request, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for mod_name in MODULES:
            importlib.import_module(f"skylattice.{mod_name}")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "skylattice" or n.startswith("skylattice."))
        ]
        for mod_name, fn_name, observe in TARGETS:
            original = getattr(sys.modules[f"skylattice.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, observe)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def metrics(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer metrics over the spans recorded from ``first_span`` on.

        busy_s counts a span only when no enclosing span has the same name
        (for a function) or the same module (for a module roll-up), so
        nested calls are not counted twice.  self_s is a span's duration
        minus the durations of its direct child spans.
        """
        spans = self.spans
        child_time = defaultdict(float)
        for name, _, start, end, parent in spans[first_span:]:
            if parent >= first_span:
                child_time[parent] += end - start
        out = {m: 0.0 for m in metric_names()}
        for idx in range(first_span, len(spans)):
            name, _, start, end, parent = spans[idx]
            module = name.split(".", 1)[0]
            dur = end - start
            same_name = same_module = False
            p = parent
            while p >= first_span:
                pname = spans[p][0]
                same_name |= pname == name
                same_module |= pname.split(".", 1)[0] == module
                p = spans[p][4]
            self_s = dur - child_time[idx]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{module}.calls"] += 1
            out[f"{module}.self_s"] += self_s
            if not same_name:
                out[f"{name}.busy_s"] += dur
            if not same_module:
                out[f"{module}.busy_s"] += dur
        return out

    def ratios(self) -> dict[str, float]:
        """Useful-over-attempted shares from the counters (0 when unused)."""
        c = self.counters
        return {
            "fcar.kernel_row_ratio": c["fcar.kernel_rows"] / c["fcar.rows"]
            if c["fcar.rows"] else 0.0,
            "spatial.voronoi_weights.fallback_ratio":
                c["spatial.voronoi_weights.fallbacks"]
                / c["spatial.voronoi_weights.queries"]
                if c["spatial.voronoi_weights.queries"] else 0.0,
        }

    def write(self, path) -> None:
        """Write every recorded span as CSV."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "request", "start", "end", "parent"])
            for idx, (name, request, start, end, parent) in enumerate(self.spans):
                writer.writerow([idx, name, request, repr(start), repr(end), parent])

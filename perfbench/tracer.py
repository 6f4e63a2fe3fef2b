"""Span recorder that times ``confbands`` layers from outside the package.

:class:`Tracer` replaces every binding of each public function of the
package's modules - the defining module's attribute and every module (or
the package namespace) that imported the function by name - with a wrapper
that records a :class:`Span`. ``remove()`` puts the original objects back.
Spans are kept in memory while recording and written out by the caller.

A span's self time is its duration minus the part of it that its child
spans cover. :func:`layer_metrics` turns the spans of a traced run into the
benchmark's per-layer metrics, as per-op means.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("regression", "functional", "geospatial", "core", "regions", "plotting", "simulate", "cli")


@dataclass
class Span:
    name: str  # "<layer>.<function>", after the defining module
    via: str  # layer whose binding was called (differs for imported names)
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at top level
    op: int = -1  # op that caused the span
    info: dict | None = None


def _bound(func, args, kwargs) -> dict:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _n_boot(func, args, kwargs, result):
    return {"n_boot": int(_bound(func, args, kwargs)["n_boot"])}


def _n_bytes(func, args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _gls_kind(func, args, kwargs, result):
    corr = _bound(func, args, kwargs)["corr"]
    estimated = corr is not None and corr.kind in ("ar1", "comp_symm") and corr.rho is None
    return {"estimated": estimated}


# extra facts recorded on a span, computed from the call and its result
_INFO = {
    "regression.scb_mean_bootstrap": _n_boot,
    "regression.scb_coef_bootstrap": _n_boot,
    "geospatial.fit_gls_grid": _gls_kind,
    "core.band_to_json": _n_bytes,
    "regions.regions_to_json": _n_bytes,
    "plotting.render_band_svg": _n_bytes,
}


def public_functions(package) -> dict[str, object]:
    """``{"<layer>.<name>": function}`` for every function in each layer
    module's ``__all__`` that the module itself defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every binding of every public function of ``package``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        originals = public_functions(package)
        by_id = {id(f): name for name, f in originals.items()}
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        for module in modules:
            via = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                name = by_id.get(id(obj))
                if name is None or obj is not originals[name]:
                    continue
                setattr(module, attr, self._wrap(obj, name, via))
                self._patches.append((module, attr, obj))

    def remove(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def _wrap(self, func, name, via):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            k = len(spans)
            spans.append(Span(name, via, 0.0, parent=stack[-1] if stack else -1, op=self.op))
            stack.append(k)
            span = spans[k]
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(func, args, kwargs, result)
            return result

        return traced

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, op: int):
        """Record spans for op ``op`` inside the block."""
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.active = False
            self._stack.clear()


# ---------------------------------------------------------------------------
# self time and per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[k], s.start, s.end) for k, s in enumerate(spans)]


class Totals:
    """Sums over a run's spans, looked up by span name."""

    def __init__(self, spans: list[Span]):
        self.self_s = defaultdict(float)
        self.self_via = defaultdict(float)
        self.self_info = defaultdict(float)  # (name, key, value) -> self time
        self.calls = defaultdict(int)
        self.calls_via = defaultdict(int)
        self.info_sum = defaultdict(float)  # (name, key) -> sum of values
        self.layer_self = defaultdict(float)
        for s, t in zip(spans, self_times(spans)):
            self.self_s[s.name] += t
            self.self_via[s.name, s.via] += t
            self.calls[s.name] += 1
            self.calls_via[s.name, s.via] += 1
            self.layer_self[s.name.partition(".")[0]] += t
            for key, value in (s.info or {}).items():
                self.self_info[s.name, key, value] += t
                self.info_sum[s.name, key] += value

    def self_of(self, *names) -> float:
        return sum(self.self_s[n] for n in names)


def _useful_ratio(t: Totals) -> float:
    draws = t.calls_via["core.substream", "regression"]
    wanted = t.info_sum["regression.scb_mean_bootstrap", "n_boot"] + t.info_sum[
        "regression.scb_coef_bootstrap", "n_boot"]
    return wanted / draws if draws else 0.0


_INVERT = ("regions.invert_levels", "regions.invert_upper", "regions.invert_lower",
           "regions.invert_two_sided", "regions.invert_interval")

# (name, unit, better, value from the run's Totals); values are summed over
# the traced ops and divided by their number, except ratios
PER_LAYER = [
    ("regression.calibrate_s", "s", "lower",
     lambda t: t.self_of("regression.scb_mean_bootstrap", "regression.scb_coef_bootstrap")),
    ("regression.fit_s", "s", "lower",
     lambda t: t.self_of("regression.fit_ols", "regression.fit_logistic", "regression.predict_mean")),
    ("regression.draws", "count", "lower", lambda t: t.calls_via["core.substream", "regression"]),
    ("regression.useful_ratio", "ratio", "higher", _useful_ratio),
    ("core.substream_s", "s", "lower", lambda t: t.self_of("core.substream")),
    ("core.substream_calls", "count", "lower", lambda t: t.calls["core.substream"]),
    ("core.assemble_s", "s", "lower", lambda t: t.self_of("core.assemble_band")),
    ("core.quantile_s", "s", "lower", lambda t: t.self_of("core.empirical_quantile")),
    ("functional.fit_s", "s", "lower", lambda t: t.self_of("functional.fit_fosr")),
    ("functional.cma_s", "s", "lower", lambda t: t.self_of("functional.cma_max_stats")),
    ("functional.multiplier_s", "s", "lower",
     lambda t: t.self_via["functional.multiplier_max_stats", "functional"]),
    ("functional.predict_s", "s", "lower", lambda t: t.self_of("functional.predict_target")),
    ("geospatial.fit_fixed_s", "s", "lower",
     lambda t: t.self_info["geospatial.fit_gls_grid", "estimated", False]),
    ("geospatial.fit_estimated_s", "s", "lower",
     lambda t: t.self_info["geospatial.fit_gls_grid", "estimated", True]),
    ("geospatial.calibrate_s", "s", "lower",
     lambda t: t.self_via["functional.multiplier_max_stats", "geospatial"]),
    ("geospatial.correlation_builds", "count", "lower",
     lambda t: t.calls["geospatial.build_correlation"]),
    ("core.band_to_json_s", "s", "lower", lambda t: t.self_of("core.band_to_json")),
    ("core.band_from_json_s", "s", "lower", lambda t: t.self_of("core.band_from_json")),
    ("core.band_json_bytes", "bytes", "lower", lambda t: t.info_sum["core.band_to_json", "bytes"]),
    ("regions.invert_s", "s", "lower", lambda t: t.self_of(*_INVERT)),
    ("regions.to_json_s", "s", "lower", lambda t: t.self_of("regions.regions_to_json")),
    ("regions.containment_s", "s", "lower",
     lambda t: t.self_of("regions.check_containment", "regions.true_region")),
    ("regions.json_bytes", "bytes", "lower", lambda t: t.info_sum["regions.regions_to_json", "bytes"]),
    ("plotting.render_s", "s", "lower",
     lambda t: t.self_of("plotting.render_band_svg", "plotting.render_band_files")),
    ("plotting.marching_squares_s", "s", "lower", lambda t: t.self_of("plotting.marching_squares")),
    ("plotting.marching_squares_calls", "count", "lower", lambda t: t.calls["plotting.marching_squares"]),
    ("plotting.svg_bytes", "bytes", "lower", lambda t: t.info_sum["plotting.render_band_svg", "bytes"]),
    ("simulate.generate_s", "s", "lower", lambda t: t.self_of("simulate.generate")),
    ("simulate.self_s", "s", "lower", lambda t: t.self_of("simulate.run_coverage")),
    ("cli.self_s", "s", "lower", lambda t: t.self_of("cli.main")),
] + [
    (f"{layer}.layer_self_s", "s", "lower", functools.partial(lambda t, layer: t.layer_self[layer], layer=layer))
    for layer in LAYERS
]

RATIOS = {"regression.useful_ratio"}

# tracing overhead, from each op timed once traced and once untraced
TRACE_METRICS = [
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op means of every per-layer metric over ``n_ops`` traced ops."""
    totals = Totals(spans)
    return {
        name: float(fn(totals)) if name in RATIOS else float(fn(totals)) / n_ops
        for name, _, _, fn in PER_LAYER
    }

"""Outside-in span tracer for spinlab's layer functions.

spinlab modules import functions from each other by name (fidelity, povm
and infogain each hold their own reference to ``codes._block_amplitudes``),
so a function is wrapped in every ``spinlab*`` module namespace that holds
the original object. Spans (name, start, end, parent) stay in memory and
are written out once, when the run ends. A listed name that a later
version of spinlab no longer defines is reported as absent, and so is an
extra count whose arguments or inner function it can no longer find: such
a metric stops counting rather than reading a silent 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc

import numpy as np


class Beneath:
    """Extra count: calls of ``inner`` nested under the traced function."""

    def __init__(self, inner: str):
        self.inner = inner


ALLOC = "alloc"   # extra: tracemalloc peak inside one call, largest over calls, MB
CACHE = "cache"   # extra: change in numerics._gauss_legendre_cached misses

# (module, function, {metric suffix: extra}). An extra is a function of the
# call's bound arguments (defaults applied) whose value is added per call,
# or one of the cross-call kinds above.
LAYERS = [
    ("su2", "wigner_small_d", {"points": lambda a: np.size(a["theta"])}),
    ("su2", "rotate_to", {}),
    ("codes", "_block_amplitudes", {"amplitudes": lambda a: a["a"].dim * np.size(a["thetas"])}),
    ("codes", "sphere_grid", {"points": lambda a: a["theta_order"] * a["phi_count"]}),
    ("codes", "source_density", {}),
    ("numerics", "tridiag_max_eigenpair", {}),
    ("numerics", "largest_zero", {}),
    ("numerics", "hermitian_eigensystem", {}),
    ("numerics", "gauss_legendre", {"cache_misses": CACHE}),
    ("fidelity", "fidelity_quadrature", {}),
    ("fidelity", "max_fidelity_rotation", {}),
    ("fidelity", "max_fidelity_polynomial", {}),
    ("povm", "simulate", {"shots": lambda a: a["shots"], "alloc_peak_mb": ALLOC}),
    ("povm", "quadrature_povm", {}),
    ("povm", "check_identity", {}),
    ("povm", "povm_fidelity_exact", {}),
    ("infogain", "info_gain_quadrature", {"orders": Beneath("codes.sphere_grid")}),
    ("infogain", "maximize_alpha", {"gain_evals": Beneath("infogain.info_gain_quadrature")}),
    ("cli", "main", {}),
]


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    specs = []
    for mod, fn, extras in LAYERS:
        specs.append((f"{mod}.{fn}.calls", "count"))
        specs.append((f"{mod}.{fn}.self_s", "s"))
        specs.extend((f"{mod}.{fn}.{suffix}", "MB" if extra is ALLOC else "count")
                     for suffix, extra in extras.items())
    return specs


class Tracer:
    """Wraps the listed functions and accumulates calls, self time and extras."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []   # [span index, time covered by child spans]
        self._active: dict[str, int] = {}
        self._beneath: dict[str, list[tuple[str, str]]] = {}  # child -> (outer, metric)
        self._cache_fn = None
        self._cache_base = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "spinlab" or name.startswith("spinlab."))]
        for mod, fn, extras in LAYERS:
            name = f"{mod}.{fn}"
            owner = sys.modules.get(f"spinlab.{mod}")
            original = getattr(owner, fn, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            self.calls[name] = 0
            self.self_s[name] = 0.0
            wrapped = self._wrap(name, original, extras)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        for inner, pairs in self._beneath.items():
            if inner not in self.calls:
                self.absent.extend(metric for _, metric in pairs)
        numerics = sys.modules.get("spinlab.numerics")
        cached = getattr(numerics, "_gauss_legendre_cached", None)
        if cached is not None and hasattr(cached, "cache_info"):
            self._cache_fn = cached
            self._cache_base = cached.cache_info().misses
        elif "numerics.gauss_legendre" not in self.absent:
            self.absent.append("numerics.gauss_legendre.cache_misses")

    def _wrap(self, name: str, fn, extras):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        sig = inspect.signature(fn)
        counters, alloc = {}, []
        for suffix, extra in extras.items():
            metric = f"{name}.{suffix}"
            self.extra[metric] = 0.0
            if isinstance(extra, Beneath):
                self._beneath.setdefault(extra.inner, []).append((name, metric))
            elif extra is ALLOC:
                alloc.append(metric)
            elif extra is not CACHE:
                counters[metric] = extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for metric, count in list(counters.items()):
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tracer.extra[metric] += float(count(bound.arguments))
                except Exception:  # argument renamed or reshaped: stop counting
                    del counters[metric]
                    tracer.absent.append(metric)
            for outer, metric in tracer._beneath.get(name, ()):
                if tracer._active.get(outer, 0):
                    tracer.extra[metric] += 1
            own_alloc = bool(alloc) and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            idx = len(tracer.span_start)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            tracer._active[name] = tracer._active.get(name, 0) + 1
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            start = time.perf_counter()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.span_end[idx] = end
                tracer._stack.pop()
                tracer._active[name] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    for metric in alloc:
                        tracer.extra[metric] = max(tracer.extra[metric], peak)

        return traced

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Per-layer metrics accumulated so far; absent metrics read 0."""
        values = {}
        for name in self.calls:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
        values.update(self.extra)
        if self._cache_fn is not None:
            values["numerics.gauss_legendre.cache_misses"] = (
                self._cache_fn.cache_info().misses - self._cache_base)
        for metric in self.absent:
            values.pop(metric, None)
        metrics = {}
        for metric, unit in metric_specs():
            value = values.get(metric, 0)
            if unit == "count":
                value = int(round(value))
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write(self, path) -> None:
        payload = {
            "names": self.names,
            "absent": self.absent,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [list(t) for t in zip(self.span_name, self.span_start,
                                           self.span_end, self.span_parent)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))

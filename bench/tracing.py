"""Span tracing of the package's public functions, from outside the package.

``Tracer.installed()`` wraps every public function defined in
``antichain.singular``, ``antichain.surface``, ``antichain.measure`` and
``antichain.cli``, and rebinds the wrapper under every name in every
``antichain`` module that refers to the original (``from .singular import
evaluate_many`` makes a second binding in ``surface``), so calls between
modules are seen.  Spans (name, start, end, parent, counts) stay in memory;
``summarize`` turns the spans of one invocation into per-layer totals with
self time, which is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
import tracemalloc

import numpy as np

LAYERS = ("singular", "surface", "measure", "cli")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _grid_samples(args: tuple, kwargs: dict, depth_at: int, samples_at: int, extra: int) -> int:
    spec = _arg(args, kwargs, 0, "spec")
    d = spec.domain_dim
    depth = _arg(args, kwargs, depth_at, "domain_depth")
    samples = _arg(args, kwargs, samples_at, "samples_per_cell")
    return (1 << (depth * d)) * (samples + extra) ** d


#: per-function work counts, from the call's arguments and result
COUNTERS = {
    "singular.evaluate_many": lambda a, k, r: {"elems": np.size(_arg(a, k, 1, "xs"))},
    "singular.dyadic_slopes_many": lambda a, k, r: {"elems": np.size(_arg(a, k, 1, "xs"))},
    "surface.surface_values": lambda a, k, r: {"rows": len(_arg(a, k, 1, "points"))},
    "measure.occupied_cell_count": lambda a, k, r: {
        "cells": r, "evals": _grid_samples(a, k, 1, 2, extra=1)},
    "measure.projection_measures": lambda a, k, r: {
        "samples": _grid_samples(a, k, 2, 4, extra=0)},
}

#: functions whose peak traced allocation is recorded as ``peak_bytes``
PEAK_MEMORY = {"surface.antichain_scan"}


class Tracer:
    """Spans of one traced invocation; times are seconds after ``origin``."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        peak = name in PEAK_MEMORY

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(span)
            self._stack.append(index)
            own_tracemalloc = peak and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span[1], span[2] = start - self.origin, end - self.origin
                if own_tracemalloc:
                    span[4]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                span[4].update(counter(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace calls while the context is open; restore every binding after."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"antichain.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    originals[id(fn)] = (f"{layer}.{name}", fn)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "antichain" and not mod_name.startswith("antichain."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per-name calls, inclusive time, self time and summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += end - start - child_time[i]
        for key, value in counts.items():
            layer[key] = max(layer.get(key, 0), value) if key == "peak_bytes" \
                else layer.get(key, 0) + value
    return out

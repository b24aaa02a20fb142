"""Spans around the public functions of the szegolab modules.

``Tracer.install`` replaces every public function of every module named in
LAYERS with a wrapper, in every szegolab namespace that holds it, so that
calls between modules (``toeplitz`` calling ``specfun.log_gamma`` through its
own import) are seen as well.  No file under ``src/`` is edited.  Each call
records a span (id, parent id, name, start, duration); a layer's self time is
its span's duration minus the durations of its direct child spans.  Counters
that say how much work a call did are read from its arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

LAYERS = ("specfun", "bergman", "quadrature", "eigen", "geometry", "hessdet", "toeplitz", "szego")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters per wrapped function: (args, kwargs, result) -> {counter: amount}.
METERS = {
    "specfun.log_gamma": lambda a, k, res: {"args": int(np.size(_arg(a, k, 0, "x")))},
    "toeplitz.explicit_eigenvalues": lambda a, k, res: {"terms": len(res.eigenvalues)},
    "toeplitz.matrix_elements": lambda a, k, res: {"bytes": int(res.nbytes)},
    "eigen.jacobi_eigenvalues": lambda a, k, res: {"order": int(np.shape(_arg(a, k, 0, "matrix"))[0])},
    "szego.eigen_count": lambda a, k, res: {
        "terms": len(_arg(a, k, 0, "spectrum").eigenvalues), "hits": int(res)},
    "quadrature.panel_integral": lambda a, k, res: {
        "nodes": (len(_arg(a, k, 1, "edges")) - 1) * int(_arg(a, k, 2, "order"))},
}


class Tracer:
    """Collects per-function totals and, while ``keep_spans`` is set, every span."""

    def __init__(self):
        self.stack = []          # [span id, time covered by direct children]
        self.next_id = 1
        self.spans = []
        self.keep_spans = True
        self.totals = {}         # name -> {"calls", "total_s", "self_s", counters...}
        self.originals = []      # (namespace, attribute, original) to undo install

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        frame = [span_id, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.stack.pop()
            if parent is not None:
                parent[1] += duration
            entry = self.totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - frame[1]
            if self.keep_spans:
                self.spans.append((span_id, parent[0] if parent else 0, name, start, duration))
        meter = METERS.get(name)
        if meter is not None:
            for key, amount in meter(args, kwargs, result).items():
                entry[key] = entry.get(key, 0) + amount
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Wrap the public functions of LAYERS in every loaded szegolab namespace."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"szegolab.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrapper(f"{layer}.{attr}", obj))
        namespaces = [m for n, m in sys.modules.items() if n == "szegolab" or n.startswith("szegolab.")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.originals.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])

    def uninstall(self):
        for namespace, attr, obj in reversed(self.originals):
            setattr(namespace, attr, obj)
        self.originals.clear()

    def snapshot(self) -> dict:
        return {name: dict(entry) for name, entry in self.totals.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Metrics that are not "<layer>.<function>.<counter> per task".
DERIVED = {
    "toeplitz.log_gamma_args_per_term": lambda get: _ratio(
        get("specfun.log_gamma", "args"), get("toeplitz.explicit_eigenvalues", "terms")),
    "szego.eigen_count.terms_per_hit": lambda get: _ratio(
        get("szego.eigen_count", "terms"), get("szego.eigen_count", "hits")),
    "eigen.jacobi_eigenvalues.order": lambda get: _ratio(
        get("eigen.jacobi_eigenvalues", "order"), get("eigen.jacobi_eigenvalues", "calls")),
}


def per_layer_metrics(totals: dict, tasks: int, per_layer: list) -> dict:
    """The per-layer metrics (BENCHMARK.json's ``per_layer`` entries) from
    function totals over ``tasks`` tasks.

    Times and counts are per task; ``jacobi_eigenvalues.order`` is the mean
    matrix order per call; the two ratios are taken over the same tasks and
    read 0 where the workload never makes the denominator's calls.
    """
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for metric in per_layer:
        name = metric["name"]
        if name in DERIVED:
            value = DERIVED[name](get)
        else:
            function, _, key = name.rpartition(".")
            value = get(function, key) / tasks
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out

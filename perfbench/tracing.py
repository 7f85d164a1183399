"""In-memory spans around the calls ``loglap.cli`` makes into each layer.

The program itself carries no instrumentation: :func:`install` replaces the
layer functions that ``loglap.cli`` imported (and ``Domain.test_function``)
with wrappers that record one span per call -- name, start, end, parent --
plus the counters the per-layer metrics need.  Spans stay in memory;
:func:`layer_metrics` reduces them at the end of the sample.

A span's self time is its duration minus the time its child spans cover, so
the layer self times plus ``cli.self_s`` add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

# Span name -> the names ``loglap.cli`` calls it by.  Every other call made by
# ``loglap.cli.main`` (argument parsing, formatting, writing, the rest of the
# library) is counted as ``cli`` self time.
CLI_LAYERS = {
    "spectrum.eig": ("eig_symmetric",),
    "discretize.build_grid": ("build_grid",),
    "discretize.assemble": ("assemble_form",),
    "discretize.rayleigh": ("rayleigh_quotient",),
    "roots.solve": ("solve_r_ln_r", "solve_log_ratio"),
    "bounds.report": (
        "counting_envelope",
        "log_moment_check",
        "lower_bound_eigenvalue",
        "lower_bound_smallest",
        "lower_bound_sum",
        "upper_bound_smallest_large",
        "upper_bound_smallest_small",
        "upper_bound_sum",
    ),
}

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "spectrum.eig_s": "s",
    "spectrum.eig_calls": "count",
    "discretize.assemble_s": "s",
    "discretize.operator_bytes": "bytes",
    "discretize.cells": "count",
    "discretize.build_grid_s": "s",
    "discretize.rayleigh_s": "s",
    "geometry.test_function_s": "s",
    "geometry.test_function_calls": "count",
    "roots.solve_s": "s",
    "roots.calls": "count",
    "roots.iterations": "count",
    "bounds.report_s": "s",
    "bounds.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def held_bytes(obj) -> int:
    """Bytes of the distinct numpy buffers reachable through ``obj``'s fields.

    Dataclass fields and instance attributes are followed recursively, so a
    form's grid arrays count too; views are charged to their base buffer once.
    """
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        while isinstance(item, np.ndarray) and isinstance(item.base, np.ndarray):
            item = item.base
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.extend(vars(item).values())
    return total


class Tracer:
    """Records spans ``(name, parent_index, start, end)`` and layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = {"cells": 0, "operator_bytes": 0, "root_iterations": 0}
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._open[-1] if self._open else None, 0.0, 0.0]
            self.spans.append(span)
            self._open.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_grid(self, grid) -> None:
        self.counters["cells"] += grid.count

    def _on_form(self, form) -> None:
        self.counters["operator_bytes"] = max(self.counters["operator_bytes"], held_bytes(form))

    def _on_root(self, res) -> None:
        self.counters["root_iterations"] += res.iterations

    def install(self, cli_module, domain_class) -> None:
        """Patch the layer entry points as ``cli_module`` and ``domain_class`` expose them."""
        hooks = {
            "discretize.build_grid": self._on_grid,
            "discretize.assemble": self._on_form,
            "roots.solve": self._on_root,
        }
        for span_name, attrs in CLI_LAYERS.items():
            for attr in attrs:
                fn = getattr(cli_module, attr)
                setattr(cli_module, attr, self.wrap(span_name, fn, hooks.get(span_name)))
        domain_class.test_function = self.wrap("geometry.test_function", domain_class.test_function)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name (span minus the time its children cover)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, _parent, start, end), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _n, parent, start, end in self.spans if parent is None)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sample (all but ``trace.overhead_s``)."""
    self_s = tracer.self_times()
    return {
        "spectrum.eig_s": self_s.get("spectrum.eig", 0.0),
        "spectrum.eig_calls": tracer.calls("spectrum.eig"),
        "discretize.assemble_s": self_s.get("discretize.assemble", 0.0),
        "discretize.operator_bytes": tracer.counters["operator_bytes"],
        "discretize.cells": tracer.counters["cells"],
        "discretize.build_grid_s": self_s.get("discretize.build_grid", 0.0),
        "discretize.rayleigh_s": self_s.get("discretize.rayleigh", 0.0),
        "geometry.test_function_s": self_s.get("geometry.test_function", 0.0),
        "geometry.test_function_calls": tracer.calls("geometry.test_function"),
        "roots.solve_s": self_s.get("roots.solve", 0.0),
        "roots.calls": tracer.calls("roots.solve"),
        "roots.iterations": tracer.counters["root_iterations"],
        "bounds.report_s": self_s.get("bounds.report", 0.0),
        "bounds.calls": tracer.calls("bounds.report"),
        "cli.self_s": wall_s - tracer.top_level_time(),
    }

"""In-memory span tracing around the calls the CLI makes into each layer.

A Tracer replaces the public balloonlink functions that ``balloonlink.cli``
and ``balloonlink.exposure`` bound at import with wrappers that record a
span (name, start, end, parent) per call, and restores them afterwards.
The layer of a span is the balloonlink module that defines the function,
so the layers are the repo's modules. Nothing inside the package changes.
"""

from __future__ import annotations

import inspect
import os
import tracemalloc
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for span, intervals in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


class Tracer:
    """Records spans and counts for calls that go through installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.peak_alloc_bytes = 0
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.peak_alloc_bytes = 0

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span; on_result(args, result) runs after it closes."""
        spans, stack, clock = self.spans, self._open, perf_counter

        def traced(*args, **kwargs):
            # kept lean: sweeps make ~1e5 wrapped calls per process
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _alloc_peak(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_alloc_bytes = max(self.peak_alloc_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def _wrapper(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name == "csvout.fmt":
            # called once per printed float: counted, not spanned, so its
            # time stays in the cmd_* bodies (cli.self_ms)
            return self._counted("csvout.fmt_calls", fn)
        if name == "csvout.write_csv":
            def written(args, _):
                self.count("csvout.bytes_written", os.path.getsize(args[0]))
            return self.wrap(name, fn, written)
        if name == "coverage.union_area_km2":
            return self._alloc_peak(self.wrap(name, fn))
        if name == "cli.build_parser":
            def with_parse(_, parser):
                parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return self.wrap(name, fn, with_parse)
        if layer == "exposure":
            def points(_, result):
                if isinstance(result, tuple) or hasattr(result, "points"):
                    self.count("exposure.points", len(getattr(result, "points", result)))
            return self.wrap(name, fn, points)
        return self.wrap(name, fn)

    def install(self, *modules) -> list[tuple[object, str, object]]:
        """Wrap every public balloonlink function bound in the given modules.

        Functions defined in another balloonlink module are wrapped, plus
        cli.build_parser. Returns what `uninstall` needs to restore.
        """
        saved = []
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                origin = fn.__module__
                if not origin.startswith("balloonlink."):
                    continue
                if origin == module.__name__ and attr != "build_parser":
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(origin.rsplit(".", 1)[1], attr, fn))
        return saved

    @staticmethod
    def uninstall(saved) -> None:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# Per-layer metrics reduced from the spans of one traced CLI call.
LAYER_METRICS = (
    "cli.parse_ms",
    "cli.self_ms",
    "scenario.load_ms",
    "scenario.load_calls",
    "propagation.calls",
    "propagation.ms",
    "exposure.sweep_ms",
    "exposure.points",
    "coverage.union_area_ms",
    "coverage.union_area_peak_alloc_mb",
    "coverage.layout_ms",
    "coverage.cell_radius_ms",
    "emissions.compare_ms",
    "csvout.write_calls",
    "csvout.write_ms",
    "csvout.bytes_written",
    "csvout.fmt_calls",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce one call's spans and counts to the named per-layer metrics.

    `*_ms` metrics of a named function are its inclusive duration;
    cli.self_ms and propagation.ms are self times. exposure.sweep_ms is
    inclusive of the propagation calls the sweeps make. Also returns
    `layer.<name>` self times (parse split from cli), whose sum is the
    traced main() duration.
    """
    spans = [Span(*span) for span in tracer.spans]
    selfs = self_times(spans)
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    for span, self_s in zip(spans, selfs):
        layer = span.name.split(".", 1)[0]
        ms = (span.end - span.start) * 1e3
        parse = span.name in ("cli.build_parser", "cli.parse_args")
        key = "layer.parse" if parse else f"layer.{layer}"
        m[key] = m.get(key, 0.0) + self_s * 1e3
        if parse:
            m["cli.parse_ms"] += ms
        elif span.name == "cli.main":
            m["cli.self_ms"] += self_s * 1e3
        elif span.name == "scenario.load_scenario":
            m["scenario.load_ms"] += ms
            m["scenario.load_calls"] += 1
        elif layer == "propagation":
            m["propagation.calls"] += 1
            m["propagation.ms"] += self_s * 1e3
        elif layer == "exposure" and (span.parent < 0 or not spans[span.parent].name.startswith("exposure.")):
            m["exposure.sweep_ms"] += ms
        elif span.name == "coverage.union_area_km2":
            m["coverage.union_area_ms"] += ms
        elif span.name == "coverage.constellation_layout":
            m["coverage.layout_ms"] += ms
        elif span.name == "coverage.cell_radius_from_budget":
            m["coverage.cell_radius_ms"] += ms
        elif span.name == "emissions.compare":
            m["emissions.compare_ms"] += ms
        elif span.name == "csvout.write_csv":
            m["csvout.write_calls"] += 1
            m["csvout.write_ms"] += ms
    for name in ("exposure.points", "csvout.bytes_written", "csvout.fmt_calls"):
        m[name] = float(tracer.counts.get(name, 0))
    m["coverage.union_area_peak_alloc_mb"] = tracer.peak_alloc_bytes / 2**20
    return m


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import-layer metrics from the `-X importtime` report of one CLI process.

    import.cli_cumulative_ms sums the top-level balloonlink* imports,
    import.numpy_cumulative_ms is numpy's cumulative time wherever it is
    imported, and import.modules_count counts the modules imported under
    the top-level balloonlink* entries, themselves included.
    """
    cli_us = numpy_us = 0
    modules = 0
    block = 0  # lines since the previous top-level entry
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        name = name_field.strip()
        block += 1
        if name == "numpy":
            numpy_us = int(cumulative)
        if len(name_field) - len(name_field.lstrip()) == 1:  # top level
            if name == "balloonlink" or name.startswith("balloonlink."):
                cli_us += int(cumulative)
                modules += block
            block = 0
    return {
        "import.cli_cumulative_ms": cli_us / 1e3,
        "import.numpy_cumulative_ms": numpy_us / 1e3,
        "import.modules_count": float(modules),
    }

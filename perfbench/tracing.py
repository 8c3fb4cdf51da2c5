"""In-memory span tracing around the delzant package's module boundaries.

The library is not modified.  ``Tracer.install`` swaps each traced public
function for a wrapper in every ``delzant`` module namespace that binds it,
and wraps ``__init__`` of the traced classes.  The library calls these
through module globals, so nested calls (for example ``is_generic`` ->
``enumerate_candidates`` -> ``build_most_obtuse`` -> ``Polygon``) are caught
too.  ``Tracer.uninstall`` restores every original binding.

A span is ``(name, start, end, span_id, parent_id, item_id, error)``; spans
stay in memory until ``write`` dumps them.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, module, attribute).  Classes are traced through ``__init__``.
TRACED = (
    ("geometry.Polygon", "delzant.geometry", "Polygon"),
    ("geometry.validate_delzant", "delzant.geometry", "validate_delzant"),
    ("geometry.detect_subpolygons", "delzant.geometry", "detect_subpolygons"),
    ("geometry.polygon_from_halfplanes", "delzant.geometry", "polygon_from_halfplanes"),
    ("spectral.spectral_data", "delzant.spectral", "spectral_data"),
    ("spectral.bundle_facet_data", "delzant.spectral", "bundle_facet_data"),
    ("reconstruct.enumerate_candidates", "delzant.reconstruct", "enumerate_candidates"),
    ("reconstruct.build_most_obtuse", "delzant.reconstruct", "build_most_obtuse"),
    ("reconstruct.is_generic", "delzant.reconstruct", "is_generic"),
    ("reconstruct.bundle_reconstruct", "delzant.reconstruct", "bundle_reconstruct"),
    ("zoo.perturb_generic", "delzant.zoo", "perturb_generic"),
    ("zoo.parallel_pair_census", "delzant.zoo", "parallel_pair_census"),
    ("polytope3.Polytope3", "delzant.polytope3", "Polytope3"),
)

# Layers are the package's modules; "item" is the benchmark's own root span.
LAYERS = ("geometry", "spectral", "reconstruct", "zoo", "polytope3", "serialize")

BRANCH_OUTCOMES = (
    "no_closure",
    "inadmissible_split",
    "dropped_invalid",
    "dropped_mismatch",
    "no_convex_ordering",
    "degenerate_dead",
    "emitted",
)


class Tracer:
    """Collects spans and result counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.item_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        error = None
        start = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, start, end, span_id, parent, self.item_id, error))

    def _wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observers: counters read from returned values ---------------------

    def _observe_candidates(self, candidates):
        for record in candidates.trace:
            self.counters["branches." + record.outcome] += 1

    def _observe_census(self, census):
        self.counters["census.instances"] += census.total

    # -- installing ---------------------------------------------------------

    def install(self):
        observers = {
            "reconstruct.enumerate_candidates": self._observe_candidates,
            "zoo.parallel_pair_census": self._observe_census,
        }
        modules = [m for key, m in sys.modules.items() if key == "delzant" or key.startswith("delzant.")]
        for name, module_name, attr in TRACED:
            target = getattr(sys.modules[module_name], attr)
            if isinstance(target, type):
                original = target.__dict__["__init__"]
                target.__init__ = self._wrap(name, original)
                self._restore.append((target, "__init__", original))
                continue
            wrapper = self._wrap(name, target, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, target))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reporting ----------------------------------------------------------

    def summary(self, factors) -> dict:
        """Per-name calls, busy and self seconds, and errors by type.

        ``factors[item_id]`` rescales the spans of each item to reference
        seconds.
        """
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, span_id, parent, item, error in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": Counter()})
        for name, start, end, span_id, parent, item, error in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["busy_s"] += (end - start) * factors[item]
            entry["self_s"] += (end - start - child_time[span_id]) * factors[item]
            if error is not None:
                entry["errors"][error] += 1
        return dict(stats)

    def nested_calls(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` whose direct parent is named ``outer``."""
        names = {span_id: name for name, _, _, span_id, _, _, _ in self.spans}
        return sum(1 for s in self.spans if s[0] == inner and names.get(s[4]) == outer)

    def write(self, path) -> None:
        """Dump every span as one CSV line, times in microseconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,start_us,end_us,span,parent,item,error\n")
            for name, start, end, span_id, parent, item, error in sorted(self.spans, key=lambda s: s[3]):
                out.write(
                    f"{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},"
                    f"{span_id},{parent},{item},{error or ''}\n"
                )

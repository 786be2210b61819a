"""Outside-in spans around the program's public layer entry points.

Between :meth:`Tracer.install` and :meth:`Tracer.uninstall`, each stage's
``process`` method on the engine instance and the public functions the
stages call are replaced by wrappers that record a span (name, start,
end, parent) in memory.  Nothing inside the program changes; uninstalling
puts the originals back.  Spans run on the calling thread only, so the benchmark traces
in-process (serial) work this way and reads worker-side work from the
program's own ``MetricsRegistry`` instead.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (module, attribute, span name): the public functions the stages call.
#: ``repro.features.matrix`` imports ``analyze`` by name, so it is wrapped
#: where that module looks it up as well.
FUNCTIONS = (
    ("repro.ole.extractor", "extract_macros", "ole.extract"),
    ("repro.vba.analyzer", "analyze", "vba.analyze"),
    ("repro.features.matrix", "analyze", "vba.analyze"),
    ("repro.sa.interpreter", "recover_strings", "sa.recover"),
    ("repro.lint.registry", "lint_analysis", "lint.lint"),
)


class Tracer:
    """In-memory span recorder; :meth:`report` turns spans into self time."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, meta]
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn, meta=None):
        """Run ``fn()`` inside a span; returns its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, meta]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn()
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, meta_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            meta = meta_of(args, kwargs) if meta_of is not None else None
            return self.span(name, lambda: fn(*args, **kwargs), meta)

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        had = attribute in vars(owner)
        previous = vars(owner).get(attribute)
        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, had, previous))

    def install(self, engine=None) -> "Tracer":
        """Wrap the layer functions and every stage of ``engine``."""
        from repro.features.registry import FeatureSet

        for module_name, attribute, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._patch(module, attribute, self.wrap(name, original, _size_of_first))
        self._patch(
            FeatureSet,
            "extract_matrix",
            self.wrap(
                "features.extract_matrix",
                FeatureSet.extract_matrix,
                lambda args, kwargs: len(args[1]),
            ),
        )
        if engine is not None:
            for stage in engine.stages:
                self._patch(stage, "process", self.wrap(f"stage.{stage.name}", stage.process))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, had, previous = self._undo.pop()
            if had:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)

    # -- reading -------------------------------------------------------

    def report(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and the
        summed ``meta`` (source bytes, rows) where the wrapper records one.

        Self time is a span's duration minus the time its direct children
        cover, so the self times of all spans under a root add up to the
        root's duration exactly.
        """
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        meta: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, value) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child_time[index]
            if isinstance(value, (int, float)):
                meta[name] += value
        return {
            name: {
                "calls": calls[name],
                "inclusive_s": inclusive[name],
                "self_s": own[name],
                "meta": meta[name],
            }
            for name in calls
        }


def _size_of_first(args, kwargs):
    """Bytes of the first argument when it is a document or a source."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, bytes):
        return len(first)
    if isinstance(first, str):
        return len(first.encode("utf-8", "replace"))
    return None

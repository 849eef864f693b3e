"""Wall-clock spans recorded around calls into the program's layers.

The benchmark never edits the program: in a traced run it replaces
public entry points (methods and module functions) with wrappers that
open a span, call the original and close the span, returning the
original's value untouched.  Spans stay in memory and are written once,
at exit, as Chrome trace-event JSON (open in chrome://tracing or
Perfetto).

A span's *self time* is its duration minus the part of its interval
that its direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

_NO_PARENT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int


class Recorder:
    """Spans of one single-threaded run, with parents tracked on a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else _NO_PARENT
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.request))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------

    def _install(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = functools.wraps(fn)(make(fn))
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def wrap(self, owner, attr: str, name) -> None:
        """Span every call of ``owner.attr``.  ``name`` is the span name,
        or a callable ``(args, kwargs) -> name | None`` deciding per call
        (``None`` calls through without a span)."""
        recorder = self

        def make(fn):
            def wrapper(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                if label is None:
                    return fn(*args, **kwargs)
                index = recorder.begin(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder.end(index)
            return wrapper

        self._install(owner, attr, make)

    def tally(self, owner, attr: str, name: str) -> None:
        """Count every call of ``owner.attr`` (no span: the hot paths)."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        self._install(owner, attr, make)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- export ------------------------------------------------------------

    def write_chrome(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {"name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
             "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6,
             "pid": 1, "tid": 1,
             "args": {"request": s.request, "parent": s.parent}}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children's
    intervals (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent != _NO_PARENT:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, float],
                                        dict[str, int]]:
    """Per span name: inclusive time (outermost spans of that name only,
    so recursion is not counted twice), self time, and span count."""
    selfs = self_times(spans)
    inclusive: dict[str, float] = {}
    self_by: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, span in enumerate(spans):
        self_by[span.name] = self_by.get(span.name, 0.0) + selfs[index]
        calls[span.name] = calls.get(span.name, 0) + 1
        parent = span.parent
        nested = False
        while parent != _NO_PARENT:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            inclusive[span.name] = (inclusive.get(span.name, 0.0)
                                    + span.end - span.start)
    return inclusive, self_by, calls

"""In-memory span recorder that wraps stratfit functions from outside.

The benchmark never edits the library. A traced run replaces module
attributes (for example ``stratfit.effects.log_likelihood``) with wrappers
that record a span per call: name, start, end, parent span and trace id.
Spans of one analysis (one fit plus its standard errors, one recovery
replicate, one CLI call) share a trace id. Very hot calls are recorded as
counts with busy time only, so that tracing does not swamp what it measures.
Everything stays in memory until :meth:`Tracer.write` at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    trace_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Patches:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans and call counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.elements: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self._stack: list[tuple[int, int]] = []  # (span_id, trace_id)
        self._next_span = 0
        self._next_trace = 0

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1] if self._stack else None
        if new_trace or parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
        else:
            trace_id = parent[1]
        self._stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.calls[name] += 1
            self.spans.append(
                Span(span_id, None if parent is None else parent[0], trace_id, name, start, end)
            )

    def spanned(self, func, name: str, new_trace: bool = False):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name, new_trace):
                return func(*args, **kwargs)

        return wrapper

    def counted(self, func, name: str):
        """Count calls, argument elements and busy time; no span."""

        @functools.wraps(func)
        def wrapper(x):
            start = time.perf_counter()
            try:
                return func(x)
            finally:
                self.busy[name] += time.perf_counter() - start
                self.calls[name] += 1
                self.elements[name] += np.size(x)

        return wrapper

    # -- queries ---------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum((s.duration for s in self.named(name)), 0.0)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent_id is not None:
                out[s.parent_id].append(s)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its (sequential) children cover."""
        kids = self.children()
        return {
            s.span_id: s.duration - sum(c.duration for c in kids.get(s.span_id, ()))
            for s in self.spans
        }

    def nesting_errors(self) -> list[str]:
        """Children that start before or end after their parent."""
        by_id = {s.span_id: s for s in self.spans}
        errors = []
        for s in self.spans:
            if s.parent_id is None:
                continue
            p = by_id[s.parent_id]
            if s.start < p.start or s.end > p.end:
                errors.append(f"{s.name} escapes its parent {p.name}")
        return errors

    def write(self, path) -> None:
        """Dump spans and counters as JSON, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        payload = {
            "spans": [
                {
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "trace": s.trace_id,
                    "name": s.name,
                    "start_s": s.start - t0,
                    "end_s": s.end - t0,
                }
                for s in sorted(self.spans, key=lambda s: s.span_id)
            ],
            "calls": dict(self.calls),
            "elements": dict(self.elements),
            "busy_s": dict(self.busy),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

"""Outside-in tracing for the benchmark: spans and counters recorded by
wrapping the package's functions at the module attributes their callers
look up, so no file of the package changes.

A span records its name, start, end and parent; self time is a span's
duration minus the part of it that its child spans cover.  A target whose
attribute no longer exists is reported as missing and the run carries on,
so the trace survives refactors that delete or rename helpers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `path` is dotted from the module; a segment
    that meets a dict is used as its key (for click's command table)."""

    module: str
    path: str
    span: str
    count: Callable | None = None  # (tracer, bound arguments, result) -> None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        signature = _signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None and signature is not None:
                count(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # --- derived figures -------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Sum over spans of each name of duration minus child coverage.
        Children run inside their parent on one thread, so their
        durations never overlap and subtracting their sum is exact."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s.name] += (s.end - s.start) - c
        return out

    def total_times(self, names: set[str]) -> float:
        """Wall time inside spans named in `names`, counting a nested
        span of the same group once (through its outermost ancestor)."""
        total = 0.0
        for s in self.spans:
            if s.name in names and not self._has_ancestor_in(s, names):
                total += s.end - s.start
        return total

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def _has_ancestor_in(self, span: Span, names: set[str]) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False


def _signature(fn: Callable) -> inspect.Signature | None:
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _resolve(root: object, path: str):
    """Return (owner, attribute, value) for a dotted path, or None if any
    step is missing."""
    obj = root
    for part in path.split("."):
        owner, key = obj, part
        if isinstance(obj, dict):
            if part not in obj:
                return None
            obj = obj[part]
        elif hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            return None
    return owner, key, obj


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict[str, object], targets):
    """Swap traced wrappers in for the targets found, note the missing
    ones in `tracer.missing`, and restore the originals on exit."""
    undo, missing = [], []
    try:
        for t in targets:
            found = _resolve(modules[t.module], t.path) if t.module in modules else None
            if found is None or not callable(found[2]):
                missing.append(f"{t.module}.{t.path}")
                continue
            owner, key, fn = found
            setattr(owner, key, tracer.wrap(fn, t.span, t.count))
            undo.append((owner, key, fn))
        tracer.missing = sorted(set(missing))
        yield tracer
    finally:
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)

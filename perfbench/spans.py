"""Spans recorded around calls into tdglfem, from outside the package.

A :class:`Recorder` replaces chosen module attributes with wrappers for the
length of one operation. Each call through a wrapper appends one span
``[name, start, end, parent]`` to a list kept in memory; ``parent`` is the
index of the enclosing span, or -1. The originals are put back when the
``with`` block ends, so the next operation starts from the plain package.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def timed(self, fn, name: str, after=None):
        """``fn`` wrapped to record a span named ``name`` for every call.

        ``after(args, result)`` runs once the span has ended and returns the
        value handed back to the caller; it keeps counts.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            return result if after is None else after(args, result)

        return wrapper

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Route calls that look up ``module.attr`` through :meth:`timed`."""
        original = getattr(module, attr)
        setattr(module, attr, self.timed(original, name, after))
        self._undo.append((module, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
        return False

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, covered):
            totals[name] += end - start - inner
        return totals

    def outermost_time(self, names) -> float:
        """Wall time of the spans in ``names`` that no other such span encloses."""
        names = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

"""In-memory spans around calls into qde, and the self times derived from them.

A span is [name, start, end, parent index].  Spans are kept in a list and
only turned into numbers after the traced pass ends, so the pass itself pays
for two ``perf_counter`` calls and a list append per span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, dict] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, key, value: int) -> None:
        """Record a size; sizes of one name are summed over distinct keys."""
        self.counts.setdefault(name, {})[key] = value

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def count_totals(self) -> dict[str, int]:
        return {name: sum(values.values()) for name, values in self.counts.items()}

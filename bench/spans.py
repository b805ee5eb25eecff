"""In-memory span recorder and the order statistics the benchmark reports.

A span is ``(name, start_ns, end_ns, parent, qid)``: ``parent`` is the
index of the enclosing span (``-1`` at top level) and ``qid`` ties the
spans of one query or request together.  Spans stay in memory while the
benchmark runs and are written out once, at the end.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator


class Tracer:
    """Span recorder for one thread; other threads hand spans to :meth:`record`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: int | None = None) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, qid])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter_ns()

    def record(self, name: str, start_ns: int, end_ns: int, qid: int | None = None) -> None:
        """Add a finished top-level span timed elsewhere."""
        self.spans.append([name, start_ns, end_ns, -1, qid])

    def durations(self, name: str) -> list[int]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def by_qid(self, name: str) -> dict[int, int]:
        """Duration per query id of the spans called ``name``."""
        return {qid: end - start for span_name, start, end, _, qid in self.spans
                if span_name == name}

    def self_times(self) -> dict[str, int]:
        """Total self time per span name: duration minus time in child spans."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            totals[name] = totals.get(name, 0) + (end - start - children)
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, qid in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "qid": qid}) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values)

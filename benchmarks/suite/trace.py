"""Harness-side tracer: in-memory spans, written out when the run ends.

A span is ``(id, name, start, end, parent, request)``; spans of one request
share the request identifier.  The tracer only ever appends to a list, so
recording costs well under a microsecond next to the millisecond-scale calls
it brackets.  A layer's *self time* is its span's duration minus the summed
durations of its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    """Collects spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def record(
        self, name: str, start: float, end: float, *, parent: int | None, request: str
    ) -> int:
        """Store one finished span; returns its id for use as a ``parent``."""
        span_id = len(self.spans)
        self.spans.append([span_id, name, start, end, parent, request])
        return span_id

    def extend(self, span_id: int, end: float) -> None:
        """Move a span's end (a parent recorded before its last child ran)."""
        self.spans[span_id][3] = end

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every span called ``name``, in record order."""
        return [end - start for _, span, start, end, _, _ in self.spans if span == name]

    def self_times(self, name: str) -> list[float]:
        """Per span called ``name``: its duration minus its children's."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[span_id]
            for span_id, span, start, end, _, _ in self.spans
            if span == name
        ]

    def document(self) -> dict:
        """Every span, JSON-ready (times in seconds on the perf_counter clock)."""
        return {
            "clock": "time.perf_counter",
            "fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": self.spans,
        }

"""In-memory spans and counters for the traced run.

A span records name, start, end, parent span and request id.  Spans stay
in memory until the run ends; self time is a span's duration minus the
durations of its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans and counts cost one method call and record nothing."""

    enabled = False
    request_id = 0

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, 0.0, 0.0, parent, tr.request_id])
        tr.stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        record = tr.spans[self.index]
        record[1] = self.start
        record[2] = end
        return False


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.formulas: list = []  # built by the current request, walked after it
        self.request_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, total self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - children
        return {name: (n, t) for name, (n, t) in out.items()}

    def write(self, path: Path) -> None:
        """Spans as JSON, times in ms from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((s - origin) * 1e3, 6), round((e - origin) * 1e3, 6), parent, rid]
            for name, s, e, parent, rid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"columns": ["name", "start_ms", "end_ms", "parent", "request"], "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")

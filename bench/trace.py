"""In-memory span recorder for the traced run.

One span is recorded per call the benchmark makes into a layer's public
function: name, start, end, the span that caused it, and an operation id
shared by every span of one operation.  Spans are kept in memory and only
written (``dump``) when the run ends, so recording costs one tuple append.
A layer's *self time* is its span's duration minus the part of that interval
its child spans cover (``self_times``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Records spans ``(id, parent, op, name, start, end)`` and named counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_op = 0

    def new_op(self) -> int:
        """A fresh operation id (spans of one operation share it)."""
        self._next_op += 1
        return self._next_op

    def add(self, name: str, start: float, end: float, op: int = 0) -> None:
        """Record a finished span from timestamps the caller already took."""
        parent = self._stack[-1] if self._stack else 0
        self.spans.append((len(self.spans) + 1, parent, op, name, start, end))

    def call(self, name: str, fn: Callable[..., Any], *args: Any, op: int = 0, **kwargs: Any):
        """Call ``fn`` as one span; returns ``(its result, seconds)``."""
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        end = time.perf_counter()
        self.add(name, start, end, op)
        return value, end - start

    @contextmanager
    def span(self, name: str, op: int = 0) -> Iterator[None]:
        """Time the enclosed block as one span; spans opened inside nest under it."""
        span_id = len(self.spans) + 1
        parent = self._stack[-1] if self._stack else 0
        self.spans.append((span_id, parent, op, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id - 1] = (span_id, parent, op, name, start, end)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name (duration minus child coverage)."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            total[name] += (end - start) - covered[span_id]
        return dict(total)

    def dump(self, path: str) -> None:
        """Write one JSON object per span, then one line of counts and self times."""
        with open(path, "w", encoding="ascii") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
            summary = {"counts": dict(self.counts), "self_seconds": self.self_times()}
            handle.write(json.dumps(summary) + "\n")

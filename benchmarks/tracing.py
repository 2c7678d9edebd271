"""In-memory spans recorded by the benchmark around calls into thinlab.

A span is (name, start, end, parent, op id): ``parent`` is the index of the
enclosing span, ``op`` numbers the top-level operation the span belongs to.
Spans stay in memory until the run ends and are then written out as JSON.
A span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> None:
        """Start a new top-level operation: later spans share its id."""
        self._op += 1

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, func, on_result=None):
        """``func`` with a span around each call; ``on_result(attrs, result)``
        may copy facts about the result into the span."""

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, result)
                return result

        return traced

    def attrs(self, name: str) -> list[dict]:
        return [s["attrs"] for s in self.spans if s["name"] == name]

    def child_times(self) -> dict[int, float]:
        """Per span index: the time its direct children cover."""
        covered = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return covered

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total seconds, total self seconds)."""
        child_time = self.child_times()
        table: dict[str, list] = {}
        for index, span in enumerate(self.spans):
            duration = span["end"] - span["start"]
            row = table.setdefault(span["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_time[index]
        return {name: tuple(row) for name, row in table.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, default=str)


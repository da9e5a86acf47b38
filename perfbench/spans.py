"""In-memory spans recorded from the benchmark's side of each layer call.

A span has a name, start and end (``perf_counter`` seconds), a parent span
id and a request id shared by every span of one operation. Spans stay in
memory and are written out once, when the run ends. Nothing here reaches
into the program: each span wraps a call into one layer's public function.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, rid=None):
        """Context manager timing one call; nests under the open span."""
        return self._span(name, rid) if self.enabled else nullcontext({})

    @contextmanager
    def _span(self, name: str, rid):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rid": rid,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, rid=None, **attrs):
        """Record a finished span with no parent (concurrent requests)."""
        if self.enabled:
            self.spans.append({
                "id": len(self.spans), "name": name, "parent": None,
                "rid": rid, "start": start, "end": end, **attrs,
            })

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) * 1000.0
                for s in self.spans if s["name"] == name]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, spans=self.spans)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")

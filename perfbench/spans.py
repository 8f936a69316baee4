"""In-memory spans around the benchmark's calls into tgtkit.

A span is ``(id, name, op, parent, start, end)`` with times from
``time.perf_counter``.  Spans of one operation share ``op``; ``parent`` is
the id of the span that was open when this one started, or ``None``.
Nothing is written until the run ends (:meth:`Tracer.write`).
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    op = None

    def call(self, name, fn, *args):
        return fn(*args)

    @contextmanager
    def span(self, name):
        yield


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [sid, name, self.op, parent, perf_counter(), None]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record[5] = perf_counter()
            self._open.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, name, _, _, start, end in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time (total minus the
        time covered by direct children)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, _, _, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, op, parent, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "op": op, "parent": parent,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

"""In-memory spans recorded around calls into the library's layers.

Spans are kept in a list while the traced run executes and written out once,
into the benchmark's own result file, when it ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    point: int | None


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.point: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                 self.workload, self.point)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    def span(self, name: str):
        return nullcontext()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the parent, so overlapping children are not counted twice)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def per_call_medians(spans: list[Span], selft: dict[int, float]) -> dict[str, float]:
    """Name -> median over (point, pass) samples of the mean self time per
    call, in seconds.  Spans of one point and pass are grouped through their
    top-level ancestor, so repeated calls within a pass are averaged first."""
    by_id = {s.id: s for s in spans}

    def root(s: Span) -> int:
        while s.parent is not None:
            s = by_id[s.parent]
        return s.id

    groups: dict[tuple, list[float]] = defaultdict(list)
    for s in spans:
        groups[(s.name, root(s))].append(selft[s.id])
    samples: dict[str, list[float]] = defaultdict(list)
    for (name, _), vals in groups.items():
        samples[name].append(sum(vals) / len(vals))
    return {name: statistics.median(v) for name, v in samples.items()}

"""In-memory span recording around functions wrapped from outside.

A span is (name, start, end, parent): parent is the index of the span
that was open when this one began, or None at the root.  The benchmark
runs one program at a time on one thread, so the open spans form a
stack and children of one parent never overlap.

Time spent in the recorder's own hooks (counters, matrix digests) gets
a span of its own, TRACE_HOOKS, so that it lands in no layer's self
time and the self times of all spans still add up to the root spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

TRACE_HOOKS = "trace.hooks"

Span = Tuple[str, float, float, Optional[int]]


class Recorder:
    """Collects spans and counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []     # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """fn inside a span; before(args, kwargs) and after(args, kwargs,
        result) run inside a TRACE_HOOKS span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                with self.span(TRACE_HOOKS):
                    before(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(TRACE_HOOKS):
                    after(args, kwargs, result)
            return result

        return wrapper

    def finished(self) -> List[Span]:
        return [tuple(s) for s in self.spans]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def per_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """calls, inclusive seconds and self seconds for each span name."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, parent), own in zip(spans, selfs):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += own
    return dict(out)


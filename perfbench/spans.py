"""In-memory span recorder used by the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.wrap` replaces a
public function or method with a wrapper that appends one
``(name, start, end, parent)`` tuple per call.  Every wrapped entry point is
synchronous, so even on an asyncio loop one call cannot interleave with
another and a plain stack gives each span its parent.  A layer's self time
is its span's duration minus the durations of its direct children.
:meth:`Tracer.overhead_s` prices what the recording itself added.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int]

#: Calls per timing sample, and samples, when pricing one recorded call.
_PROBE_CALLS = 20_000
_PROBE_SAMPLES = 7


def _noop(*args, **kwargs) -> None:
    return None


def _seconds_per_call(function: Callable) -> float:
    samples = []
    for _ in range(_PROBE_SAMPLES):
        start = time.perf_counter()
        for _ in range(_PROBE_CALLS):
            function(1, 2)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / _PROBE_CALLS


def recording_cost_s(kind: str) -> float:
    """Extra seconds one call costs when wrapped by ``Tracer.wrap`` or ``Tracer.count``.

    Times an active wrapped no-op against the bare one in this interpreter.
    """
    probe = Tracer()
    target = types.SimpleNamespace(call=_noop)
    getattr(probe, kind)(target, "call", "probe")
    probe.start()
    return max(0.0, _seconds_per_call(target.call) - _seconds_per_call(_noop))


class Tracer:
    """Span and counter recorder; nothing is recorded until :meth:`start`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self.active = False

    def start(self) -> None:
        """Drop anything recorded so far and begin recording."""
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self.active = True

    def stop(self) -> None:
        self.active = False

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # The bookkeeping of span() inlined: a context manager would add about
        # a microsecond to each of the daemon's several wrapped calls per request.
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)  # reserve the slot so children point at it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        setattr(owner, attribute, traced)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            spans[index] = (name, start, time.perf_counter(), parent)
            stack.pop()

    def count(self, owner: object, attribute: str, name: str) -> None:
        """Count calls of ``owner.attribute`` without recording spans.

        For calls made hundreds of times per operation (a span each would
        distort the layer it sits in).
        """
        original = getattr(owner, attribute)
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self.active:
                counters[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attribute, counted)

    def overhead_s(self) -> float:
        """Seconds the recording added to what was recorded since :meth:`start`:
        the spans and counted calls times the extra cost of one of each."""
        spans = len(self.spans)
        counted = sum(self.counters.values())
        return spans * recording_cost_s("wrap") + counted * recording_cost_s("count")

    def summary(self, root_filter: Optional[Callable[[str], bool]] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        ``root_filter`` keeps only spans whose outermost ancestor's name
        passes it (e.g. registry reads issued by the hit pass only).
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        roots: List[str] = []
        if root_filter is not None:
            for name, _start, _end, parent in spans:
                roots.append(name if parent < 0 else roots[parent])
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _parent) in enumerate(spans):
            if root_filter is not None and not root_filter(roots[index]):
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)

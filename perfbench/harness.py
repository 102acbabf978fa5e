"""Closed-loop timing, span tracing and the statistics the benchmark reports.

Standard library only, so the arithmetic can be tested without numpy and
the timer can start before numpy is imported.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class CheckFailed(Exception):
    """An op completed but its output failed the workload's correctness check."""


def tail_percentile(samples, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: the sample of rank k = n - beyond in
    ascending order (1-based), at percentile 100 k / n. Returns None when
    there are too few samples for such a rank to exist.
    """
    xs = sorted(samples)
    k = len(xs) - beyond
    if k < 1:
        return None
    return 100.0 * k / len(xs), xs[k - 1]


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


@dataclass
class Span:
    """One call into a traced function, with the op it belonged to."""

    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    failed: bool = False
    args: tuple = ()
    result: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def unattributed(spans, start: float, end: float) -> float:
    """Part of an op's interval [start, end] that no top-level span covers."""
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return (end - start) - covered(top, start, end)


class Tracer:
    """Records spans from wrapped functions while a traced op runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._op = None

    def wrap(self, name: str, fn):
        """Wrapper that records a span named ``name`` around each call."""

        def traced(*args, **kwargs):
            span = Span(
                op=self._op,
                id=len(self.spans),
                parent=self._stack[-1] if self._stack else None,
                name=name,
                start=0.0,
                args=args,
            )
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = self.clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()

        return traced

    @contextmanager
    def op(self, op_id: int, bindings):
        """Trace one op: install every (module, attribute, wrapper) binding,
        run the body, then restore the original attributes."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in bindings]
        self._op = op_id
        for mod, attr, wrapper in bindings:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
            self._op = None

    def take(self) -> list:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def bindings_for(tracer: Tracer, targets, modules) -> list:
    """Rebind each traced function wherever it is reachable by name.

    ``targets`` holds (defining module, function name, span name). The
    wrapper replaces the function in its own module and in every module of
    ``modules`` that imported it by name, so calls made from inside the
    library are traced as well as the benchmark's own calls.
    """
    out = []
    for home, attr, name in targets:
        original = getattr(home, attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                out.append((mod, attr, wrapper))
    return out


@dataclass
class LoopResult:
    """What a closed loop measured: per-op intervals and outcomes."""

    intervals: list = field(default_factory=list)  # (op id, start, end, ok)
    errors: list = field(default_factory=list)  # recon error of each passing op
    attempted: int = 0
    failed: int = 0

    @property
    def window(self) -> float:
        """Seconds spent inside timed ops, passing or not."""
        return sum(end - start for _, start, end, _ in self.intervals)

    def op_seconds(self, ops=None) -> list:
        """Wall seconds of each passing op, optionally only of op ids in ``ops``."""
        return [
            end - start
            for i, start, end, ok in self.intervals
            if ok and (ops is None or i in ops)
        ]


def run_loop(make_input, run, check, seconds: float, min_ops: int,
             after=None) -> LoopResult:
    """One client, closed loop: each op starts after the last has ended.

    Op i = 1, 2, ... (0 is the warm-up) gets ``make_input(i)`` (untimed), then ``run(i, inp)`` is timed,
    then ``after(i, start, end)`` (untimed, also when run raised) and
    ``check(inp, out)``, which returns the op's reconstruction error or
    raises. Ops run until ``seconds`` of timed op time and ``min_ops``
    attempts have accumulated. An op that raises or fails its check counts
    as failed and is never dropped.
    """
    res = LoopResult()
    timed = 0.0
    i = 1
    while timed < seconds or res.attempted < min_ops:
        inp = make_input(i)
        res.attempted += 1
        start = time.perf_counter()
        try:
            out = run(i, inp)
            raised = None
        except Exception as exc:  # a failing op is counted, not fatal
            raised = exc
        end = time.perf_counter()
        timed += end - start
        if after is not None:
            after(i, start, end)
        if raised is None:
            try:
                res.errors.append(check(inp, out))
            except Exception as exc:  # a failed check is counted the same way
                raised = exc
        if raised is not None:
            print(f"op {i} failed: {type(raised).__name__}: {raised}", file=sys.stderr)
            res.failed += 1
        res.intervals.append((i, start, end, raised is None))
        i += 1
    return res

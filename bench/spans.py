"""Spans around the benchmark's own calls into srtlab's layers.

A layer is a srtlab module.  Every call the benchmark makes into a
layer goes through ``call``; with tracing off that is a plain call.
With tracing on, ``Tracer`` records a span (op id, span id, parent span,
name, start, end) and keeps counts taken at the same boundaries, all in
memory until the run writes them out.
"""

import time


class NoTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, amount):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []      # [op, span, parent, name, start, end]
        self.counts = {}     # op -> {key: total}
        self.op = None
        self._open = []

    def begin_op(self, op_id):
        self.op = op_id
        self.counts[op_id] = {}

    def call(self, name, fn, *args, **kwargs):
        """Span ``name`` ("layer.function") around ``fn(*args)``."""
        parent = self._open[-1] if self._open else None
        span = [self.op, len(self.spans), parent, name, 0.0, 0.0]
        self.spans.append(span)
        self._open.append(span[1])
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._open.pop()

    def count(self, key, amount):
        counts = self.counts.setdefault(self.op, {})
        counts[key] = counts.get(key, 0) + amount

    def timed(self, name, fn, *args, **kwargs):
        """Like ``call``; returns (result, raw seconds of the span)."""
        index = len(self.spans)
        result = self.call(name, fn, *args, **kwargs)
        span = self.spans[index]
        return result, span[5] - span[4]


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Spans nest on one thread, so children never overlap each other.
    """
    own = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[5] - s[4]
    return own


def roots(spans):
    """Span id -> id of the root span that contains it."""
    root = {}
    for s in spans:  # parents are recorded before their children
        root[s[1]] = s[1] if s[2] is None else root[s[2]]
    return root

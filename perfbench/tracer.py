"""Outside-in span tracer for the multipod package.

The tracer never edits the package. It replaces public callables (module
functions and class methods) with wrappers that record a span around each
call, and restores the originals on ``uninstall``. A tensor op's result also
carries a backward closure; the op wrapper swaps that closure for one that
records its own span, so backward time is attributed per op.

Spans stay in memory as tuples ``(id, parent, name, start, end, self, attrs)``
and are written out once, at the end of a run. Self time is the span's
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.absent = []
        self._stack = []
        self._next_id = 1
        self._patches = []

    # -- span recording -------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1][0] if self._stack else 0
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, parent, name, self.clock(), 0.0])

    def end(self, attrs=None):
        t = self.clock()
        sid, parent, name, start, child = self._stack.pop()
        dur = t - start
        if self._stack:
            self._stack[-1][4] += dur
        self.spans.append((sid, parent, name, start, t, dur - child, attrs))

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr, name, make_wrapper):
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def wrap_call(self, owner, attr, name):
        """Record one span per call of ``owner.attr``."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end()
            return wrapper
        self._patch(owner, attr, name, make)

    def wrap_op(self, module, op, describe=None):
        """Record ``tensor.<op>.fwd`` per call and ``tensor.<op>.bwd`` per run
        of the backward closure the result carries. ``describe(args, kwargs,
        out)`` returns (fwd_attrs, bwd_attrs) for the two spans."""
        fwd_name, bwd_name = f"tensor.{op}.fwd", f"tensor.{op}.bwd"
        def make(fn):
            def wrapper(*args, **kwargs):
                self.begin(fwd_name)
                attrs = None
                try:
                    out = fn(*args, **kwargs)
                    closure = getattr(out, "_backward", None)
                    bwd_attrs = None
                    if describe is not None:
                        attrs, bwd_attrs = describe(args, kwargs, out)
                    # an op that returns one of its inputs made no node of its own
                    if closure is not None and not any(out is a for a in args):
                        out._backward = self._closure(closure, bwd_name, bwd_attrs)
                    return out
                finally:
                    self.end(attrs)
            return wrapper
        self._patch(module, op, f"tensor.{op}", make)

    def _closure(self, closure, name, attrs):
        def traced_backward(g):
            self.begin(name)
            try:
                return closure(g)
            finally:
                self.end(attrs)
        return traced_backward

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def aggregate(spans):
    """name -> [calls, inclusive seconds, self seconds]."""
    out = {}
    for _, _, name, start, end, self_s, _ in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += self_s
    return out

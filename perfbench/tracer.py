"""In-memory span tracer that wraps glcarleman's public functions from outside.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span (``-1`` for the root).  Spans stay in memory and are reduced
to per-layer totals only when the traced run ends.

Modules bind imported names at import time (``from .grid import laplacian``),
so wrapping a function in its defining module is not enough: ``patch``
replaces every binding of the original object in every loaded
``glcarleman`` module.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def exit(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, fn, name, on_result=None, when=None):
        """Return ``fn`` recording a span ``name`` around each call.

        ``when(*args, **kwargs)`` may veto the span for a call; ``on_result``
        sees the arguments and the result, to update ``counts``.
        """

        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def layers(self):
        """``{name: {"total": s, "self": s, "calls": n, "durations": [...]}}``.

        Self time is a span's duration minus the durations of its direct
        children.  A layer's total counts only its outermost spans, so a span
        nested in another span of the same layer is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            lay = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0,
                                        "durations": []})
            lay["self"] += dur - child_time[i]
            lay["calls"] += 1
            lay["durations"].append(dur)
            if not self._has_ancestor(parent, name):
                lay["total"] += dur
        return out

    def _has_ancestor(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def patch(original, wrapper, prefix="glcarleman"):
    """Rebind every module-level reference to ``original`` under ``prefix``."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
                hits += 1
    if hits == 0:
        raise LookupError(f"{original!r} is bound nowhere under {prefix}")
    return hits

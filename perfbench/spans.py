"""Spans and counts recorded from outside the program.

A layer is measured by replacing one of its public functions with a wrapper.
Several openteam modules import those functions by name
(``from .model import embed_rows``), so replacing the attribute on the
defining module is not enough: :func:`rebind` also swaps every other loaded
``openteam`` module attribute that still refers to the original object.

Spans are kept in memory as ``[name, start, end, parent]`` lists and written
once when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

clock = time.perf_counter


def rebind(owner, attr, make_wrapper):
    """Replace ``owner.attr`` with ``make_wrapper(original)`` everywhere.

    Returns False (and changes nothing) when ``owner`` has no such attribute,
    so a renamed layer leaves its metric at zero instead of breaking the run.
    """
    original = getattr(owner, attr, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "openteam" or name.startswith("openteam.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return True


class Tracer:
    """Nested spans plus named counters for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def wrap(self, name, fn, count=None):
        """A wrapper recording one span per call; ``count(args, kwargs,
        result, counts)`` may add to the counters after the call returns."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result, counts)
            return result

        return wrapper

    def counter(self, name, fn):
        """A wrapper that only counts calls (for functions too hot for spans)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def window(self, t0, t1):
        """Total and self time per span name over spans starting in [t0, t1).

        Self time is a span's duration minus the time of its direct children.
        """
        child = Counter()
        inside = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if t0 <= start < t1:
                inside.append(i)
                if parent >= 0:
                    child[parent] += end - start
        total, own = Counter(), Counter()
        for i in inside:
            name, start, end, _ = self.spans[i]
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def calls(self, name):
        """Durations of every span with this name (any time)."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path, origin):
        """Spans as ``[name index, start_s, end_s, parent]`` relative to
        ``origin``, with the name table."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[n], round(s - origin, 9), round(e - origin, 9), p]
            for n, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))

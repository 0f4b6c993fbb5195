"""Span tracer that wraps coopstore's layer functions from outside.

A span covers one call of a wrapped function.  Its self time is its
duration minus the durations of the spans it encloses, so the self times
of all spans add up to at most the wall time of the outermost ones.  Spans
are aggregated per name as they close (calls, inclusive and self seconds)
instead of being kept one by one: a 64 KiB file pass opens several hundred
thousand of them.

A function is rebound at every place it is bound: in every loaded
``coopstore`` module namespace and in every coopstore class dictionary
that holds the same object.  That covers by-name imports such as
``from .entropy import entropy_symbols`` in ``eve`` and ``secure``, and
class aliases such as ``Mat.__matmul__ = mul``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.reset()
        self._patches = []

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []

    # ---- wrappers ----------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """Wrap fn in a span.  name is a string or a function of the call's
        positional arguments; on_result(counts, args, result) records counts."""
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                tracer.calls[label] += 1
                tracer.total_s[label] += dur
                tracer.self_s[label] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return wrapper

    def counter(self, name, fn, on_result=None):
        """Wrap fn to count its calls (and optional counts) without a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.calls[name] += 1
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return wrapper

    # ---- installation --------------------------------------------------------

    def install(self, original, wrapper) -> int:
        """Rebind original to wrapper everywhere coopstore binds it."""
        bound = 0
        for owner in _coopstore_namespaces():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original!r} is not bound anywhere in coopstore")
        return bound

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_sum(self) -> float:
        return sum(self.self_s.values())


def _coopstore_namespaces():
    """Every loaded coopstore module plus every class defined in one."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "coopstore" or name.startswith("coopstore.")):
            continue
        out.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                out.append(value)
    return out

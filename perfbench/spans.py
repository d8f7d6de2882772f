"""Spans around grapy's public functions, patched in from outside the package.

Every wrapper is installed on the module or class where the caller looks the
name up (``grapy.model.pyramid_forward``, not ``grapy.pyramid.pyramid_forward``)
and removed again by ``restore``, last patch first. Spans stay in memory as
``(name, start_ns, end_ns, parent_index)``; self time is a span's duration
minus the durations of its direct children (calls are nested: one thread).
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter_ns


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    """Records one span per call of every wrapped function, plus counters."""

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._level: list = [None]

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, parent of what runs inside."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, level_arg: int | None = None,
             per_level: bool = False, sets_level: bool = False, after=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``level_arg`` names the positional argument holding the pyramid level;
        ``per_level`` takes the level from the enclosing ``sets_level`` span.
        ``after(args, kwargs, result)`` runs once the call returned.
        """
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                level = tracer._level[-1]
                if level_arg is not None:
                    level = kwargs.get("level", args[level_arg] if len(args) > level_arg else None)
                span = f"{name}.l{level if level is not None else 0}" if (
                    level_arg is not None or per_level) else name
                if sets_level:
                    tracer._level.append(level)
                idx = tracer._open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    if sets_level:
                        tracer._level.pop()
                if after is not None:
                    after(args, kwargs, result)
                return result
            return traced

        self.patch(owner, attr, make)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Trace the time each ``next`` on the returned generator waits."""
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            return traced

        self.patch(owner, attr, make)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for (name, t0, t1, _), kids in zip(self.spans, child_ns):
            row = out[name]
            row["calls"] += 1
            row["ms"] += (t1 - t0) / 1e6
            row["self_ms"] += (t1 - t0 - kids) / 1e6
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, name, start_ns, end_ns, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\n")

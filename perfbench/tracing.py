"""In-memory span tracer that wraps public functions from the outside.

The benchmark's traced run installs :class:`Tracer` wrappers around the
public entry points of each layer (``ControlPlane.run_round``,
``SessionManager.step``, ``AuditLog.append``, ...).  Every call records
one span ``(name, start_ns, end_ns, parent)``; spans stay in memory and
are written out as JSON lines when the run ends.  Nothing in ``src/``
changes: :meth:`Tracer.restore` puts every original attribute back.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans add up exactly to the duration
of the top-level spans.  The *bucket* of a span is its name; a layer's
self time is the sum over its bucket(s).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

_now = time.perf_counter_ns


class Tracer:
    """Collects spans from wrapped callables and ``span()`` blocks."""

    def __init__(self):
        #: ``[name, start_ns, end_ns, parent_index]`` (parent -1 = top level)
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _now()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def traced(self, fn, name: str):
        """``fn`` wrapped so that every call records a span ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (a class or module) until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper recording spans ``name``."""
        self.patch(owner, attr, self.traced(owner.__dict__[attr], name))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def top_level_ns(self) -> int:
        """Summed duration of the top-level spans (the traced wall)."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent == -1)

    def self_ns(self) -> dict:
        """Bucket name -> summed self time (ns)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0) + (end - start) - child_ns[index]
        return totals

    def inclusive_ns(self) -> dict:
        """Bucket name -> summed duration of its outermost spans (ns).

        A span nested (at any depth) inside another span of the same
        name is not counted again.
        """
        totals: dict = {}
        for name, start, end, parent in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                totals[name] = totals.get(name, 0) + end - start
        return totals

    def counts(self) -> dict:
        """Bucket name -> number of spans."""
        totals: dict = {}
        for name, *_ in self.spans:
            totals[name] = totals.get(name, 0) + 1
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line ``[name, start, end, parent]``."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")

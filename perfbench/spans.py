"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the recorder replaces a
function at the module attribute its callers look it up by, so the
program itself is not edited. A span holds its run id, name, start, end,
parent span and thread. Spans opened on a worker thread with nothing open
on that thread take the innermost span open on the thread that started
the recorder as their parent (the search fans blocks out to a thread pool
while the main thread waits inside it).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    run_id: str
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._open = {}  # thread ident -> stack of open span ids
        self._patched = []

    @contextmanager
    def span(self, name):
        thread = threading.get_ident()
        stack = self._open.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._open.get(self._main)
            parent = main_stack[-1] if main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(self.run_id, span_id, name, start, end, parent, thread))

    def wrap(self, owner, attr, name):
        """Record a span around every call of ``owner.attr``; returns False
        when the attribute does not exist (the layer was renamed or removed)."""
        original = getattr(owner, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))
        return True

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def children(self, span):
        return [s for s in self.spans if s.parent == span.span_id]

    def write(self, path):
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


def self_time(span, children):
    """Span duration minus the time the union of its children covers
    (children on worker threads may overlap each other)."""
    pieces = sorted((max(span.start, c.start), min(span.end, c.end)) for c in children)
    covered = 0.0
    reach = span.start
    for lo, hi in pieces:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


@contextmanager
def counting(cls, names):
    """Count calls of the given methods of ``cls``; yields the tally dict.

    Each name is wrapped on its own, because an alias such as
    ``__radd__ = __add__`` is bound when the class is created and would
    not see a wrapper installed on the other name.
    """
    tally = dict.fromkeys(names, 0)
    originals = {name: cls.__dict__[name] for name in names if name in cls.__dict__}

    def make(name, original):
        def counted(*args):
            tally[name] += 1
            return original(*args)
        return counted

    for name, original in originals.items():
        setattr(cls, name, make(name, original))
    try:
        yield tally
    finally:
        for name, original in originals.items():
            setattr(cls, name, original)

"""In-memory span tracer that wraps the program's entry points from outside.

The tracer never edits the program: :meth:`Tracer.patch` swaps a class or
module attribute for a wrapper that records one span per call and
:meth:`Tracer.restore` puts every original back.  Each span records its
name, start, end, parent span and thread; spans stay in memory until the
run ends and :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

_MISSING = object()


class Span(NamedTuple):
    """One traced call.

    A tuple of plain numbers and strings, so the garbage collector stops
    tracking it and a long trace does not slow every collection down.
    """

    id: int
    parent: int
    thread: int
    name: str
    start: float
    end: float
    nbytes: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, nbytes=None, on_exit=None):
        """``func`` wrapped to record a span named ``name`` per call.

        ``nbytes(args, result)`` sizes the call's payload;
        ``on_exit(args, kwargs, result)`` sees every completed call.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                spans.append(Span(sid, parent, ident(), name, start, clock(), 0))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            size = 0 if nbytes is None else nbytes(args, result)
            spans.append(Span(sid, parent, ident(), name, start, end, size))
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, nbytes=None, on_exit=None):
        """Replace ``owner.attr`` (class or module) by a traced wrapper."""
        own = vars(owner).get(attr, _MISSING)
        if isinstance(own, classmethod):
            replacement = classmethod(
                self.wrap(own.__func__, name, nbytes, on_exit)
            )
        else:
            replacement = self.wrap(getattr(owner, attr), name, nbytes, on_exit)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = defaultdict(float)
        for span in self.spans:
            if span.parent:
                child[span.parent] += span.duration
        return {s.id: s.duration - child[s.id] for s in self.spans}

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")

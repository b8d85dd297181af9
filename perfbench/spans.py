"""In-memory span recorder for the traced benchmark run.

The benchmark wraps calls into the program's public functions from the
outside: :meth:`Tracer.wrap_function` replaces a function at every
``repro.*`` module attribute that holds it, so the wrapper fires at the
name each caller looks up (``repro.core.candidate_selection`` imports
``select_keywords_greedy`` by name, for instance), and
:meth:`Tracer.wrap_method` replaces a method on its class.  Spans are
kept in memory (name, start, end, parent, request id, thread) and
written out once, as Chrome trace-event JSON, when the run ends.

Spans opened in forked pool workers stay in those workers; layers that
run there are read from the program's own counters instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: object
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans plus call counters, recorded around wrapped calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, request=None):
        """Run ``fn`` inside a span named ``name``.

        A span without its own ``request`` inherits its parent's, so
        every span under one flush shares the flush's request id.
        """
        if os.getpid() != self._pid:  # inside a forked worker: not recorded
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(
                    span_id, name, start, end,
                    parent[0] if parent is not None else None,
                    request, threading.get_ident(),
                ))
                self.calls[name] = self.calls.get(name, 0) + 1

    def record(self, name: str, start: float, end: float, request=None) -> None:
        """Add a finished span measured by the caller (e.g. across awaits)."""
        with self._lock:
            self.spans.append(Span(next(self._ids), name, start, end, None, request,
                                   threading.get_ident()))
            self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1

    # -- wrapping -------------------------------------------------------
    def _wrapper(self, name: str, fn, span: bool):
        tracer = self

        if span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.count(name)
                return fn(*args, **kwargs)
        return wrapper

    def wrap_function(self, module, attr: str, name: str, span: bool = True) -> None:
        """Wrap ``module.attr`` wherever a loaded ``repro`` module binds it."""
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, span)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(functools.partial(setattr, mod, key, original))

    def wrap_method(self, cls, attr: str, name: str, span: bool = True) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, original, span))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis -------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time its child spans cover.

        Children of one span never overlap (a thread runs one call at a
        time), so the covered time is the sum of the children.
        """
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span.duration - child_time.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": self._pid,
                "tid": span.thread,
                "args": {"id": span.span_id, "parent": span.parent,
                         "request": span.request},
            }
            for span in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

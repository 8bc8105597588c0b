"""Span tracer that wraps public calls of the simulator from outside.

Nothing under ``src/`` is changed: :meth:`Tracer.wrap` replaces a
function or method on its owner (a module or a class) with a wrapper
that records the call.  A wrapped call nested inside another wrapped
call is that call's child, so a call's self time is its duration minus
the time its wrapped children took.

Coarse calls (a scenario phase, one request, one BFS) are kept as full
spans: name, start, end, parent span and request id, in memory, and
written out by :meth:`Tracer.write_spans` when the worker exits.  Calls
made once per simulated event (``on_interest``, ``schedule``,
``link_between`` and the like) are only aggregated, with the same
self-time rule, because a traced flood sweep makes millions of them.
"""

from __future__ import annotations

import json
import time
from typing import Callable

clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.request = -1
        self._requests = 0
        self._stack: list[list[int]] = []  # [child_ns, span index or -1]

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def wrap(self, owner: object, attr: str, name: str, *, keep: bool = True,
             request: bool = False,
             on_result: Callable[[tuple, object], None] | None = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``keep`` stores a span per call; ``request`` gives each call a
        new request id that spans inside it inherit; ``on_result`` sees
        the call's arguments and result, for counters.
        """
        orig = getattr(owner, attr)
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0, -1]
            if keep:
                frame[1] = len(spans)
                spans.append(None)
            outer_request = tracer.request
            if request:
                tracer.request = tracer._requests
                tracer._requests += 1
            stack.append(frame)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    parent = stack[-1][1] if stack else -1
                    spans[frame[1]] = (name, start, end, parent, tracer.request)
                tracer.request = outer_request
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)

    def count_property(self, cls: type, attr: str, name: str) -> None:
        """Count reads of a property; its time stays in the caller's self time."""
        prop = getattr(cls, attr)
        getter = prop.fget
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(obj):
            counts[name] += 1
            return getter(obj)

        setattr(cls, attr, property(counted))

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def write_spans(self, path: str) -> None:
        """Spans as JSON: one [name, start_ns, end_ns, parent, request] row each."""
        rows = [list(span) for span in self.spans if span is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": rows}, fh, separators=(",", ":"))

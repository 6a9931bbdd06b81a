"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around public calls of the program from the
benchmark's own files: :meth:`Tracer.wrap` replaces a class attribute or
module function with a wrapper that opens a span around the original
call.  Nothing under ``src/`` is edited; :meth:`Tracer.restore` puts the
originals back.

Each span has a name, start and end (``perf_counter_ns``), a parent (the
innermost span open in the same thread) and a request id (the id of the
root span of its tree), so every span one request causes shares that
request's id.  Spans stay in memory until :meth:`Tracer.dump`.

A span's self time is its duration minus the part of it that its child
spans cover; within one root's tree the self times sum exactly to the
root's duration, which :func:`check_self_time_sums` verifies.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "SpanTable", "check_self_time_sums"]


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self, process: str = "main") -> None:
        self.process = process
        #: (id, parent, request, name, start_ns, end_ns) per closed span.
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        request = parent[1] if parent else span_id
        stack.append((span_id, request))
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, parent[0] if parent else None, request, name,
                     start, end)
                )

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing while the benchmark checks outputs, so the
        layer numbers cover only the work the workload measures."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- instrumentation ---------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Open span ``name`` around every call of ``owner.attr``.

        ``owner`` is a class or a module.  ``after(result, args, kwargs)``
        runs once the span has closed, to record counters.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._paused:
                return func(*args, **kwargs)
            with tracer.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def export(self) -> dict[str, Any]:
        with self._lock:
            return {
                "process": self.process,
                "spans": list(self.spans),
                "counters": dict(self.counters),
            }

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.export()))

    def table(self) -> "SpanTable":
        return SpanTable.merge(self.export())


class SpanTable:
    """Spans of one or more processes, with self times computed."""

    def __init__(
        self,
        spans: dict[str, list[tuple]],
        counters: dict[str, float],
    ) -> None:
        self.spans = spans
        self.counters = defaultdict(float, counters)
        self.self_ns: dict[tuple[str, int], int] = {}
        for process, rows in spans.items():
            children: dict[int, list[tuple[int, int]]] = defaultdict(list)
            for sid, parent, _req, _name, start, end in rows:
                if parent is not None:
                    children[parent].append((start, end))
            for sid, _parent, _req, _name, start, end in rows:
                covered = _union_ns(children.get(sid, ()), start, end)
                self.self_ns[(process, sid)] = (end - start) - covered

    @classmethod
    def merge(cls, *dumps: dict[str, Any]) -> "SpanTable":
        spans: dict[str, list[tuple]] = {}
        counters: dict[str, float] = defaultdict(float)
        for dump in dumps:
            spans[dump["process"]] = [tuple(s) for s in dump["spans"]]
            for key, value in dump["counters"].items():
                counters[key] += value
        return cls(spans, counters)

    def rows(self, name: str) -> list[tuple[str, tuple]]:
        return [
            (process, row)
            for process, rows in self.spans.items()
            for row in rows
            if row[3] == name
        ]

    def calls(self, name: str) -> int:
        return len(self.rows(name))

    def total_s(self, name: str) -> float:
        return sum(r[5] - r[4] for _, r in self.rows(name)) / 1e9

    def self_s(self, name: str) -> float:
        return sum(self.self_ns[(p, r[0])] for p, r in self.rows(name)) / 1e9

    def durations_ms(self, name: str) -> list[float]:
        return [(r[5] - r[4]) / 1e6 for _, r in self.rows(name)]

    def self_ms(self, name: str) -> list[float]:
        return [self.self_ns[(p, r[0])] / 1e6 for p, r in self.rows(name)]


def _union_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def check_self_time_sums(table: SpanTable) -> dict[str, Any]:
    """For every process, check that the self times of each root span's
    tree sum to the root's duration, and report the share of the roots'
    time that no layer span claimed (the roots' own self time)."""
    report: dict[str, Any] = {"ok": True}
    for process, rows in table.spans.items():
        tree_self: dict[int, int] = defaultdict(int)
        for sid, _parent, req, _name, _s, _e in rows:
            tree_self[req] += table.self_ns[(process, sid)]
        worst, root_ns, root_self_ns = 0.0, 0, 0
        for sid, parent, _req, _name, start, end in rows:
            if parent is not None:
                continue
            duration = end - start
            root_ns += duration
            root_self_ns += table.self_ns[(process, sid)]
            if duration > 0:
                worst = max(worst, abs(tree_self[sid] - duration) / duration)
        report[process] = {
            "max_relative_error": worst,
            "root_s": root_ns / 1e9,
            "unattributed_share": root_self_ns / root_ns if root_ns else 0.0,
        }
        report["ok"] = report["ok"] and worst <= 1e-9
    return report

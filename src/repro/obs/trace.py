"""Per-query trace spans: the engine's detailed (off-by-default) mode.

A :class:`Span` is a named timed interval with attributes; spans nest via
a ``contextvars`` current-span pointer, so a ``session.where`` span
started at the top of the engine automatically becomes the parent of the
``index.query`` span started three layers down, which in turn parents the
per-phase execute / overlay-correction / merge spans.  Budget decisions
attach their predicted :class:`~repro.core.cost_model.CostBreakdown` to
whatever span is current, so a tau miss is debuggable from the trace
alone.

Tracing is **disabled by default** and every instrumentation site guards
on ``tracer.enabled`` before doing any work, so the converged read path
pays one attribute read when it is off.  When on, finished spans land in
a bounded ring buffer (drained by the serve ``trace`` verb or
:meth:`Tracer.export_jsonl`) and, optionally, stream to a JSON-lines
sink file.

Spans also nest across threads: a task submitted with a copy of the
caller's :mod:`contextvars` context (as the shard executor's thread pool
does) starts its spans under the caller's current span, in the same trace.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = ["Span", "Tracer"]

_ids = itertools.count(1)


def _new_id() -> str:
    return f"{os.getpid():x}-{next(_ids):x}"


class Span:
    """One named, timed interval in a trace tree."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_wall",
                 "_t0", "duration", "attrs", "_tracer", "_token")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: str | None, attrs: dict | None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.start_wall = time.time()
        self._t0 = time.perf_counter()
        self.duration = None
        self.attrs = dict(attrs) if attrs else {}
        self._tracer = tracer
        self._token = None

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def rename(self, name: str) -> "Span":
        self.name = name
        return self

    def add_decision(self, decision: dict) -> None:
        """Attach one budget-policy delta decision to this span."""
        self.attrs.setdefault("decisions", []).append(decision)

    def end(self) -> None:
        self.duration = time.perf_counter() - self._t0
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self.end()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start_wall,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared no-op span for disabled tracing; supports the full Span API."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    duration = None
    attrs: dict = {}

    def set(self, **attrs):
        return self

    def rename(self, name):
        return self

    def add_decision(self, decision):
        pass

    def end(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def __bool__(self):
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory, current-span context, ring buffer and JSONL export."""

    def __init__(self, enabled: bool = False, buffer_size: int = 4096):
        self.enabled = bool(enabled)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "repro_obs_span", default=None
        )
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=buffer_size)
        self._sink_path: str | None = None
        self._sink = None

    # -- configuration ----------------------------------------------------

    def configure(self, *, enabled: bool | None = None,
                  buffer_size: int | None = None,
                  sink_path: str | None | bool = False) -> None:
        """Toggle tracing, resize the ring, or (re)point the JSONL sink.

        ``sink_path=None`` closes the sink; the ``False`` default leaves
        it untouched.
        """
        with self._lock:
            if enabled is not None:
                self.enabled = bool(enabled)
            if buffer_size is not None:
                self._ring = deque(self._ring, maxlen=int(buffer_size))
            if sink_path is not False:
                if self._sink is not None:
                    self._sink.close()
                    self._sink = None
                self._sink_path = sink_path
                if sink_path:
                    self._sink = open(sink_path, "a", encoding="utf-8")

    # -- span lifecycle ---------------------------------------------------

    def current(self) -> Span | None:
        return self._current.get()

    def start(self, name: str, attrs: dict | None = None) -> Span:
        """Start a span as a child of the current one and make it current.

        Callers must balance with :meth:`Span.end` (or use :meth:`span`).
        Returns the shared no-op span when tracing is disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._current.get()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = _new_id(), None
        span = Span(self, name, trace_id, parent_id, attrs)
        span._token = self._current.set(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.start(name, attrs or None)
        try:
            yield span
        except BaseException as exc:
            if span is not NULL_SPAN:
                span.attrs["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end()

    def _finish(self, span: Span) -> None:
        if span._token is not None:
            try:
                self._current.reset(span._token)
            except ValueError:  # ended in a different context; best effort
                self._current.set(None)
            span._token = None
        record = span.to_dict()
        with self._lock:
            self._ring.append(record)
            if self._sink is not None:
                self._sink.write(json.dumps(record) + "\n")
                self._sink.flush()

    # -- export -----------------------------------------------------------

    def recent(self, limit: int | None = None) -> list[dict]:
        """Most recent finished spans, oldest first (non-destructive)."""
        with self._lock:
            records = list(self._ring)
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def drain(self) -> list[dict]:
        """Return and clear the ring buffer."""
        with self._lock:
            records = list(self._ring)
            self._ring.clear()
        return records

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def export_jsonl(self, path: str) -> int:
        """Append the ring's spans to ``path`` as JSON lines; returns count."""
        records = self.recent()
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return len(records)

"""Span-based structured tracing (stdlib-only).

A **span** is a named, timed region with attributes, a parent, and a
trace ID.  Spans form a tree per trace; the *current* span propagates
through a :mod:`contextvars` ``ContextVar``, so nested ``with
trace.span(...)`` blocks parent naturally — including across the
service's per-request handler threads, which each run in their own
context.

Like :mod:`repro.obs.metrics` this follows the
zero-overhead-uninstalled discipline: with no :class:`Tracer`
installed, :func:`span` returns a shared no-op context manager after a
single global read.

Finished spans accumulate in the installed tracer's bounded buffer as
plain dicts (``name``/``trace_id``/``span_id``/``parent_id``/
``start``/``duration``/``thread``/``attrs``); exporters
(:mod:`repro.obs.export`) turn the buffer into Chrome-trace JSON or a
self-time summary tree.  Tracing is execution-only: span attributes
never feed ``artifact_key()`` and compiled artifacts are byte-identical
with tracing on or off (pinned in ``tests/test_obs.py``).
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "active",
    "current",
    "current_trace_id",
    "install",
    "new_trace_id",
    "recording",
    "span",
    "uninstall",
]

_span_ids = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace ID (what the service mints per request
    when the client sends no ``X-Repro-Trace-Id``)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One open region.  Created by :func:`span`; closed by its
    ``with`` block, at which point it is recorded into the tracer."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start", "attrs", "_tracer", "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.start = time.perf_counter()
        self.attrs = attrs
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes after the fact (e.g. a result count)."""
        self.attrs.update(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"id={self.span_id}, parent={self.parent_id})"
        )


class Tracer:
    """A bounded buffer of finished spans.

    ``max_spans`` guards a long-lived daemon against unbounded growth:
    past the cap, new finishes are dropped and counted in
    :attr:`dropped` (the exporter surfaces the drop count rather than
    silently truncating).
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._finished: List[Dict[str, Any]] = []

    def record(self, span: Span, duration: float) -> None:
        entry = {
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span.start,
            "duration": duration,
            "thread": threading.get_ident(),
            "attrs": dict(span.attrs),
        }
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.dropped += 1
                return
            self._finished.append(entry)

    def finished(self) -> List[Dict[str, Any]]:
        """A snapshot copy of the finished-span dicts, start-ordered."""
        with self._lock:
            spans = list(self._finished)
        spans.sort(key=lambda s: s["start"])
        return spans

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self.dropped = 0


# ---------------------------------------------------------------------------
# Installed-tracer module state + the contextvar current span
# ---------------------------------------------------------------------------

_active: Optional[Tracer] = None
_install_lock = threading.Lock()

_current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def active() -> Optional[Tracer]:
    """The installed tracer (``None`` = tracing off, the default)."""
    return _active


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Install a tracer process-wide (a fresh one when omitted).

    Exactly one may be active; re-installing the already-active tracer
    is a no-op, installing over a different one raises.
    """
    global _active
    with _install_lock:
        if tracer is None:
            tracer = _active if _active is not None else Tracer()
        if _active is not None and _active is not tracer:
            raise RuntimeError(
                "a Tracer is already installed; uninstall() it first "
                "(tracers do not nest)"
            )
        _active = tracer
        return tracer


def uninstall() -> None:
    global _active
    with _install_lock:
        _active = None


@contextmanager
def recording(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of a ``with`` block."""
    installed = install(tracer)
    try:
        yield installed
    finally:
        uninstall()


def current() -> Optional[Span]:
    """The current span in this context (``None`` outside any span or
    with tracing off)."""
    if _active is None:
        return None
    return _current.get()


def current_trace_id() -> Optional[str]:
    span_obj = current()
    return span_obj.trace_id if span_obj is not None else None


class _NoopSpan:
    """The shared do-nothing span handle returned when tracing is off.

    Supports the same surface a real span's ``with`` body uses
    (``.set(**attrs)``), so instrumented code never branches."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NOOP = _NoopSpan()


class _SpanContext:
    """The context manager :func:`span` returns when tracing is on."""

    __slots__ = ("_span",)

    def __init__(self, span_obj: Span) -> None:
        self._span = span_obj

    def __enter__(self) -> Span:
        self._span._token = _current.set(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        span_obj = self._span
        duration = time.perf_counter() - span_obj.start
        if span_obj._token is not None:
            _current.reset(span_obj._token)
            span_obj._token = None
        if exc_type is not None:
            span_obj.attrs.setdefault("error", exc_type.__name__)
        span_obj._tracer.record(span_obj, duration)


def span(name: str, trace_id: Optional[str] = None, **attrs: Any):
    """Open a span under the current one (context manager).

    With no tracer installed this is one global read and a shared
    no-op handle.  ``trace_id`` forces the trace (the service passes
    the client-supplied ``X-Repro-Trace-Id`` here for the request root
    span); omitted, the span joins the current span's trace, or mints
    a fresh trace ID when it is a root.
    """
    tracer = _active
    if tracer is None:
        return _NOOP
    parent = _current.get()
    if trace_id is None:
        trace_id = parent.trace_id if parent is not None else new_trace_id()
    parent_id = parent.span_id if parent is not None else None
    return _SpanContext(Span(tracer, name, trace_id, parent_id, attrs))

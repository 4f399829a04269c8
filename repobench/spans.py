"""The benchmark's own span recorder.

Spans are recorded from the benchmark's side only, around calls into the
public entry points of each layer; ``repro.obs`` is never installed, so a
traced op runs the same program path as an untraced one.  Spans stay in
memory and are written once, at exit, as a Chrome trace document that
``python -m repro trace summarize`` (and Perfetto) can read.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.export import format_summary, summarize, validate_chrome_trace

__all__ = ["Recorder", "Span"]

_now = time.perf_counter


class Span:
    """One timed call: a context manager that appends itself on exit."""

    __slots__ = (
        "recorder", "name", "op", "parent", "ident", "start", "end", "attrs",
    )

    def __init__(self, recorder: "Recorder", name: str, op: str, parent):
        self.recorder = recorder
        self.name = name
        self.op = op
        self.parent: Optional[int] = parent
        self.ident = 0
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.ident = self.recorder._push(self)
        self.start = _now()
        return self

    def __exit__(self, *exc) -> None:
        self.end = _now()
        self.recorder._pop(self)


class Recorder:
    """Collects spans; one open-span stack per thread gives the parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        # next() on a count and list.append are atomic in CPython, so
        # client threads record without a lock.
        self._ids = itertools.count(1)

    def span(self, name: str, op: str = "") -> Span:
        stack = getattr(self._local, "stack", None)
        parent = stack[-1] if stack else None
        return Span(
            self,
            name,
            op or (parent.op if parent is not None else ""),
            parent.ident if parent is not None else None,
        )

    def _push(self, span: Span) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)
        return next(self._ids)

    def _pop(self, span: Span) -> None:
        self._local.stack.pop()
        self.spans.append(span)

    # -- export ---------------------------------------------------------------

    def span_dicts(self) -> List[Dict[str, Any]]:
        """The ``repro.obs.export.summarize`` input shape."""
        return [
            {
                "name": s.name,
                "trace_id": s.op,
                "span_id": s.ident,
                "parent_id": s.parent,
                "start": s.start,
                "duration": s.seconds,
                "thread": 0,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]

    def chrome_trace(self) -> Dict[str, Any]:
        origin = min((s.start for s in self.spans), default=0.0)
        events = []
        for s in self.spans:
            args = {"trace_id": s.op, "span_id": s.ident}
            if s.parent is not None:
                args["parent_id"] = s.parent
            args.update(s.attrs)
            events.append({
                "name": s.name,
                "ph": "X",
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round(s.seconds * 1e6, 3),
                "pid": 1,
                "tid": 0,
                "cat": "repobench",
                "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repobench", "spans": len(events)},
        }

    def write(self, path: str) -> None:
        doc = self.chrome_trace()
        problems = validate_chrome_trace(doc)
        if problems:
            raise ValueError(f"invalid Chrome trace: {problems[:3]}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")

    def summary(self) -> str:
        """The self-time tree, aggregated by span name path."""
        return format_summary(summarize(self.span_dicts()))

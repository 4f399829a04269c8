"""Exporters: Prometheus text exposition, Chrome trace events, summaries.

Three consumers of the in-process observability state:

- :func:`prometheus_text` renders a :class:`~repro.obs.metrics.MetricsRegistry`
  in Prometheus text exposition format 0.0.4 (``# HELP`` / ``# TYPE``
  headers, ``_bucket{le=...}`` / ``_sum`` / ``_count`` series for
  histograms).  The daemon serves it on ``GET /metrics``.
- :func:`chrome_trace` / :func:`write_chrome_trace` convert a
  :class:`~repro.obs.trace.Tracer` buffer into Chrome trace event
  format (``"X"`` complete events, microsecond timestamps) — the JSON
  loads directly into Perfetto / ``chrome://tracing``.
  :func:`validate_chrome_trace` checks a parsed document against the
  schema (CI runs it on every traced compile).
- :func:`summarize` / :func:`format_summary` fold a span buffer into a
  per-name self-time breakdown tree (``repro trace summarize``).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import metrics as _metrics
from . import trace as _trace

__all__ = [
    "chrome_trace",
    "format_summary",
    "prometheus_text",
    "spans_from_chrome",
    "summarize",
    "validate_chrome_trace",
    "write_chrome_trace",
]


# ---------------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(items: Sequence[Tuple[str, str]]) -> str:
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + inner + "}"


def prometheus_text(registry: Optional[_metrics.MetricsRegistry] = None) -> str:
    """Render ``registry`` (default: the installed one) as Prometheus
    text exposition.  Deterministic: families sorted by name, series by
    label items, so the output is shape-pinnable."""
    if registry is None:
        registry = _metrics.active()
    lines: List[str] = []
    if registry is None:
        return "# no metrics registry installed\n"
    last_name = None
    for name, kind, label_items, metric, help_text in registry.collect():
        if name != last_name:
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            last_name = name
        if isinstance(metric, _metrics.Histogram):
            for bound, count in metric.bucket_counts():
                le_items = tuple(label_items) + (("le", _format_value(bound)),)
                lines.append(f"{name}_bucket{_labels_text(le_items)} {count}")
            lines.append(
                f"{name}_sum{_labels_text(label_items)} "
                f"{_format_value(metric.sum)}"
            )
            lines.append(f"{name}_count{_labels_text(label_items)} {metric.count}")
        else:
            value = (
                metric.value
                if isinstance(metric, (_metrics.Counter, _metrics.Gauge))
                else float(metric)
            )
            lines.append(
                f"{name}{_labels_text(label_items)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chrome trace event format (Perfetto-loadable)
# ---------------------------------------------------------------------------

_PID = 1  # one process; thread idents become tids


def chrome_trace(tracer: Optional[_trace.Tracer] = None) -> Dict[str, Any]:
    """The Tracer buffer as a Chrome trace event document.

    Spans become ``"X"`` (complete) events with microsecond ``ts`` /
    ``dur`` relative to the earliest span; each OS thread gets an
    ``"M"`` thread_name metadata event.  The document's top level is
    ``{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": ...}``.
    """
    if tracer is None:
        tracer = _trace.active()
    spans = tracer.finished() if tracer is not None else []
    events: List[Dict[str, Any]] = []
    threads = sorted({s["thread"] for s in spans})
    tids = {ident: i for i, ident in enumerate(threads)}
    for ident in threads:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tids[ident],
            "args": {"name": f"thread-{ident}"},
        })
    origin = min((s["start"] for s in spans), default=0.0)
    for s in spans:
        args = {
            "trace_id": s["trace_id"],
            "span_id": s["span_id"],
        }
        if s["parent_id"] is not None:
            args["parent_id"] = s["parent_id"]
        args.update(s["attrs"])
        events.append({
            "name": s["name"],
            "ph": "X",
            "ts": round((s["start"] - origin) * 1e6, 3),
            "dur": round(s["duration"] * 1e6, 3),
            "pid": _PID,
            "tid": tids[s["thread"]],
            "cat": "repro",
            "args": args,
        })
    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "spans": len(spans)},
    }
    if tracer is not None and tracer.dropped:
        doc["otherData"]["dropped_spans"] = tracer.dropped
    return doc


def write_chrome_trace(path: str, tracer: Optional[_trace.Tracer] = None) -> int:
    """Serialize :func:`chrome_trace` to ``path``; returns the span count."""
    doc = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return int(doc["otherData"]["spans"])


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a parsed Chrome trace document.

    Returns a list of problems (empty = valid).  This is the validator
    CI runs after every traced compile; it checks the top-level shape
    and, per event, the required keys and types for the phases the
    exporter emits (``"X"`` complete events and ``"M"`` metadata).
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if not isinstance(doc.get("otherData", {}), dict):
        problems.append("'otherData' must be an object")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing 'name'")
        if ph not in ("X", "M", "B", "E", "i"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: 'X' event needs non-negative {key!r}"
                    )
            args = event.get("args")
            if not isinstance(args, dict) or "trace_id" not in args:
                problems.append(f"{where}: 'X' event args need a trace_id")
    return problems


def spans_from_chrome(doc: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Recover :func:`summarize`-shaped span dicts from a Chrome trace
    document previously written by :func:`write_chrome_trace` (the
    ``repro trace summarize`` input path)."""
    spans: List[Dict[str, Any]] = []
    for event in doc.get("traceEvents", []):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args", {})
        spans.append({
            "name": event.get("name", "?"),
            "trace_id": args.get("trace_id", ""),
            "span_id": args.get("span_id"),
            "parent_id": args.get("parent_id"),
            "start": float(event.get("ts", 0)) / 1e6,
            "duration": float(event.get("dur", 0)) / 1e6,
            "thread": event.get("tid", 0),
            "attrs": args,
        })
    return spans


# ---------------------------------------------------------------------------
# Self-time summary tree
# ---------------------------------------------------------------------------


def summarize(spans: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Fold finished-span dicts into a name-keyed breakdown tree.

    Spans aggregate by (parent-path, name): every node carries
    ``name``, ``count``, ``total`` (wall seconds, summed over calls),
    ``self`` (total minus the children's totals), and ``children``
    (recursively, sorted by total descending).  Parenting uses the
    recorded ``parent_id`` links.
    """
    spans = list(spans)
    by_id = {s["span_id"]: s for s in spans}
    # name-path per span: walk parents (memoized)
    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(s: Mapping[str, Any]) -> Tuple[str, ...]:
        sid = s["span_id"]
        cached = paths.get(sid)
        if cached is not None:
            return cached
        parent = by_id.get(s["parent_id"]) if s["parent_id"] is not None else None
        path = (path_of(parent) if parent is not None else ()) + (s["name"],)
        paths[sid] = path
        return path

    # aggregate totals per path
    totals: Dict[Tuple[str, ...], Dict[str, float]] = {}
    for s in spans:
        node = totals.setdefault(path_of(s), {"count": 0, "total": 0.0})
        node["count"] += 1
        node["total"] += s["duration"]

    def build(prefix: Tuple[str, ...]) -> List[Dict[str, Any]]:
        depth = len(prefix) + 1
        here = [p for p in totals if len(p) == depth and p[:-1] == prefix]
        nodes = []
        for path in here:
            agg = totals[path]
            children = build(path)
            child_total = sum(c["total"] for c in children)
            nodes.append({
                "name": path[-1],
                "count": int(agg["count"]),
                "total": agg["total"],
                "self": max(0.0, agg["total"] - child_total),
                "children": children,
            })
        nodes.sort(key=lambda n: -n["total"])
        return nodes

    return build(())


def format_summary(tree: List[Dict[str, Any]], indent: str = "") -> str:
    """Render a :func:`summarize` tree as the ``repro trace summarize``
    text: one line per node, total / self milliseconds and call count."""
    lines: List[str] = []
    for node in tree:
        lines.append(
            f"{indent}{node['name']:<{max(1, 40 - len(indent))}} "
            f"total {node['total'] * 1e3:9.3f} ms  "
            f"self {node['self'] * 1e3:9.3f} ms  "
            f"calls {node['count']:>5}"
        )
        if node["children"]:
            lines.append(format_summary(node["children"], indent + "  "))
    return "\n".join(lines)

"""A thread-safe, process-wide metrics registry (stdlib-only).

Three metric kinds, all named under the ``repro_`` namespace with
optional Prometheus-style labels:

- :class:`Counter` — monotonically increasing (``_total`` suffix by
  convention);
- :class:`Gauge` — a value that can move both ways, with a
  :meth:`Gauge.set_max` high-water helper;
- :class:`Histogram` — log-bucketed observations (the bucket bounds
  grow geometrically, so one histogram spans microseconds to minutes
  with a handful of buckets) with a :meth:`Histogram.quantile`
  estimate.

A registry is a **store**, and everything that reports is a view of it.
The compile daemon owns one (``ServiceState.registry``): its handlers
increment counters and observe histograms at the one site where the
event happens, and ``/stats``, ``/health`` and ``/metrics`` render what
is stored.  Views read through :meth:`MetricsRegistry.series` and
:meth:`MetricsRegistry.value`, which never create a series — only a
writer binds a name to its kind, help and bucket bounds.

Code with no registry of its own writes to the **installed** one,
following the zero-overhead-uninstalled discipline of
:mod:`repro.faults`: instrumented sites call the module-level helpers
(:func:`inc` / :func:`observe` / :func:`count_health`), which are one
global read and an immediate return when no registry is installed.
Objects on a hot path (the simulator's plan cache) pre-resolve their
metric objects at construction time via :func:`active`.

:func:`count_health` is the one increment site of every pipeline
health counter.  A pipeline's report must work with nothing installed,
so the count lands in the dict the report is built from
(``PipelineReport.health``, ``ArtifactCache.health``) and, when a
registry is installed, in ``repro_pipeline_health_total`` as well.

Usage::

    from repro.obs import metrics

    registry = metrics.MetricsRegistry()
    with metrics.collecting(registry):
        ...  # instrumented code records into `registry`
    print(registry.snapshot())

Scrape-time **collectors** expose values derived from a structure that
is itself the store (the daemon's memo size, its uptime) and so have no
increment site: ``registry.register_collector(fn)`` registers a
callable returning an iterable of ``(name, kind, labels_dict, value,
help)`` samples evaluated at :meth:`MetricsRegistry.collect` time.  A
collector never re-exports a stored counter.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "active",
    "collecting",
    "count_health",
    "inc",
    "install",
    "observe",
    "uninstall",
]

# Log-bucketed bounds for latency histograms: powers of 4 from 100 µs
# to ~1.7 min.  Geometric growth keeps the bucket count small while
# resolving both a microsecond FDD op and a multi-second cold compile.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(
    0.0001 * (4 ** i) for i in range(11)
)

_LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, by: float = 1) -> None:
        if by < 0:
            raise ValueError(f"counters only go up; got inc({by})")
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """High-water update: keep the larger of the current and given
        values."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, by: float = 1) -> None:
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Log-bucketed observations with a running sum and count.

    ``bounds`` are the inclusive upper bucket bounds; observations above
    the last bound land in the implicit +Inf bucket.  ``bucket_counts``
    returns *cumulative* counts per bound (the Prometheus ``le``
    semantics), so the renderer never re-derives them.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_TIME_BUCKETS):
        ordered = tuple(float(b) for b in bounds)
        if not ordered or any(
            b <= a for a, b in zip(ordered, ordered[1:])
        ):
            raise ValueError(
                f"histogram bounds must be non-empty and strictly "
                f"increasing, got {bounds!r}"
            )
        self.bounds = ordered
        self._counts = [0] * (len(ordered) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def bucket_counts(self) -> Tuple[Tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count)`` pairs, +Inf last."""
        with self._lock:
            counts = list(self._counts)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative.append((bound, running))
        cumulative.append((float("inf"), running + counts[-1]))
        return tuple(cumulative)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated from the buckets, as PromQL's
        ``histogram_quantile`` does: linear within the bucket that holds
        the rank (the first bucket starts at 0), the last finite bound
        for a rank in the +Inf bucket, 0.0 when nothing was observed."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        buckets = self.bucket_counts()
        rank = q * buckets[-1][1]
        lower, below = 0.0, 0
        for bound, cumulative in buckets:
            if cumulative >= rank and cumulative > below:
                if bound == float("inf"):
                    return lower
                return lower + (bound - lower) * (rank - below) / (
                    cumulative - below
                )
            lower, below = bound, cumulative
        return 0.0  # nothing observed


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

# A scrape-time collector: yields (name, kind, labels, value, help).
CollectorFn = Callable[[], Iterable[Tuple[str, str, Mapping[str, Any], float, str]]]


class MetricsRegistry:
    """Namespaced metrics, one instance per (name, labelset).

    Thread-safe: creation races serialize on the registry lock, and the
    metric objects themselves lock their updates.  A name is bound to
    one kind forever — re-registering it as a different kind raises, so
    a ``repro_cache_loads_total`` counter can never silently become a
    gauge elsewhere in the process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, _LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._collectors: List[CollectorFn] = []

    # -- metric access ------------------------------------------------------

    def _get(
        self,
        kind: str,
        name: str,
        help: str,
        labels: Mapping[str, Any],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if type(metric) is not _KINDS[kind]:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{type(metric).__name__.lower()}, cannot re-register "
                    f"as a {kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                return metric
            bound_kind = self._kinds.get(name)
            if bound_kind is None:
                self._kinds[name] = kind
                if help:
                    self._help[name] = help
                if kind == "histogram":
                    self._buckets[name] = (
                        buckets if buckets is not None else DEFAULT_TIME_BUCKETS
                    )
            elif bound_kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{bound_kind}, cannot re-register as a {kind}"
                )
            elif help and name not in self._help:
                self._help[name] = help
            if kind == "histogram":
                metric = Histogram(self._buckets[name])
            else:
                metric = _KINDS[kind]()
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
        **labels,
    ) -> Histogram:
        return self._get("histogram", name, help, labels, buckets=buckets)

    def register_collector(self, collector: CollectorFn) -> None:
        """Add a scrape-time sample source (evaluated by :meth:`collect`)."""
        with self._lock:
            self._collectors.append(collector)

    # -- reading ------------------------------------------------------------

    def series(self, name: str) -> List[Tuple[Dict[str, str], object]]:
        """Every stored ``(labels, metric)`` of one name, sorted by
        labels; empty when nothing has written the name yet.  Read-only,
        like :meth:`value`: a view never creates a series."""
        with self._lock:
            found = [
                (label_items, metric)
                for (metric_name, label_items), metric in self._metrics.items()
                if metric_name == name
            ]
        return [(dict(items), metric) for items, metric in sorted(found)]

    def collect(self) -> List[Tuple[str, str, _LabelItems, object, str]]:
        """Every sample, collectors included:
        ``(name, kind, label_items, metric_or_value, help)`` sorted by
        name then labels.  Registry-owned entries carry the live metric
        object; collector entries carry a plain float value.
        """
        with self._lock:
            owned = [
                (name, self._kinds[name], label_items, metric,
                 self._help.get(name, ""))
                for (name, label_items), metric in self._metrics.items()
            ]
            collectors = list(self._collectors)
        samples: List[Tuple[str, str, _LabelItems, object, str]] = owned
        for collector in collectors:
            for name, kind, labels, value, help in collector():
                samples.append((name, kind, _label_key(labels), float(value), help))
        samples.sort(key=lambda s: (s[0], s[2]))
        return samples

    def snapshot(self) -> Dict[str, float]:
        """A flat ``{"name{k=v,...}": value}`` view (histograms appear
        as ``_count`` / ``_sum``) — the test/debug convenience."""
        out: Dict[str, float] = {}
        for name, kind, label_items, metric, _ in self.collect():
            suffix = (
                "{" + ",".join(f"{k}={v}" for k, v in label_items) + "}"
                if label_items
                else ""
            )
            if isinstance(metric, Histogram):
                out[f"{name}_count{suffix}"] = metric.count
                out[f"{name}_sum{suffix}"] = metric.sum
            elif isinstance(metric, (Counter, Gauge)):
                out[f"{name}{suffix}"] = metric.value
            else:
                out[f"{name}{suffix}"] = metric  # collector value
        return out

    def value(self, name: str, **labels) -> float:
        """The current value of one counter/gauge (0 when never touched)."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
        if metric is None:
            return 0.0
        return metric.value  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# The installed-registry module state (the faults.py discipline)
# ---------------------------------------------------------------------------

_active: Optional[MetricsRegistry] = None
_install_lock = threading.Lock()


def active() -> Optional[MetricsRegistry]:
    """The installed registry (``None`` = uninstalled, the default)."""
    return _active


def install(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install ``registry`` (a fresh one when omitted) process-wide.

    Installing over a *different* registry raises — exactly one may be
    active, like a :class:`~repro.faults.FaultPlan`; re-installing the
    already-active registry is an idempotent no-op (so a daemon and its
    launcher can both assert the same registry).
    """
    global _active
    with _install_lock:
        if registry is None:
            registry = _active if _active is not None else MetricsRegistry()
        if not isinstance(registry, MetricsRegistry):
            raise TypeError(
                f"install() wants a MetricsRegistry, got {type(registry).__name__}"
            )
        if _active is not None and _active is not registry:
            raise RuntimeError(
                "a MetricsRegistry is already installed; uninstall() it "
                "first (registries do not nest)"
            )
        _active = registry
        return registry


def uninstall() -> None:
    """Remove the installed registry (idempotent)."""
    global _active
    with _install_lock:
        _active = None


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of a ``with`` block."""
    installed = install(registry)
    try:
        yield installed
    finally:
        uninstall()


# ---------------------------------------------------------------------------
# Hot-path helpers: one global read when uninstalled
# ---------------------------------------------------------------------------


def inc(name: str, by: float = 1, help: str = "", **labels) -> None:
    """Increment a counter in the installed registry (no-op uninstalled)."""
    registry = _active
    if registry is not None:
        registry.counter(name, help, **labels).inc(by)


def observe(name: str, value: float, help: str = "", **labels) -> None:
    """Observe into a histogram in the installed registry."""
    registry = _active
    if registry is not None:
        registry.histogram(name, help, **labels).observe(value)


# The installed-registry series of every pipeline health counter.
HEALTH_METRIC = "repro_pipeline_health_total"
_HEALTH_HELP = (
    "Absorbed pipeline failure/recovery events (executor retries, "
    "cache integrity rejections and quarantines, swallowed cache "
    "errors), by health-counter name"
)


def count_health(health: Dict[str, int], counter: str) -> None:
    """Count one absorbed failure: in ``health``, the dict its
    pipeline's report is built from (a report works with nothing
    installed), and in the installed registry under
    :data:`HEALTH_METRIC`.  The one increment site of every pipeline
    health counter.
    """
    health[counter] = health.get(counter, 0) + 1
    registry = _active
    if registry is not None:
        registry.counter(HEALTH_METRIC, _HEALTH_HELP, counter=counter).inc()

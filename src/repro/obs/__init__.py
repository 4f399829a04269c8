"""Unified observability: metrics registry, structured tracing, exporters.

Three stdlib-only modules, all following the zero-overhead-uninstalled
discipline of :mod:`repro.faults` — with nothing installed, every
instrumented site costs one global (or pre-resolved attribute) check
and an immediate fall-through, pinned by the ``obs_overhead_noop``
bench lane:

- :mod:`repro.obs.metrics` — a thread-safe, process-wide registry of
  Counters, Gauges, and log-bucketed Histograms.  It unifies the
  previously ad-hoc counter mechanisms (pipeline ``health``, artifact
  cache hit/miss/integrity, executor retries, checker
  ``sequences_tried``, simulator plan-cache hits and heap-depth
  high-water) behind one namespaced API; the legacy report shapes
  (``PipelineReport.health``, ``ServiceStats``, checker attributes)
  are preserved as views.
- :mod:`repro.obs.trace` — span-based structured tracing with a
  contextvars-propagated current span, so each service handler thread
  parents its spans under its own request.
- :mod:`repro.obs.export` — a Prometheus text-exposition renderer
  (served by the daemon's ``GET /metrics``) and a Chrome-trace-event
  (Perfetto-loadable) JSON exporter with a self-time summarizer
  (``repro compile --trace`` / ``repro trace summarize``).

The rule (see ROADMAP): every new counter lands in ``obs.metrics``
under a ``repro_``-prefixed name — never a loose dict — and every new
latency-bearing code path gets a span.
"""

from . import export, metrics, trace

__all__ = ["export", "metrics", "trace"]

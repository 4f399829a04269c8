"""Unified observability: metrics registry, structured tracing, exporters.

Three stdlib-only modules, all following the zero-overhead-uninstalled
discipline of :mod:`repro.faults` — with nothing installed, every
instrumented site costs one global (or pre-resolved attribute) check
and an immediate fall-through, pinned by the ``obs_overhead_noop``
bench lane:

- :mod:`repro.obs.metrics` — a thread-safe registry of Counters,
  Gauges, and log-bucketed Histograms: the store.  The compile daemon
  writes every fact it reports into its registry once, where the event
  happens, and ``/stats``, ``/health`` and ``/metrics`` render it;
  pipeline, cache, executor, checker and simulator sites write to the
  installed registry when there is one.  A pipeline's ``report()`` must
  work with nothing installed, so ``PipelineReport.health`` and
  ``stage_seconds`` stay per-pipeline dicts, each with one writer
  (``count_health``, ``Pipeline._record_stage``) that also feeds the
  installed registry.
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

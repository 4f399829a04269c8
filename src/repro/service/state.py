"""Shared server state: pipeline memo, single-flight, stats, health.

The service keys everything on the existing content-addressed
:meth:`~repro.pipeline.Pipeline.artifact_key` — the same multi-tenant
key the on-disk :class:`~repro.pipeline.ArtifactCache` uses — so the
cache hierarchy has three rungs, from hottest to coldest:

1. the bounded in-process **pipeline memo** (an LRU of compiled
   :class:`~repro.pipeline.Pipeline` objects, which also keeps the
   symbolic engine warm for ``POST /update``), each entry carrying its
   wire-form tables once a response has needed them;
2. the shared **on-disk artifact cache** behind every miss (enabled by
   the launcher's ``--cache-dir``; HMAC-verified when
   ``REPRO_CACHE_HMAC_KEY`` is set, hard-failing under
   ``--strict-cache``);
3. a **cold compile**, deduplicated per key by single-flight locks: N
   concurrent identical requests run ONE compile, and the rest adopt
   its pipeline (the ``compile.singleflight_coalesced`` counter in
   ``GET /stats`` is the observable).

In front of the memo sits the **request index**, a bounded LRU from a
request's fingerprint to the artifact key it produced: a byte-identical
repeat of a request whose pipeline is still resident skips parsing and
key hashing.  It caches a pure function and nothing else — an entry
whose pipeline has left the memo is ignored, and the request takes the
full path above.

Health aggregation never double-counts: live pipelines are summed on
demand and an evicted pipeline's counters are folded into a cumulative
total exactly once, at eviction.
"""

from __future__ import annotations

import collections
import hashlib
import json
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..netkat.ast import Policy
from ..obs import metrics as obs_metrics
from ..pipeline import CompileOptions, Delta, Pipeline, PipelineError
from ..topology import Topology
from . import protocol

__all__ = ["ServiceState", "ServiceStats", "UnknownArtifactError"]

# Latency samples retained per endpoint for the /stats quantiles; a
# bounded window so a long-lived daemon's stats stay O(1) in memory.
_LATENCY_WINDOW = 1024

# Default pipeline-memo capacity (pipelines, not bytes).
DEFAULT_MEMO_SIZE = 64

# Request-index entries per memo slot (spellings of one request share a
# pipeline; an entry is two hex digests).
_INDEX_ENTRIES_PER_MEMO_SLOT = 4


class _MemoEntry:
    """A memoized pipeline and, once served, its wire-form tables."""

    __slots__ = ("pipeline", "tables")

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline
        self.tables: Optional[Dict[str, str]] = None


class UnknownArtifactError(Exception):
    """``POST /update`` named an artifact key the memo no longer holds
    (never served, or evicted); the client falls back to ``/compile``."""

    code = "unknown_artifact_key"

    def __init__(self, key: str):
        super().__init__(
            f"artifact key {key!r} is not resident in the pipeline memo; "
            "re-POST the full inputs to /compile"
        )
        self.key = key


class ServiceStats:
    """Thread-safe request counters and bounded latency windows."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._latencies: Dict[str, collections.deque] = {}
        self.started = time.time()

    def count(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + by

    def record_request(self, endpoint: str, seconds: float, error: bool) -> None:
        with self._lock:
            self._counters[f"requests.{endpoint}"] = (
                self._counters.get(f"requests.{endpoint}", 0) + 1
            )
            if error:
                self._counters[f"errors.{endpoint}"] = (
                    self._counters.get(f"errors.{endpoint}", 0) + 1
                )
            window = self._latencies.get(endpoint)
            if window is None:
                window = self._latencies[endpoint] = collections.deque(
                    maxlen=_LATENCY_WINDOW
                )
            window.append(seconds)

    def counter(self, counter: str) -> int:
        with self._lock:
            return self._counters.get(counter, 0)

    @staticmethod
    def _quantiles(samples: List[float]) -> Dict[str, float]:
        ordered = sorted(samples)
        count = len(ordered)

        def at(q: float) -> float:
            return ordered[min(count - 1, int(q * count))]

        return {
            "p50_ms": round(at(0.50) * 1000, 3),
            "p90_ms": round(at(0.90) * 1000, 3),
            "p99_ms": round(at(0.99) * 1000, 3),
            "max_ms": round(ordered[-1] * 1000, 3),
        }

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            windows = {
                endpoint: list(window)
                for endpoint, window in self._latencies.items()
            }
        endpoints: Dict[str, Any] = {}
        for endpoint, samples in sorted(windows.items()):
            endpoints[endpoint] = {
                "count": counters.get(f"requests.{endpoint}", 0),
                "errors": counters.get(f"errors.{endpoint}", 0),
                "latency": self._quantiles(samples) if samples else {},
            }
        return {
            "uptime_seconds": round(time.time() - self.started, 3),
            "counters": counters,
            "endpoints": endpoints,
        }


class ServiceState:
    """Everything the request handlers share.

    ``base_options`` carries the server's deployment policy (cache
    directory, HMAC key resolution, strict-cache);
    per-request option subsets and deadlines are layered on top of it by
    :meth:`effective_options` without ever touching the server-owned
    fields.
    """

    def __init__(
        self,
        base_options: Optional[CompileOptions] = None,
        memo_size: int = DEFAULT_MEMO_SIZE,
    ) -> None:
        if memo_size < 1:
            raise ValueError(f"memo_size must be >= 1, got {memo_size}")
        self.base_options = (
            base_options if base_options is not None else CompileOptions()
        )
        self.memo_size = memo_size
        self.stats = ServiceStats()
        self._memo_lock = threading.Lock()
        self._memo: "collections.OrderedDict[str, _MemoEntry]" = (
            collections.OrderedDict()
        )
        # fingerprint -> artifact key, guarded by _memo_lock
        self._index: "collections.OrderedDict[str, str]" = (
            collections.OrderedDict()
        )
        self._evicted_health: Dict[str, int] = {}
        self._flight_lock = threading.Lock()
        self._flights: Dict[str, threading.Lock] = {}
        # The registry GET /metrics renders.  Adopt the process-wide
        # installed one when present (the production launcher installs
        # it, so pipeline/cache/simulator instrumentation lands there
        # too); otherwise own a private registry — never installed, so
        # a test's serve_in_thread daemon cannot leak process state.
        # Service-level series (requests, latency quantiles, compile
        # sources, memo occupancy) are scrape-time collectors over
        # ServiceStats: no double bookkeeping on the request hot path.
        installed = obs_metrics.active()
        self.registry = (
            installed if installed is not None else obs_metrics.MetricsRegistry()
        )
        self.registry.register_collector(self._metric_samples)

    # -- options ------------------------------------------------------------

    def effective_options(
        self,
        requested: Optional[CompileOptions] = None,
        deadline_seconds: Optional[float] = None,
    ) -> CompileOptions:
        """The request's options with the per-request deadline mapped
        onto ``CompileOptions.deadline_seconds`` (execution-only, so it
        never perturbs the artifact key)."""
        options = requested if requested is not None else self.base_options
        if deadline_seconds is not None:
            options = options.replace(deadline_seconds=float(deadline_seconds))
        return options

    # -- pipeline memo (LRU) ------------------------------------------------

    def memo_get(self, key: str) -> Optional[Pipeline]:
        with self._memo_lock:
            entry = self._memo.get(key)
            if entry is None:
                return None
            self._memo.move_to_end(key)
            return entry.pipeline

    def memo_put(self, key: str, pipeline: Pipeline) -> None:
        with self._memo_lock:
            entry = self._memo.get(key)
            replaced = entry.pipeline if entry is not None else None
            if replaced is not pipeline:
                self._memo[key] = _MemoEntry(pipeline)
            self._memo.move_to_end(key)
            if replaced is not None and replaced is not pipeline:
                # Replacing a resident key (e.g. an /update whose
                # post-delta key is already memoized) drops the old
                # pipeline from the live scan without an eviction pop;
                # fold its counters here — exactly once, like an
                # eviction — so its health history is not lost.
                self._fold_health(replaced.report().health)
            while len(self._memo) > self.memo_size:
                _, evicted = self._memo.popitem(last=False)
                self.stats.count("memo.evictions")
                # Fold the evicted pipeline's health counters into the
                # cumulative total exactly once, so /health keeps the
                # full daemon history without double-counting the live
                # scan below.
                self._fold_health(evicted.pipeline.report().health)

    def _fold_health(self, health: Mapping[str, int]) -> None:
        """Accumulate the health counters of a pipeline the live scan
        will not (or no longer) see into the cumulative total (caller
        holds ``_memo_lock``)."""
        for counter, value in health.items():
            self._evicted_health[counter] = (
                self._evicted_health.get(counter, 0) + value
            )

    def _fold_failed(self, health: Mapping[str, int]) -> None:
        """A compile that raised never reaches the memo, so what it
        absorbed before failing (its retries, its cache rejections) is
        folded here, exactly once."""
        with self._memo_lock:
            self._fold_health(health)

    def memo_snapshot(self) -> Dict[str, Any]:
        with self._memo_lock:
            return {
                "size": len(self._memo),
                "capacity": self.memo_size,
                "evictions": self.stats.counter("memo.evictions"),
                "index_entries": len(self._index),
            }

    def wire_tables(self, key: str, pipeline: Pipeline) -> Dict[str, str]:
        """``protocol.tables_to_wire`` of a compiled pipeline, computed
        once per memo entry (the tables of a memoized pipeline never
        change) and dropped with it."""
        with self._memo_lock:
            entry = self._memo.get(key)
        if entry is None or entry.pipeline is not pipeline:
            return protocol.tables_to_wire(pipeline.compiled)  # evicted since
        if entry.tables is None:
            entry.tables = protocol.tables_to_wire(pipeline.compiled)
        return entry.tables

    # -- request index ------------------------------------------------------

    @staticmethod
    def request_fingerprint(
        wire: Mapping[str, Any], options: CompileOptions
    ) -> str:
        """SHA-256 over the canonical JSON of exactly what reaches
        :func:`~repro.pipeline.artifact_digest`: program text, topology
        and initial state as sent, effective output-affecting options."""
        fields = [
            wire["program"], wire["topology"], wire["initial_state"],
            options.semantic_fingerprint(),
        ]
        canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def index_get(self, fingerprint: str) -> Optional[Tuple[str, Pipeline]]:
        """The ``(artifact_key, pipeline)`` an identical request was
        served, while that pipeline is memo-resident; else ``None``."""
        with self._memo_lock:
            key = self._index.get(fingerprint)
            entry = self._memo.get(key) if key is not None else None
            if entry is None:
                return None
            self._index.move_to_end(fingerprint)
            self._memo.move_to_end(key)
        self.stats.count("compile.index_hits")
        self.stats.count("compile.memo_hits")
        return key, entry.pipeline

    def index_put(self, fingerprint: str, key: str) -> None:
        with self._memo_lock:
            self._index[fingerprint] = key
            self._index.move_to_end(fingerprint)
            if len(self._index) > _INDEX_ENTRIES_PER_MEMO_SLOT * self.memo_size:
                self._index.popitem(last=False)

    # -- single-flight ------------------------------------------------------

    def _flight(self, key: str) -> threading.Lock:
        with self._flight_lock:
            lock = self._flights.get(key)
            if lock is None:
                lock = self._flights[key] = threading.Lock()
            return lock

    # -- the request cores --------------------------------------------------

    def compile_pipeline(
        self,
        program: Policy,
        topology: Topology,
        initial_state: Tuple[int, ...],
        options: CompileOptions,
    ) -> Tuple[str, Pipeline, str]:
        """Serve a compiled pipeline for the inputs; returns
        ``(artifact_key, pipeline, source)`` with ``source`` one of
        ``"memo"`` (warm in-process hit), ``"coalesced"`` (adopted a
        concurrent identical compile's result), ``"disk"`` (on-disk
        artifact cache hit), or ``"cold"`` (full compile).
        """
        pipeline = Pipeline(program, topology, initial_state, options)
        key = pipeline.artifact_key()
        cached = self.memo_get(key)
        if cached is not None:
            self.stats.count("compile.memo_hits")
            return key, cached, "memo"
        with self._flight(key):
            cached = self.memo_get(key)
            if cached is not None:
                # A concurrent identical request compiled while this one
                # waited on the flight lock: adopt its pipeline — the
                # single-flight contract (N identical requests, one
                # compile), observable in /stats.
                self.stats.count("compile.singleflight_coalesced")
                return key, cached, "coalesced"
            try:
                pipeline.compiled  # may raise a typed PipelineError
            except Exception:
                self._fold_failed(pipeline.report().health)
                raise
            if pipeline.report().artifact_cache == "hit":
                self.stats.count("compile.disk_hits")
                source = "disk"
            else:
                self.stats.count("compile.cold")
                source = "cold"
            self.memo_put(key, pipeline)
            return key, pipeline, source

    def update_pipeline(self, key: str, delta: Delta) -> Tuple[str, Pipeline]:
        """Incrementally recompile the memoized pipeline under ``key``
        and memoize the result under its post-delta key."""
        base = self.memo_get(key)
        if base is None:
            raise UnknownArtifactError(key)
        try:
            updated = base.update(delta)
        except PipelineError as exc:
            self._fold_failed(exc.health)  # the discarded result's
            raise
        new_key = updated.artifact_key()
        self.stats.count("update.applied")
        self.memo_put(new_key, updated)
        return new_key, updated

    # -- health -------------------------------------------------------------

    def aggregated_health(self) -> Dict[str, int]:
        """Evicted-pipeline counters plus a live scan of the memo."""
        with self._memo_lock:
            total = dict(self._evicted_health)
            live = [entry.pipeline for entry in self._memo.values()]
        for pipeline in live:
            for counter, value in pipeline.report().health.items():
                total[counter] = total.get(counter, 0) + value
        return total

    def health_body(self) -> Tuple[bool, Dict[str, Any]]:
        """The ``GET /health`` verdict and body.

        ``ok`` is ``False`` — and the endpoint non-200 — when a
        strict-cache integrity error has ever surfaced: under
        ``strict_cache`` a tampered shared cache is a fleet-level signal
        worth failing health checks over, not a recompile-and-carry-on.
        """
        integrity_errors = self.stats.counter("errors.integrity")
        ok = integrity_errors == 0
        return ok, {
            "ok": ok,
            "health": self.aggregated_health(),
            "integrity_errors": integrity_errors,
            "strict_cache": self.base_options.strict_cache,
            "memo": self.memo_snapshot(),
        }

    def _metric_samples(self):
        """Scrape-time collector: ServiceStats, compile sources, memo
        occupancy, and aggregated health as Prometheus samples.

        Derived at collect() time from the structures the JSON endpoints
        already maintain, so the request hot path writes each fact once.
        Aggregated health is exported under its own service-level name —
        ``repro_pipeline_health_total`` belongs to the hot-path mirror
        and must not be duplicated by a collector.
        """
        snapshot = self.stats.snapshot()
        samples = []
        for endpoint, data in snapshot["endpoints"].items():
            samples.append((
                "repro_service_requests_total", "counter",
                {"endpoint": endpoint}, data["count"],
                "Requests handled, by endpoint",
            ))
            samples.append((
                "repro_service_errors_total", "counter",
                {"endpoint": endpoint}, data["errors"],
                "Requests answered with a >=400 status, by endpoint",
            ))
            for quantile_key, quantile in (
                ("p50_ms", "0.5"), ("p90_ms", "0.9"), ("p99_ms", "0.99"),
            ):
                ms = data["latency"].get(quantile_key)
                if ms is not None:
                    samples.append((
                        "repro_service_request_latency_seconds", "gauge",
                        {"endpoint": endpoint, "quantile": quantile},
                        ms / 1000.0,
                        "Request latency quantiles over the bounded "
                        "per-endpoint sample window",
                    ))
        counters = snapshot["counters"]
        for source, counter in (
            ("memo", "compile.memo_hits"),
            ("disk", "compile.disk_hits"),
            ("cold", "compile.cold"),
            ("coalesced", "compile.singleflight_coalesced"),
        ):
            samples.append((
                "repro_service_compiles_total", "counter",
                {"source": source}, counters.get(counter, 0),
                "Compiles served, by source (memo/disk/cold/"
                "single-flight coalesced)",
            ))
        samples.append((
            "repro_service_updates_total", "counter", {},
            counters.get("update.applied", 0),
            "Incremental /update recompilations applied",
        ))
        memo = self.memo_snapshot()
        samples.append((
            "repro_service_memo_pipelines", "gauge", {}, memo["size"],
            "Pipelines resident in the in-process memo",
        ))
        samples.append((
            "repro_service_memo_capacity", "gauge", {}, memo["capacity"],
            "Configured pipeline-memo capacity",
        ))
        samples.append((
            "repro_service_request_index_hits_total", "counter", {},
            counters.get("compile.index_hits", 0),
            "Compile requests answered by fingerprint, without a parse",
        ))
        samples.append((
            "repro_service_request_index_entries", "gauge", {},
            memo["index_entries"],
            "Fingerprints resident in the request index",
        ))
        samples.append((
            "repro_service_memo_evictions_total", "counter", {},
            memo["evictions"],
            "Pipelines evicted from the memo LRU",
        ))
        samples.append((
            "repro_service_uptime_seconds", "gauge", {},
            snapshot["uptime_seconds"],
            "Seconds since the service state was created",
        ))
        for counter, value in sorted(self.aggregated_health().items()):
            samples.append((
                "repro_service_health_total", "counter",
                {"counter": counter}, value,
                "Aggregated pipeline health counters (evicted + live "
                "memoized pipelines), by legacy counter name",
            ))
        return samples

    def stats_body(self) -> Dict[str, Any]:
        """The ``GET /stats`` body: request counts and latency
        quantiles per endpoint, the memo/disk/cold/single-flight compile
        counters, memo occupancy, and aggregated health."""
        snapshot = self.stats.snapshot()
        counters = snapshot.pop("counters")
        compiles = {
            "memo_hits": counters.get("compile.memo_hits", 0),
            "index_hits": counters.get("compile.index_hits", 0),
            "disk_hits": counters.get("compile.disk_hits", 0),
            "cold": counters.get("compile.cold", 0),
            "singleflight_coalesced": counters.get(
                "compile.singleflight_coalesced", 0
            ),
            "updates": counters.get("update.applied", 0),
        }
        return {
            **snapshot,
            "compiles": compiles,
            "memo": self.memo_snapshot(),
            "cache_dir": (
                str(self.base_options.cache_dir)
                if self.base_options.cache_dir is not None
                else None
            ),
            "health": self.aggregated_health(),
        }

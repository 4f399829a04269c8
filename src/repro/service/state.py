"""Shared server state: pipeline memo, single-flight, the telemetry store.

The service keys everything on the existing content-addressed
:meth:`~repro.pipeline.Pipeline.artifact_key` — the same multi-tenant
key the on-disk :class:`~repro.pipeline.ArtifactCache` uses — so the
cache hierarchy has three rungs, from hottest to coldest:

1. the bounded in-process **pipeline memo** (an LRU of compiled
   :class:`~repro.pipeline.Pipeline` objects, which also keeps the
   symbolic engine warm for ``POST /update``; a memoized pipeline's
   merged tables carry their own serialized text, so a repeat response
   builds none);
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

**Telemetry has one store**, :attr:`ServiceState.registry` (the
launcher's installed :class:`~repro.obs.metrics.MetricsRegistry`, else
private to the state).  Every daemon fact is written once, where it
happens: a request in :meth:`ServiceState.record_request`; a compile's
source, an index hit, an update, an eviction and an integrity error at
their call sites, through handles resolved in ``__init__``; a pipeline's
health where the pipeline finishes, in the two request cores.  ``GET
/stats``, ``/health`` and ``/metrics`` render that registry (JSON, JSON,
text) and never create a series.  The one scrape-time collector emits
the four values derived from a structure that is itself the store: memo
size and capacity, index entries, uptime.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..netkat.ast import Policy
from ..obs import metrics as obs_metrics
from ..pipeline import CompileOptions, Delta, Pipeline
from ..stateful.ast import validate_state_references
from ..topology import Topology
from .protocol import ProtocolError

__all__ = ["ServiceState", "UnknownArtifactError"]

# Default pipeline-memo capacity (pipelines, not bytes).
DEFAULT_MEMO_SIZE = 64

# Request-index entries per memo slot (spellings of one request share a
# pipeline; an entry is two hex digests).
_INDEX_ENTRIES_PER_MEMO_SLOT = 4

# Bucket bounds of the request-latency histogram: octaves from 50 us (a
# /version) to ~52 s (past any deadline), so a quantile read from it is
# within a factor two of the truth.
_LATENCY_BOUNDS = tuple(50e-6 * 2 ** i for i in range(21))

_REQUESTS = "repro_service_requests_total"
_ERRORS = "repro_service_errors_total"
_REQUEST_SECONDS = "repro_service_request_seconds"
_REQUEST_SECONDS_MAX = "repro_service_request_seconds_max"
_HEALTH = "repro_service_health_total"


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


class ServiceState:
    """Everything the request handlers share.

    ``base_options`` carries the server's deployment policy (cache
    directory, HMAC key resolution, strict-cache); a request's
    deadline is layered on top of it by :meth:`effective_options`.
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
        self.started = time.time()
        self._memo_lock = threading.Lock()
        self._memo: "collections.OrderedDict[str, Pipeline]" = (
            collections.OrderedDict()
        )
        # fingerprint -> artifact key, guarded by _memo_lock
        self._index: "collections.OrderedDict[str, str]" = (
            collections.OrderedDict()
        )
        self._flight_lock = threading.Lock()
        # artifact key -> [compile lock, requests holding or awaiting it];
        # an entry lives only while some request is inside _flight(key).
        self._flights: Dict[str, List[Any]] = {}
        # Adopt the process-wide installed registry when present (the
        # production launcher installs it, so pipeline/cache/simulator
        # instrumentation lands there too); otherwise own a private one
        # — never installed, so a test's serve_in_thread daemon cannot
        # leak process state.
        installed = obs_metrics.active()
        self.registry = (
            installed if installed is not None else obs_metrics.MetricsRegistry()
        )
        counter = self.registry.counter
        self._compiles = {
            source: counter(
                "repro_service_compiles_total",
                "Compiles served, by source (memo/disk/cold/"
                "single-flight coalesced)",
                source=source,
            )
            for source in ("memo", "disk", "cold", "coalesced")
        }
        self._index_hits = counter(
            "repro_service_request_index_hits_total",
            "Compile requests answered by fingerprint, without a parse",
        )
        self._updates = counter(
            "repro_service_updates_total",
            "Incremental /update recompilations applied",
        )
        self._evictions = counter(
            "repro_service_memo_evictions_total",
            "Pipelines evicted from the memo LRU",
        )
        self.integrity_errors = counter(
            "repro_service_integrity_errors_total",
            "Strict-cache integrity errors answered with a 503",
        )
        self.registry.register_collector(self._derived_gauges)

    # -- options ------------------------------------------------------------

    def effective_options(
        self, deadline_seconds: Optional[float] = None
    ) -> CompileOptions:
        """The server's options with the per-request deadline mapped
        onto ``CompileOptions.deadline_seconds``."""
        options = self.base_options
        if deadline_seconds is not None:
            options = options.replace(deadline_seconds=deadline_seconds)
        return options

    # -- pipeline memo (LRU) ------------------------------------------------

    def memo_get(self, key: str) -> Optional[Pipeline]:
        with self._memo_lock:
            pipeline = self._memo.get(key)
            if pipeline is not None:
                self._memo.move_to_end(key)
            return pipeline

    def memo_put(self, key: str, pipeline: Pipeline) -> None:
        with self._memo_lock:
            self._memo[key] = pipeline
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
                self._evictions.inc()

    def memo_snapshot(self) -> Dict[str, Any]:
        with self._memo_lock:
            return {
                "size": len(self._memo),
                "capacity": self.memo_size,
                "evictions": int(self._evictions.value),
                "index_entries": len(self._index),
            }

    # -- request index ------------------------------------------------------

    @staticmethod
    def request_fingerprint(wire: Mapping[str, Any]) -> str:
        """SHA-256 over the canonical JSON of exactly what reaches
        :func:`~repro.pipeline.artifact_digest`: program text, topology
        and initial state as sent."""
        fields = [wire["program"], wire["topology"], wire["initial_state"]]
        canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def index_get(self, fingerprint: str) -> Optional[Tuple[str, Pipeline]]:
        """The ``(artifact_key, pipeline)`` an identical request was
        served, while that pipeline is memo-resident; else ``None``."""
        with self._memo_lock:
            key = self._index.get(fingerprint)
            pipeline = self._memo.get(key) if key is not None else None
            if pipeline is None:
                return None
            self._index.move_to_end(fingerprint)
            self._memo.move_to_end(key)
        self._index_hits.inc()
        self._compiles["memo"].inc()
        return key, pipeline

    def index_put(self, fingerprint: str, key: str) -> None:
        with self._memo_lock:
            self._index[fingerprint] = key
            self._index.move_to_end(fingerprint)
            if len(self._index) > _INDEX_ENTRIES_PER_MEMO_SLOT * self.memo_size:
                self._index.popitem(last=False)

    # -- single-flight ------------------------------------------------------

    @contextlib.contextmanager
    def _flight(self, key: str) -> Iterator[None]:
        """Hold ``key``'s compile lock.  The entry is dropped when its
        last holder leaves (however it leaves), so the map is bounded by
        the requests in flight, not by the keys ever seen."""
        with self._flight_lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = [threading.Lock(), 0]
            flight[1] += 1
        try:
            with flight[0]:
                yield
        finally:
            with self._flight_lock:
                flight[1] -= 1
                if not flight[1]:
                    del self._flights[key]

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
            self._compiles["memo"].inc()
            return key, cached, "memo"
        with self._flight(key):
            cached = self.memo_get(key)
            if cached is not None:
                # A concurrent identical request compiled while this one
                # waited on the flight lock: adopt its pipeline — the
                # single-flight contract (N identical requests, one
                # compile), observable in /stats.
                self._compiles["coalesced"].inc()
                return key, cached, "coalesced"
            try:
                pipeline.compiled  # may raise a typed PipelineError
            finally:
                # Contract (c): a compile that raised never reaches the
                # memo, and what it absorbed first still counts.
                report = pipeline.report()
                self._count_health(report.health)
            source = "disk" if report.artifact_cache == "hit" else "cold"
            self._compiles[source].inc()
            self.memo_put(key, pipeline)
            return key, pipeline, source

    def update_pipeline(self, key: str, delta: Delta) -> Tuple[str, Pipeline]:
        """Incrementally recompile the memoized pipeline under ``key``
        and memoize the result under its post-delta key."""
        base = self.memo_get(key)
        if base is None:
            raise UnknownArtifactError(key)
        if delta.with_policy is not None:
            try:
                validate_state_references(delta.with_policy, len(base.initial_state))
            except IndexError as exc:
                raise ProtocolError("bad_delta", str(exc)) from exc
        try:
            updated = base.update(delta)
        except Exception as exc:
            self._count_health(getattr(exc, "health", {}))  # the discarded result's
            raise
        self._count_health(updated.report().health)
        new_key = updated.artifact_key()
        self._updates.inc()
        self.memo_put(new_key, updated)
        return new_key, updated

    def _count_health(self, health: Mapping[str, int]) -> None:
        """Add a finished pipeline's health to the daemon's.  Called
        once per pipeline, after ``.compiled`` has returned or raised:
        nothing later writes a pipeline's health."""
        for counter, value in health.items():
            self.registry.counter(
                _HEALTH,
                "Health counters of every pipeline the daemon finished, "
                "served or failed, by counter name",
                counter=counter,
            ).inc(value)

    def record_request(self, endpoint: str, seconds: float, error: bool) -> None:
        """The one writer of the per-endpoint request series.  The
        histogram is written last: a reader that finds it finds the
        rest."""
        registry = self.registry
        registry.counter(
            _REQUESTS, "Requests handled, by endpoint", endpoint=endpoint
        ).inc()
        registry.counter(
            _ERRORS,
            "Requests answered with a >=400 status, by endpoint",
            endpoint=endpoint,
        ).inc(int(error))  # by 0: the series exists from the first request
        registry.gauge(
            _REQUEST_SECONDS_MAX,
            "Slowest request handled, by endpoint",
            endpoint=endpoint,
        ).set_max(seconds)
        registry.histogram(
            _REQUEST_SECONDS,
            "Request latency, by endpoint",
            buckets=_LATENCY_BOUNDS,
            endpoint=endpoint,
        ).observe(seconds)

    # -- the views ----------------------------------------------------------

    def aggregated_health(self) -> Dict[str, int]:
        """The health counters of every pipeline the daemon finished."""
        return {
            labels["counter"]: int(counter.value)
            for labels, counter in self.registry.series(_HEALTH)
        }

    def health_body(self) -> Tuple[bool, Dict[str, Any]]:
        """The ``GET /health`` verdict and body.

        ``ok`` is ``False`` — and the endpoint non-200 — when a
        strict-cache integrity error has ever surfaced: under
        ``strict_cache`` a tampered shared cache is a fleet-level signal
        worth failing health checks over, not a recompile-and-carry-on.
        """
        integrity_errors = int(self.integrity_errors.value)
        ok = integrity_errors == 0
        return ok, {
            "ok": ok,
            "health": self.aggregated_health(),
            "integrity_errors": integrity_errors,
            "strict_cache": self.base_options.strict_cache,
            "memo": self.memo_snapshot(),
        }

    def stats_body(self) -> Dict[str, Any]:
        """The ``GET /stats`` body: request counts and latency
        quantiles per endpoint, the memo/disk/cold/single-flight compile
        counters, memo occupancy, and aggregated health.

        The quantiles are histogram estimates over the daemon's
        lifetime — linear within the octave bucket, clamped to the
        slowest request seen."""
        value = self.registry.value
        endpoints: Dict[str, Any] = {}
        for labels, histogram in self.registry.series(_REQUEST_SECONDS):
            slowest = value(_REQUEST_SECONDS_MAX, **labels)
            latency = {
                name: round(min(histogram.quantile(q), slowest) * 1000, 3)
                for name, q in (
                    ("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99),
                )
            }
            latency["max_ms"] = round(slowest * 1000, 3)
            endpoints[labels["endpoint"]] = {
                "count": int(value(_REQUESTS, **labels)),
                "errors": int(value(_ERRORS, **labels)),
                "latency": latency,
            }
        return {
            "uptime_seconds": round(time.time() - self.started, 3),
            "endpoints": endpoints,
            "compiles": {
                "memo_hits": int(self._compiles["memo"].value),
                "index_hits": int(self._index_hits.value),
                "disk_hits": int(self._compiles["disk"].value),
                "cold": int(self._compiles["cold"].value),
                "singleflight_coalesced": int(
                    self._compiles["coalesced"].value
                ),
                "updates": int(self._updates.value),
            },
            "memo": self.memo_snapshot(),
            "cache_dir": (
                str(self.base_options.cache_dir)
                if self.base_options.cache_dir is not None
                else None
            ),
            "health": self.aggregated_health(),
        }

    def _derived_gauges(self):
        """The scrape-time collector: the four values read off a
        structure that is itself the store.  Everything counted is a
        registry series already and is never re-exported here."""
        memo = self.memo_snapshot()
        return [
            ("repro_service_memo_pipelines", "gauge", {}, memo["size"],
             "Pipelines resident in the in-process memo"),
            ("repro_service_memo_capacity", "gauge", {}, memo["capacity"],
             "Configured pipeline-memo capacity"),
            ("repro_service_request_index_entries", "gauge", {},
             memo["index_entries"],
             "Fingerprints resident in the request index"),
            ("repro_service_uptime_seconds", "gauge", {},
             time.time() - self.started,
             "Seconds since the service state was created"),
        ]

"""Tests for the observability layer (:mod:`repro.obs`).

Covers the metrics registry and its Prometheus exposition shape, the
span tracer (including executor-worker parenting and the
report-reconciliation property), the Chrome-trace exporter + summary
tree, the instrumented pipeline/cache/simulator counters, the service
``/metrics`` endpoint and trace-ID round-trip, the CLI ``--trace`` /
``trace summarize`` path, and the byte-identity pin: instrumentation
must never change what the compiler produces.
"""

import json
import urllib.request
import warnings
from contextlib import closing

import pytest

from repro.apps import bandwidth_cap_app, firewall_app, ring_app
from repro.cli import main as cli_main
from repro.network import CorrectLogic, FrameBatch, SimNetwork, Simulator
from repro.obs import export, metrics, trace
from repro.pipeline import (
    ArtifactCache,
    ArtifactCacheWarning,
    CompileOptions,
    Pipeline,
)
from repro.service import ServiceClient, ServiceError, create_server, serve_in_thread
from repro.service.state import ServiceState

from seed_apps import APPS, guarded_bytes


@pytest.fixture(autouse=True)
def _no_leaked_obs_state():
    """Every test starts and ends with nothing installed process-wide."""
    assert metrics.active() is None, "a registry leaked into this test"
    assert trace.active() is None, "a tracer leaked into this test"
    yield
    metrics.uninstall()
    trace.uninstall()


def fresh_pipeline(app, options=None):
    return Pipeline(app.program, app.topology, app.initial_state, options)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        reg = metrics.MetricsRegistry()
        c = reg.counter("requests_total", "help", endpoint="compile")
        c.inc()
        c.inc(by=4)
        assert reg.value("requests_total", endpoint="compile") == 5
        # untouched series read as zero, not KeyError
        assert reg.value("requests_total", endpoint="nope") == 0

    def test_counter_rejects_negative(self):
        c = metrics.Counter()
        with pytest.raises(ValueError):
            c.inc(by=-1)

    def test_gauge_set_max_is_monotone(self):
        g = metrics.Gauge()
        g.set_max(3)
        g.set_max(1)
        assert g.value == 3
        g.set(0.5)
        assert g.value == 0.5

    def test_histogram_buckets_are_cumulative(self):
        h = metrics.Histogram(bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        counts = dict(h.bucket_counts())
        assert counts[0.1] == 1
        assert counts[1.0] == 2
        assert counts[10.0] == 3
        assert counts[float("inf")] == 4
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError):
            metrics.Histogram(bounds=(1.0, 1.0))

    def test_histogram_quantile_is_linear_within_the_bucket(self):
        h = metrics.Histogram(bounds=(1.0, 2.0, 4.0, 8.0))
        assert h.quantile(0.5) == 0.0  # nothing observed
        for v in (1.5, 3.0, 3.5, 5.0):
            h.observe(v)
        # Rank 2 of 4 is the first of the two samples in (2, 4].
        assert h.quantile(0.5) == 3.0
        assert 4.0 < h.quantile(0.99) <= 8.0
        qs = [h.quantile(q / 20) for q in range(21)]
        assert qs == sorted(qs)
        assert qs[0] == 1.0 and qs[-1] == 8.0
        h.observe(100.0)  # the +Inf bucket reads as the last finite bound
        assert h.quantile(1.0) == 8.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_readers_never_create_a_series(self):
        reg = metrics.MetricsRegistry()
        assert reg.series("latency_seconds") == []
        assert reg.value("latency_seconds_max", endpoint="compile") == 0
        assert reg.collect() == []
        # ... so the first writer still binds the name's bounds.
        h = reg.histogram("latency_seconds", "h", buckets=(1.0, 2.0), endpoint="b")
        reg.histogram("latency_seconds", "h", buckets=(1.0, 2.0), endpoint="a")
        assert h.bounds == (1.0, 2.0)
        assert [labels for labels, _ in reg.series("latency_seconds")] == [
            {"endpoint": "a"}, {"endpoint": "b"},
        ]
        assert reg.series("latency_seconds")[1][1] is h

    def test_same_name_same_labels_is_same_object(self):
        reg = metrics.MetricsRegistry()
        a = reg.counter("x_total", "help", k="1")
        b = reg.counter("x_total", "help", k="1")
        assert a is b
        c = reg.counter("x_total", "help", k="2")
        assert c is not a

    def test_kind_conflict_raises(self):
        reg = metrics.MetricsRegistry()
        reg.counter("thing", "help")
        with pytest.raises(ValueError):
            reg.gauge("thing", "help")

    def test_install_is_exclusive_and_idempotent(self):
        reg = metrics.install()
        assert metrics.install() is reg  # idempotent for the same one
        with pytest.raises(RuntimeError):
            metrics.install(metrics.MetricsRegistry())
        metrics.uninstall()
        assert metrics.active() is None

    def test_helpers_are_noops_uninstalled(self):
        # Must not raise and must not create hidden state anywhere.
        metrics.inc("ghost_total")
        metrics.observe("ghost_seconds", 1.0)
        with metrics.collecting() as reg:
            assert reg.value("ghost_total") == 0

    def test_count_health_mirrors_into_registry(self):
        health = {}
        with metrics.collecting() as reg:
            metrics.count_health(health, "cache.store_error")
            metrics.count_health(health, "cache.store_error")
        assert health == {"cache.store_error": 2}
        assert reg.value(metrics.HEALTH_METRIC, counter="cache.store_error") == 2
        # Uninstalled: the legacy dict still counts, nothing else does.
        metrics.count_health(health, "cache.store_error")
        assert health["cache.store_error"] == 3


# ---------------------------------------------------------------------------
# Prometheus text exposition — shape pin
# ---------------------------------------------------------------------------


class TestPrometheusExposition:
    def test_exact_shape(self):
        reg = metrics.MetricsRegistry()
        reg.counter("a_requests_total", "How many.", endpoint="compile").inc(by=2)
        reg.gauge("b_uptime_seconds", "Up.").set(1.5)
        h = reg.histogram("c_seconds", "Latency.", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = export.prometheus_text(reg)
        assert text == (
            "# HELP a_requests_total How many.\n"
            "# TYPE a_requests_total counter\n"
            'a_requests_total{endpoint="compile"} 2\n'
            "# HELP b_uptime_seconds Up.\n"
            "# TYPE b_uptime_seconds gauge\n"
            "b_uptime_seconds 1.5\n"
            "# HELP c_seconds Latency.\n"
            "# TYPE c_seconds histogram\n"
            'c_seconds_bucket{le="0.1"} 1\n'
            'c_seconds_bucket{le="1"} 2\n'
            'c_seconds_bucket{le="+Inf"} 2\n'
            "c_seconds_sum 0.55\n"
            "c_seconds_count 2\n"
        )

    def test_label_values_escaped(self):
        reg = metrics.MetricsRegistry()
        reg.counter("x_total", "h", path='a"b\\c').inc()
        text = export.prometheus_text(reg)
        assert 'x_total{path="a\\"b\\\\c"} 1' in text

    def test_no_registry_placeholder(self):
        assert export.prometheus_text(None).startswith("# no metrics registry")

    def test_collectors_sampled_at_scrape_time(self):
        reg = metrics.MetricsRegistry()
        box = {"n": 1}
        reg.register_collector(
            lambda: [("derived_total", "counter", {}, float(box["n"]), "h")]
        )
        assert "derived_total 1" in export.prometheus_text(reg)
        box["n"] = 7
        assert "derived_total 7" in export.prometheus_text(reg)


# ---------------------------------------------------------------------------
# Tracer: span tree on a real compile, reconciliation with report()
# ---------------------------------------------------------------------------


class TestTracing:
    def test_span_is_noop_uninstalled(self):
        with trace.span("anything") as s:
            s.set(k=1)  # must be accepted and discarded
        assert trace.current() is None
        assert trace.current_trace_id() is None

    def test_cap24_compile_span_tree(self):
        app = bandwidth_cap_app(24)
        with trace.recording() as tracer:
            with trace.span("build"):
                pipeline = fresh_pipeline(app)
                pipeline.compiled
        spans = tracer.finished()
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        for required in ("ets", "ets.symbolic", "ets.instantiate", "nes", "compile"):
            assert required in by_name, f"missing span {required!r}"
        # one trace id across the whole build
        assert len({s["trace_id"] for s in spans}) == 1
        # stage substages parent under the stage
        ets_id = by_name["ets"][0]["span_id"]
        assert by_name["ets.symbolic"][0]["parent_id"] == ets_id
        assert by_name["ets.instantiate"][0]["parent_id"] == ets_id
        # one compile.configuration span per distinct policy (26 states,
        # 2 policies), each parented under the compile stage span
        compile_span = by_name["compile"][0]
        workers = by_name["compile.configuration"]
        assert len(pipeline.compiled.states) == 26
        assert len(workers) == 2
        assert compile_span["attrs"]["configurations"] == 26
        assert compile_span["attrs"]["compiled_configurations"] == 2
        assert all(w["parent_id"] == compile_span["span_id"] for w in workers)
        assert "attach" not in trace.__all__  # its only caller was the pool

    def test_span_durations_reconcile_with_report(self):
        app = bandwidth_cap_app(12)
        with trace.recording() as tracer:
            pipeline = fresh_pipeline(app)
            pipeline.compiled
        report = pipeline.report()
        stage_spans = {
            s["name"]: s["duration"]
            for s in tracer.finished()
            if s["name"] in ("ets", "nes", "compile")
        }
        for stage, seconds in report.stage_seconds:
            # the span wraps slightly more than the timed region inside
            # the stage; they must agree to within a loose absolute slop
            assert stage_spans[stage] == pytest.approx(seconds, abs=0.05)

    def test_tracer_drops_beyond_capacity(self):
        tracer = trace.Tracer(max_spans=2)
        with trace.recording(tracer):
            for _ in range(5):
                with trace.span("s"):
                    pass
        assert len(tracer.finished()) == 2
        assert tracer.dropped == 3

    def test_error_spans_are_flagged(self):
        with trace.recording() as tracer:
            with pytest.raises(RuntimeError):
                with trace.span("boom"):
                    raise RuntimeError("x")
        (s,) = tracer.finished()
        assert s["attrs"]["error"] == "RuntimeError"


# ---------------------------------------------------------------------------
# Chrome-trace export + summarize
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def _traced_compile(self):
        with trace.recording() as tracer:
            fresh_pipeline(firewall_app()).compiled
        return tracer

    def test_export_is_schema_valid(self, tmp_path):
        tracer = self._traced_compile()
        path = tmp_path / "t.json"
        count = export.write_chrome_trace(str(path), tracer)
        doc = json.loads(path.read_text())
        assert export.validate_chrome_trace(doc) == []
        assert count == len(tracer.finished())
        assert doc["otherData"]["spans"] == count

    def test_validator_catches_breakage(self):
        assert export.validate_chrome_trace([]) != []
        assert export.validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        bad_ts = {
            "traceEvents": [
                {"name": "s", "ph": "X", "pid": 1, "tid": 0, "ts": -1,
                 "dur": 1, "args": {"trace_id": "t"}}
            ]
        }
        assert any("non-negative" in p for p in export.validate_chrome_trace(bad_ts))

    def test_round_trip_preserves_summary(self, tmp_path):
        tracer = self._traced_compile()
        direct = export.summarize(tracer.finished())
        doc = export.chrome_trace(tracer)
        rebuilt = export.summarize(export.spans_from_chrome(doc))

        def names(tree):
            return [(n["name"], n["count"], names(n["children"])) for n in tree]

        assert names(rebuilt) == names(direct)

    def test_summary_tree_self_time(self):
        spans = [
            {"name": "root", "span_id": 1, "parent_id": None, "duration": 1.0},
            {"name": "child", "span_id": 2, "parent_id": 1, "duration": 0.25},
            {"name": "child", "span_id": 3, "parent_id": 1, "duration": 0.25},
        ]
        (root,) = export.summarize(spans)
        assert root["name"] == "root"
        assert root["self"] == pytest.approx(0.5)
        (child,) = root["children"]
        assert child["count"] == 2
        assert child["total"] == pytest.approx(0.5)
        text = export.format_summary([root])
        assert "root" in text and "child" in text


# ---------------------------------------------------------------------------
# Pipeline / cache counters
# ---------------------------------------------------------------------------


class TestPipelineMetrics:
    def test_cache_loads_and_stage_histograms(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        with metrics.collecting() as reg:
            fresh_pipeline(app, options).compiled  # cold: miss + store
            fresh_pipeline(app, options).compiled  # warm: hit
        assert reg.value("repro_cache_loads_total", result="miss") == 1
        assert reg.value("repro_cache_loads_total", result="hit") == 1
        assert reg.value("repro_cache_stores_total", result="ok") == 1
        hist = reg.histogram(
            "repro_pipeline_stage_seconds", "", stage="compile"
        )
        # cold compile + warm load both observe the compile stage
        assert hist.count == 2

    def test_health_counters_mirror(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        pipeline = fresh_pipeline(app, options)
        key = pipeline.artifact_key()
        ArtifactCache(tmp_path).path(key).write_bytes(b"garbage")
        with metrics.collecting() as reg:
            with pytest.warns(ArtifactCacheWarning, match="corrupt"):
                pipeline.compiled
        assert reg.value(metrics.HEALTH_METRIC, counter="cache.load_corrupt") == 1
        assert pipeline.report().health["cache.load_corrupt"] == 1

    def test_cache_warning_counter_outlives_one_shot_warning(self, tmp_path):
        # Satellite: the warning fires once per cache, the counter keeps
        # counting after it is suppressed.
        cache = ArtifactCache(tmp_path)
        with metrics.collecting() as reg:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for key in ("k1", "k2", "k3"):
                    cache.path(key).write_bytes(b"garbage")
                    assert cache.load(key) is None
        warned = [w for w in caught if issubclass(w.category, ArtifactCacheWarning)]
        assert len(warned) == 1  # one-shot emission preserved
        assert reg.value("repro_cache_warnings_total", category="corrupt") == 3


# ---------------------------------------------------------------------------
# Simulator counters
# ---------------------------------------------------------------------------


class TestSimulatorMetrics:
    def _stream(self, frames=200):
        app = ring_app(2)
        from repro.apps.base import HOSTS

        logic = CorrectLogic(app.compiled)
        net = SimNetwork(app.topology, logic, seed=7)
        net.inject_stream(
            "H1",
            FrameBatch(
                {"ip_src": HOSTS["H1"], "ip_dst": HOSTS["H2"],
                 "kind": 0, "ident": 0},
                frames,
                payload_bytes=64,
                flow=("bulk", "H1"),
                spacing=1e-6,
            ),
        )
        net.run()
        return net

    def test_counters_recorded_when_installed(self):
        with metrics.collecting() as reg:
            net = self._stream()
        assert reg.value("repro_sim_events_processed_total") == net.sim.events_processed
        assert net.sim.events_processed > 0
        plan_cache = "repro_sim_plan_cache_total"
        hits = reg.value(plan_cache, result="hit")
        leaves = reg.value(plan_cache, result="leaf")
        misses = reg.value(plan_cache, result="miss")
        assert hits > 0 and leaves > 0 and misses > 0
        # Every hop is one of the three: slot replay, leaf replay, logic.
        assert hits + leaves + misses == net.sim.events_processed // 2

    def test_events_counter_tracks_partial_runs_and_the_event_cap(self):
        with metrics.collecting() as reg:
            sim = Simulator()
            for i in range(10):
                sim.schedule(i * 1.0, lambda: None)
            for until in (2.5, 6.0, None):
                sim.run(until=until)
                assert (
                    reg.value("repro_sim_events_processed_total")
                    == sim.events_processed
                )
            assert sim.events_processed == 10

            capped = Simulator()
            for i in range(5):
                capped.schedule(i * 1.0, lambda: None)
            with pytest.raises(RuntimeError, match="exceeded 3 events"):
                capped.run(max_events=3)
            assert capped.events_processed == 3
            assert reg.value("repro_sim_events_processed_total") == 13

    def test_record_identity_instrumented_vs_not(self):
        with metrics.collecting():
            instrumented = self._stream()
        plain = self._stream()
        assert instrumented.deliveries == plain.deliveries


# ---------------------------------------------------------------------------
# Service: /metrics, trace-ID round-trip, memo replacement fold
# ---------------------------------------------------------------------------


def _raw_get(base_url, path):
    with urllib.request.urlopen(f"{base_url}{path}", timeout=30) as resp:
        return resp.status, resp.headers, resp.read()


class TestServiceObservability:
    def test_metrics_endpoint_exposition(self):
        app = firewall_app()
        server = create_server()
        with serve_in_thread(server) as url, closing(
            ServiceClient(url)
        ) as client:
            client.compile(app.program, app.topology, app.initial_state)
            client.compile(app.program, app.topology, app.initial_state)
            status, headers, body = _raw_get(url, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert 'repro_service_requests_total{endpoint="compile"} 2' in text
        assert 'repro_service_compiles_total{source="cold"} 1' in text
        assert 'repro_service_compiles_total{source="memo"} 1' in text
        assert "repro_service_memo_pipelines 1" in text
        assert 'repro_service_request_seconds_bucket{endpoint="compile",le="+Inf"} 2' in text
        assert 'repro_service_request_seconds_count{endpoint="compile"} 2' in text
        assert 'repro_service_request_seconds_sum{endpoint="compile"}' in text
        assert 'repro_service_request_seconds_max{endpoint="compile"}' in text
        assert "repro_service_uptime_seconds" in text

    def test_trace_id_round_trip(self):
        app = firewall_app()
        server = create_server()
        with serve_in_thread(server) as url, closing(
            ServiceClient(url, trace_id="trace-abc.1")
        ) as client:
            client.compile(app.program, app.topology, app.initial_state)
            assert client.last_trace_id == "trace-abc.1"
            # error responses carry the ID in the structured body too
            with pytest.raises(ServiceError) as excinfo:
                client.compile("pt=", app.topology, app.initial_state)
            assert excinfo.value.error["trace_id"] == "trace-abc.1"
            assert client.last_trace_id == "trace-abc.1"

    def test_ambient_span_propagates_trace_id(self):
        app = firewall_app()
        server = create_server()
        with serve_in_thread(server) as url, closing(
            ServiceClient(url)
        ) as client:
            with trace.recording():
                with trace.span("controller.push", trace_id="ambient-7"):
                    client.compile(app.program, app.topology, app.initial_state)
            assert client.last_trace_id == "ambient-7"

    def test_hostile_trace_id_is_dropped_not_echoed(self):
        app = firewall_app()
        server = create_server()
        # 100 chars of legal header value; rejected by the server's
        # sanitizer (>64), so never echoed or stamped into errors.
        with serve_in_thread(server) as url, closing(
            ServiceClient(url, trace_id="x" * 100)
        ) as client:
            client.compile(app.program, app.topology, app.initial_state)
            assert client.last_trace_id is None

    def test_health_is_counted_where_a_pipeline_finishes(self, tmp_path):
        """Once per finished pipeline, in the request core: the memo is
        not part of the bookkeeping, so neither replacing a resident
        entry nor serving it again moves /health."""
        app = firewall_app()
        options = CompileOptions(cache_dir=str(tmp_path))
        state = ServiceState(options)
        inputs = (app.program, app.topology, app.initial_state, options)
        key = fresh_pipeline(app, options).artifact_key()
        ArtifactCache(tmp_path).path(key).write_bytes(b"garbage")
        with pytest.warns(ArtifactCacheWarning, match="corrupt"):
            _, first, source = state.compile_pipeline(*inputs)
        assert source == "cold"
        absorbed = {"cache.load_corrupt": 1, "cache.quarantined": 1}
        assert first.report().health == absorbed
        assert state.aggregated_health() == absorbed
        assert state.compile_pipeline(*inputs)[2] == "memo"
        state.memo_put(key, fresh_pipeline(app, options))  # replaces it
        state.memo_put(key, first)
        assert state.aggregated_health() == absorbed


# ---------------------------------------------------------------------------
# CLI: --trace + trace summarize
# ---------------------------------------------------------------------------

FIREWALL_SOURCE = """
pt=2 & ip_dst=4; pt<-1;
  ( state(0)=0; (1:1)->(4:1)<state(0)<-1>
  + !state(0)=0; (1:1)->(4:1) );
pt<-2
+ pt=2 & ip_dst=1; state(0)=1; pt<-1; (4:1)->(1:1); pt<-2
"""


class TestCliTrace:
    def test_compile_trace_and_summarize(self, tmp_path, capsys):
        program = tmp_path / "fw.snk"
        program.write_text(FIREWALL_SOURCE)
        out = tmp_path / "trace.json"
        rc = cli_main([
            "compile", str(program), "--topology", "firewall",
            "--report", "--trace", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "artifact cache loads: 0 hit(s), 0 miss(es)" in text
        assert f"wrote" in text and str(out) in text
        doc = json.loads(out.read_text())
        assert export.validate_chrome_trace(doc) == []
        # the CLI leaves nothing installed behind
        assert trace.active() is None and metrics.active() is None

        rc = cli_main(["trace", "summarize", str(out)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "repro.compile" in summary
        for stage in ("ets", "nes", "compile"):
            assert stage in summary

    def test_summarize_rejects_non_trace_json(self, tmp_path, capsys):
        event = {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1,
                 "args": {"trace_id": "t"}}
        bogus = tmp_path / "x.json"
        for doc in ({"nope": 1}, {"traceEvents": [event], "otherData": 5}):
            bogus.write_text(json.dumps(doc))
            rc = cli_main(["trace", "summarize", str(bogus)])
            assert rc == 1
            assert "not a valid Chrome trace" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Byte identity: instrumentation never changes the artifacts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_tables_byte_identical_traced_vs_untraced(name, make):
    app = make()
    plain = guarded_bytes(fresh_pipeline(app).compiled)
    with trace.recording():
        with metrics.collecting():
            traced = guarded_bytes(fresh_pipeline(app).compiled)
    assert traced == plain

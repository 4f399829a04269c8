"""End-to-end tests for the compilation service.

Everything here runs against a live localhost daemon
(:func:`repro.service.serve_in_thread` around a real
``ThreadingHTTPServer``) talked to through the real urllib client — the
wire, the handlers, and the shared state are all exercised exactly as a
deployment would.  The invariants pinned:

- **byte identity**: tables served over HTTP equal a direct
  :class:`~repro.pipeline.Pipeline` build, per switch, byte for byte, on
  all seven seed apps — and the served artifact key equals the direct
  build's, so the wire round-trip (pretty-print -> parse) is invisible
  to the content-addressed cache;
- **single flight**: N concurrent identical requests run exactly one
  cold compile, observable in ``GET /stats``;
- **/update**: incremental recompilation over the wire matches a cold
  rebuild of the post-delta inputs;
- **chaos**: a fault plan installed server-side yields a typed JSON
  error with stage provenance — never a wrong table — and the daemon
  serves correct tables immediately after;
- **strict cache**: a tampered shared cache under ``--strict-cache``
  surfaces as a 503 and flips ``GET /health`` non-200.
"""

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro import CompileOptions, Delta, Pipeline, faults
from repro.apps import firewall_app, ids_app, ring_app
from repro.pipeline import ArtifactCache, _topology_fingerprint
from repro.service import (
    ServiceClient,
    ServiceError,
    create_server,
    serve_in_thread,
)
from repro.service import protocol
from repro.service.state import ServiceState, UnknownArtifactError

from seed_apps import APPS


@contextmanager
def fresh_service(**kwargs):
    """A throwaway daemon on an ephemeral port, torn down on exit."""
    server = create_server(**kwargs)
    with serve_in_thread(server) as url:
        yield ServiceClient(url), server


@pytest.fixture(scope="module")
def shared_service(tmp_path_factory):
    """One daemon (with an on-disk cache) shared by the read-mostly
    tests; tests that assert on counters spin up their own."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    server = create_server(options=CompileOptions(cache_dir=str(cache_dir)))
    with serve_in_thread(server) as url:
        yield ServiceClient(url)


def raw_request(client, method, path, data=None, headers=None):
    """An uncooked HTTP exchange, for malformed-wire cases the typed
    client cannot produce; returns ``(status, parsed body)``."""
    request = urllib.request.Request(
        f"{client.base_url}{path}",
        data=data,
        headers=headers or {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ---------------------------------------------------------------------------
# Byte identity: served tables == direct Pipeline build, all seven apps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_served_tables_byte_identical_to_direct_build(
    name, make, shared_service
):
    app = make()
    result = shared_service.compile(
        app.program, app.topology, app.initial_state
    )
    direct = Pipeline(app.program, app.topology, app.initial_state)
    assert result["tables"] == protocol.tables_to_wire(direct.compiled)
    # The wire round-trip is key-invisible: the served artifact is the
    # same cache tenant a local build would read and write.
    assert result["artifact_key"] == direct.artifact_key()
    assert result["source"] in ("memo", "disk", "cold")
    assert result["report"]["stages"].keys() >= {"compile"}


def test_repeat_request_is_a_memo_hit(shared_service):
    app = firewall_app()
    first = shared_service.compile(
        app.program, app.topology, app.initial_state
    )
    again = shared_service.compile(
        app.program, app.topology, app.initial_state
    )
    assert again["source"] == "memo"
    assert again["artifact_key"] == first["artifact_key"]
    assert again["tables"] == first["tables"]


def test_disk_cache_warms_a_restarted_daemon(tmp_path):
    """The on-disk artifact cache is shared tenancy: a fresh daemon over
    the same directory serves its first request from disk."""
    app = ids_app()
    options = CompileOptions(cache_dir=str(tmp_path))
    with fresh_service(options=options) as (client, _):
        cold = client.compile(app.program, app.topology, app.initial_state)
        assert cold["source"] == "cold"
    with fresh_service(options=options) as (client, _):
        warm = client.compile(app.program, app.topology, app.initial_state)
        assert warm["source"] == "disk"
        assert warm["tables"] == cold["tables"]
        assert client.stats()["compiles"]["disk_hits"] == 1


# ---------------------------------------------------------------------------
# Single flight: N identical concurrent requests, ONE compile
# ---------------------------------------------------------------------------


def test_concurrent_identical_requests_compile_once():
    app = ring_app(4)
    workers = 8
    with fresh_service() as (client, _):
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def request(slot):
            barrier.wait()
            results[slot] = client.compile(
                app.program, app.topology, app.initial_state
            )

        threads = [
            threading.Thread(target=request, args=(slot,))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        compiles = client.stats()["compiles"]
        assert compiles["cold"] == 1
        # Everyone else adopted the one compile: either by waiting on
        # the flight lock (coalesced) or by arriving after it was
        # memoized (memo hit) — but nobody compiled again.
        assert (
            compiles["memo_hits"] + compiles["singleflight_coalesced"]
            == workers - 1
        )

        keys = {result["artifact_key"] for result in results}
        tables = [result["tables"] for result in results]
        assert len(keys) == 1
        assert all(entry == tables[0] for entry in tables)


# ---------------------------------------------------------------------------
# /update: incremental recompilation over the wire
# ---------------------------------------------------------------------------


class TestUpdate:
    def test_update_matches_cold_rebuild(self, shared_service):
        app = ids_app()
        base = shared_service.compile(
            app.program, app.topology, app.initial_state
        )
        delta = Delta(set_state=((0, 1),))
        updated = shared_service.update(base["artifact_key"], delta)

        cold = Pipeline(
            app.program,
            app.topology,
            delta.apply_initial_state(app.initial_state),
        )
        assert updated["tables"] == protocol.tables_to_wire(cold.compiled)
        assert updated["artifact_key"] == cold.artifact_key()
        assert updated["artifact_key"] != base["artifact_key"]
        assert updated["source"] == "update"
        assert "update.reuse_percent" in updated["report"]["stats"]

    def test_updated_pipeline_is_memoized_under_its_new_key(
        self, shared_service
    ):
        app = ids_app()
        base = shared_service.compile(
            app.program, app.topology, app.initial_state
        )
        delta = Delta(set_state=((0, 1),))
        updated = shared_service.update(base["artifact_key"], delta)
        again = shared_service.compile(
            app.program,
            app.topology,
            delta.apply_initial_state(app.initial_state),
        )
        assert again["source"] == "memo"
        assert again["artifact_key"] == updated["artifact_key"]

    def test_update_accepts_wire_dict_deltas(self, shared_service):
        app = firewall_app()
        base = shared_service.compile(
            app.program, app.topology, app.initial_state
        )
        updated = shared_service.update(
            base["artifact_key"], {"set_state": [[0, 1]]}
        )
        cold = Pipeline(app.program, app.topology, (1,) + tuple(
            app.initial_state[1:]
        ))
        assert updated["tables"] == protocol.tables_to_wire(cold.compiled)

    def test_unknown_artifact_key_is_a_404(self, shared_service):
        with pytest.raises(ServiceError) as excinfo:
            shared_service.update("no-such-key", Delta(set_state=((0, 1),)))
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_artifact_key"

    def test_evicted_key_is_a_404(self):
        """A memo_size=1 daemon forgets the first app when the second
        arrives; /update against the evicted key tells the client to
        fall back to /compile."""
        first, second = firewall_app(), ids_app()
        with fresh_service(memo_size=1) as (client, _):
            base = client.compile(
                first.program, first.topology, first.initial_state
            )
            client.compile(
                second.program, second.topology, second.initial_state
            )
            memo = client.stats()["memo"]
            assert memo == {"size": 1, "capacity": 1, "evictions": 1}
            with pytest.raises(ServiceError) as excinfo:
                client.update(base["artifact_key"], Delta(set_state=((0, 1),)))
            assert excinfo.value.status == 404


# ---------------------------------------------------------------------------
# Chaos: server-side fault plan => typed JSON error, never a wrong table
# ---------------------------------------------------------------------------


def test_injected_stage_fault_is_a_typed_error_with_provenance():
    app = firewall_app()
    direct = Pipeline(app.program, app.topology, app.initial_state)
    with fresh_service() as (client, _):
        plan = faults.FaultPlan({"stage.compile": faults.FaultRule(max_fires=1)})
        with faults.injected(plan):
            with pytest.raises(ServiceError) as excinfo:
                client.compile(app.program, app.topology, app.initial_state)
        assert plan.fires("stage.compile") == 1
        assert excinfo.value.status == 422
        assert excinfo.value.error["type"] == "StageError"
        assert excinfo.value.stage == "compile"

        # The failed compile was not memoized: with the plan gone the
        # daemon serves the correct tables — a fault yields an error or
        # the right answer, never a wrong table.
        result = client.compile(app.program, app.topology, app.initial_state)
        assert result["source"] == "cold"
        assert result["tables"] == protocol.tables_to_wire(direct.compiled)
        ok, body = client.health()
        assert ok and body["integrity_errors"] == 0


def test_tampered_strict_cache_fails_health(tmp_path):
    """The acceptance chaos case for the shared cache: under
    ``strict_cache`` a bit-flipped artifact is a 503 with a
    machine-readable cause, and /health goes (and stays) non-200."""
    first, second = firewall_app(), ids_app()
    options = CompileOptions(
        cache_dir=str(tmp_path), cache_hmac_key="service-key",
        strict_cache=True,
    )
    with fresh_service(options=options, memo_size=1) as (client, _):
        base = client.compile(
            first.program, first.topology, first.initial_state
        )
        # Evict the first pipeline from the memo so the re-request must
        # go back to the (about to be tampered) disk artifact.
        client.compile(second.program, second.topology, second.initial_state)

        path = ArtifactCache(tmp_path).path(base["artifact_key"])
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))

        with pytest.raises(ServiceError) as excinfo:
            client.compile(first.program, first.topology, first.initial_state)
        assert excinfo.value.status == 503
        assert excinfo.value.error["type"] == "ArtifactIntegrityError"
        assert excinfo.value.stage == "cache"

        ok, body = client.health()
        assert not ok
        assert body["integrity_errors"] == 1
        assert body["strict_cache"] is True


# ---------------------------------------------------------------------------
# Wire hygiene: malformed input => structured 4xx, never a bare 500
# ---------------------------------------------------------------------------


class TestProtocolErrors:
    def test_unparseable_program_is_a_400(self, shared_service):
        app = firewall_app()
        with pytest.raises(ServiceError) as excinfo:
            shared_service.compile("filter (", app.topology, (0,))
        assert excinfo.value.status == 400
        assert excinfo.value.code == "parse_error"

    def test_server_owned_option_fields_are_rejected(self, shared_service):
        app = firewall_app()
        for forbidden in ("cache_dir", "cache_hmac_key", "strict_cache"):
            with pytest.raises(ServiceError) as excinfo:
                shared_service.compile(
                    app.program, app.topology, app.initial_state,
                    options={forbidden: "anything"},
                )
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_options"

    def test_unknown_option_field_fails_loudly(self, shared_service):
        app = firewall_app()
        with pytest.raises(ServiceError) as excinfo:
            shared_service.compile(
                app.program, app.topology, app.initial_state,
                options={"backnd": "thread"},
            )
        assert excinfo.value.status == 400
        assert "backnd" in str(excinfo.value)

    def test_removed_implementation_switches_are_a_400(self, shared_service):
        """Protocol 2 dropped four option names; a client still sending
        one gets a structured ``bad_options`` listing what it may set —
        never a 500, and never a compile that silently ignored it."""
        app = firewall_app()
        for removed in (
            "symbolic_extract", "knowledge_cache", "ordered_insert", "ast_memo"
        ):
            with pytest.raises(ServiceError) as excinfo:
                shared_service.compile(
                    app.program, app.topology, app.initial_state,
                    options={removed: False},
                )
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_options"
            message = str(excinfo.value)
            assert removed in message
            for field in protocol.REQUESTABLE_OPTION_FIELDS:
                assert field in message

    def test_missing_required_field_is_a_400(self, shared_service):
        status, body = raw_request(
            shared_service, "POST", "/compile",
            data=json.dumps({"program": "drop"}).encode(),
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "topology" in body["error"]["message"]

    def test_unknown_request_field_is_a_400(self, shared_service):
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        wire["cache_dir"] = "/tmp/nope"
        status, body = raw_request(
            shared_service, "POST", "/compile", data=json.dumps(wire).encode()
        )
        assert status == 400
        assert "cache_dir" in body["error"]["message"]

    def test_non_json_body_is_a_400(self, shared_service):
        status, body = raw_request(
            shared_service, "POST", "/compile", data=b"definitely not json"
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_nonpositive_deadline_is_a_400(self, shared_service):
        app = firewall_app()
        with pytest.raises(ServiceError) as excinfo:
            shared_service.compile(
                app.program, app.topology, app.initial_state,
                deadline_seconds=-1,
            )
        assert excinfo.value.status == 400

    def test_unknown_endpoint_is_a_404_with_an_index(self, shared_service):
        status, body = raw_request(shared_service, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown_endpoint"
        assert "POST /compile" in body["error"]["endpoints"]


# ---------------------------------------------------------------------------
# Batch, options, deadline, introspection endpoints
# ---------------------------------------------------------------------------


def test_batch_isolates_per_entry_failures(shared_service):
    app = firewall_app()
    results = shared_service.compile_batch([
        shared_service.compile_request(
            app.program, app.topology, app.initial_state
        ),
        {"program": "filter (", "topology": protocol.topology_to_wire(
            app.topology
        ), "initial_state": [0]},
    ])
    assert len(results) == 2
    good, bad = results
    assert good["artifact_key"]
    assert good["tables"]
    assert bad["status"] == 400
    assert bad["error"]["code"] == "parse_error"


def test_include_tables_false_omits_tables(shared_service):
    app = firewall_app()
    result = shared_service.compile(
        app.program, app.topology, app.initial_state, include_tables=False
    )
    assert "tables" not in result
    assert result["artifact_key"]


def test_request_options_and_deadline_do_not_perturb_the_key(shared_service):
    """backend/deadline are execution-only: a request naming them is the
    same cache tenant as one that doesn't."""
    app = firewall_app()
    plain = shared_service.compile(
        app.program, app.topology, app.initial_state
    )
    tuned = shared_service.compile(
        app.program, app.topology, app.initial_state,
        options={"backend": "thread", "max_workers": 2},
        deadline_seconds=60.0,
    )
    assert tuned["artifact_key"] == plain["artifact_key"]
    assert tuned["tables"] == plain["tables"]


def test_version_reports_package_and_protocol(shared_service):
    body = shared_service.version()
    assert body["package"]
    assert body["protocol"] == protocol.PROTOCOL_VERSION
    assert body["artifact_format"] >= 1


def test_health_is_ok_on_a_clean_daemon(shared_service):
    ok, body = shared_service.health()
    assert ok
    assert body["ok"] is True
    assert body["integrity_errors"] == 0


def test_stats_reports_endpoint_latency_quantiles(shared_service):
    app = firewall_app()
    shared_service.compile(app.program, app.topology, app.initial_state)
    shared_service.version()
    stats = shared_service.stats()
    assert stats["compiles"]["cold"] >= 1
    endpoint = stats["endpoints"]["version"]
    assert endpoint["count"] >= 1
    assert set(endpoint["latency"]) == {"p50_ms", "p90_ms", "p99_ms", "max_ms"}
    assert stats["memo"]["size"] >= 1


def test_index_lists_endpoints(shared_service):
    status, body = raw_request(shared_service, "GET", "/")
    assert status == 200
    assert "POST /update" in body["endpoints"]


# ---------------------------------------------------------------------------
# Wire round-trips (no server needed)
# ---------------------------------------------------------------------------


class TestWireRoundTrips:
    @pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
    def test_program_round_trip_is_ast_equal(self, name, make):
        program = make().program
        wire = protocol.program_to_wire(program)
        assert isinstance(wire, str)
        assert protocol.program_from_wire(wire) == program

    @pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
    def test_topology_round_trip_keeps_the_fingerprint(self, name, make):
        topology = make().topology
        wire = protocol.topology_to_wire(topology)
        json.dumps(wire)  # wire form must be pure JSON
        rebuilt = protocol.topology_from_wire(wire)
        assert _topology_fingerprint(rebuilt) == _topology_fingerprint(
            topology
        )

    def test_delta_round_trip(self):
        from repro.netkat.ast import Filter, test

        app = firewall_app()
        delta = Delta(
            set_state=((0, 1),),
            replace_policy=Filter(test("ip_dst", 4)),
            with_policy=Filter(test("ip_dst", 5)),
            topology=app.topology,
        )
        wire = protocol.delta_to_wire(delta)
        json.dumps(wire)
        rebuilt = protocol.delta_from_wire(wire)
        assert rebuilt.set_state == delta.set_state
        assert rebuilt.replace_policy == delta.replace_policy
        assert rebuilt.with_policy == delta.with_policy
        assert _topology_fingerprint(rebuilt.topology) == (
            _topology_fingerprint(delta.topology)
        )

    def test_empty_delta_round_trips_to_a_noop(self):
        rebuilt = protocol.delta_from_wire(protocol.delta_to_wire(Delta()))
        assert rebuilt == Delta()

    def test_unknown_delta_key_is_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.delta_from_wire({"set_sate": [[0, 1]]})

    def test_options_round_trip(self):
        options = CompileOptions(backend="thread", max_workers=3)
        wire = protocol.options_to_wire(options)
        json.dumps(wire)
        assert sorted(wire) == [
            "backend", "compile_retries", "enforce_locality", "field_order",
            "max_frontier", "max_workers", "tag_field",
        ]
        rebuilt = protocol.options_from_wire(wire, CompileOptions())
        for field in protocol.REQUESTABLE_OPTION_FIELDS:
            assert getattr(rebuilt, field) == getattr(options, field)

    def test_bad_backend_is_rejected(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.options_from_wire(
                {"backend": "gpu"}, CompileOptions()
            )
        assert excinfo.value.code == "bad_options"


# ---------------------------------------------------------------------------
# State-layer units that want no HTTP in the way
# ---------------------------------------------------------------------------


class TestServiceState:
    def test_memo_size_must_be_positive(self):
        with pytest.raises(ValueError):
            ServiceState(memo_size=0)

    def test_unknown_artifact_error_carries_its_code(self):
        app = firewall_app()
        state = ServiceState()
        with pytest.raises(UnknownArtifactError) as excinfo:
            state.update_pipeline("missing", Delta())
        assert excinfo.value.code == "unknown_artifact_key"
        key, _, source = state.compile_pipeline(
            app.program, app.topology, app.initial_state, CompileOptions()
        )
        assert source == "cold"
        assert state.memo_get(key) is not None

    def test_deadline_maps_onto_execution_only_options(self):
        state = ServiceState()
        effective = state.effective_options(deadline_seconds=12.5)
        assert effective.deadline_seconds == 12.5
        # Execution-only: the deadline never perturbs the artifact key.
        app = firewall_app()
        keyed = Pipeline(
            app.program, app.topology, app.initial_state, effective
        )
        plain = Pipeline(app.program, app.topology, app.initial_state)
        assert keyed.artifact_key() == plain.artifact_key()

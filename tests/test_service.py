"""End-to-end tests for the compilation service.

Everything here runs against a live localhost daemon
(:func:`repro.service.serve_in_thread` around a real
``ThreadingHTTPServer``) talked to through the real keep-alive
``ServiceClient`` — the wire, the handlers, and the shared state are all
exercised exactly as a deployment would.  The invariants pinned:

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
  surfaces as a 503 and flips ``GET /health`` non-200;
- **transport**: a client's calls share one accepted connection, a
  daemon-side close is one silent reconnect, and a response that left a
  request body unread ends its connection instead of poisoning it;
- **request index**: a byte-identical repeat skips the parse, never
  aliases two requests with different keys, never caches a failure,
  and stays bounded by the memo.
"""

import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import closing, contextmanager

import pytest

from repro import CompileOptions, Delta, Pipeline, faults
from repro.apps import firewall_app, ids_app, ring_app
from repro.netkat.ast import conj, filter_, seq, test as field_test, union
from repro.netkat.packet import Location
from repro.netkat.parser import parse_policy
from repro.pipeline import ArtifactCache, StageError, _topology_fingerprint
from repro.service import (
    ServiceClient,
    ServiceError,
    create_server,
    serve_in_thread,
)
from repro.service import protocol
from repro.service import server as service_server
from repro.service.state import ServiceState, UnknownArtifactError
from repro.stateful.ast import link_update, state_eq
from repro.topology import star_topology

from seed_apps import APPS, firewall_policy_delta

# A Kleene star over a link: outside the compilable fragment, so every
# compile of it raises the same (deterministic) CompileError.
STAR_OVER_A_LINK = "(pt=2; pt<-1; (1:1)->(4:1); pt<-2)*"


@contextmanager
def fresh_service(**kwargs):
    """A throwaway daemon on an ephemeral port, torn down on exit."""
    server = create_server(**kwargs)
    with serve_in_thread(server) as url, closing(ServiceClient(url)) as client:
        yield client, server


@pytest.fixture(scope="module")
def shared_service(tmp_path_factory):
    """One daemon (with an on-disk cache) shared by the read-mostly
    tests; tests that assert on counters spin up their own."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    server = create_server(options=CompileOptions(cache_dir=str(cache_dir)))
    with serve_in_thread(server) as url, closing(ServiceClient(url)) as client:
        yield client


def accepted_connections(server):
    """The sockets ``server`` accepts from now on, in order."""
    accepted = []
    get_request = server.get_request

    def recording():
        connection, address = get_request()
        accepted.append(connection)
        return connection, address

    server.get_request = recording
    return accepted


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

    def test_concurrent_replace_updates_and_compiles_on_one_key(self):
        """Updates from one memoised base share its lineage root's engine
        and builder while other handlers compile the same key; every
        response is a direct build's bytes, over connections that
        survive."""
        app = ids_app()
        old = filter_(conj(field_test("pt", 2), field_test("ip_dst", 3)))
        deltas = [
            Delta(
                replace_policy=old,
                with_policy=filter_(
                    conj(field_test("pt", 2), field_test("ip_dst", 10 + k))
                ),
            )
            for k in range(20)
        ]
        direct = protocol.tables_to_wire(
            Pipeline(app.program, app.topology, app.initial_state).compiled
        )
        expected = [
            protocol.tables_to_wire(Pipeline(
                delta.apply_program(app.program), app.topology, app.initial_state
            ).compiled)
            for delta in deltas
        ]
        with fresh_service() as (client, server):
            key = client.compile(app.program, app.topology, app.initial_state)[
                "artifact_key"
            ]
            accepted = accepted_connections(server)
            url = client.base_url
            right = [0, 0]
            barrier = threading.Barrier(2)

            def updater():
                with closing(ServiceClient(url)) as own:
                    barrier.wait()
                    for delta, tables in zip(deltas, expected):
                        right[0] += own.update(key, delta)["tables"] == tables
                    right[0] += own.health()[0]

            def compiler():
                with closing(ServiceClient(url)) as own:
                    barrier.wait()
                    for _ in deltas:
                        result = own.compile(
                            app.program, app.topology, app.initial_state
                        )
                        right[1] += (result["artifact_key"] == key
                                     and result["tables"] == direct)
                    right[1] += own.health()[0]

            threads = [threading.Thread(target=updater),
                       threading.Thread(target=compiler)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert right == [len(deltas) + 1] * 2
            assert len(accepted) == 2  # one kept-alive connection each

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
            # Eviction drops the pipeline, not the (void) fingerprint.
            assert memo == {
                "size": 1, "capacity": 1, "evictions": 1, "index_entries": 2,
            }
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


def test_uncompilable_program_is_a_422_that_absorbed_nothing():
    """A ``CompileError`` is deterministic: one compile, a typed
    ``compile``-stage error, and nothing in /health."""
    star_over_a_link = parse_policy(STAR_OVER_A_LINK)
    with fresh_service() as (client, _):
        with pytest.raises(ServiceError) as excinfo:
            client.compile(star_over_a_link, firewall_app().topology, ())
        assert excinfo.value.status == 422
        assert excinfo.value.error["type"] == "StageError"
        assert excinfo.value.stage == "compile"
        assert "configuration C[] failed" in excinfo.value.error["message"]
        assert client.health()[1]["health"] == {}


def test_a_worker_fault_is_a_422_and_the_next_request_compiles():
    """A fault on a per-configuration compile fails that request on its
    first raise: a structured error, no memo entry, nothing absorbed —
    and the identical request after it compiles cleanly."""
    app = firewall_app()
    direct = Pipeline(app.program, app.topology, app.initial_state)
    plan = faults.FaultPlan({"executor.worker": faults.FaultRule(max_fires=1)})
    with fresh_service() as (client, _):
        with faults.injected(plan):
            with pytest.raises(ServiceError) as excinfo:
                client.compile(app.program, app.topology, app.initial_state)
        assert plan.hits("executor.worker") == 1
        assert excinfo.value.status == 422
        assert excinfo.value.error["type"] == "StageError"
        assert excinfo.value.stage == "compile"
        stats = client.stats()
        assert stats["memo"]["size"] == 0
        assert stats["health"] == {}

        result = client.compile(app.program, app.topology, app.initial_state)
        assert result["source"] == "cold"
        assert result["tables"] == protocol.tables_to_wire(direct.compiled)


@pytest.mark.filterwarnings("ignore::repro.pipeline.ArtifactCacheWarning")
def test_failed_compile_and_update_still_count_what_they_absorbed(tmp_path):
    """Contract (c): a failed compile never reaches the memo, but what
    it absorbed on the way is still in /health."""
    app = firewall_app()
    failing = {"cache.load": 1.0, "executor.worker": 1.0}
    options = CompileOptions(cache_dir=str(tmp_path))
    with fresh_service(options=options) as (client, server):
        with faults.injected(faults.FaultPlan(failing)):
            with pytest.raises(ServiceError) as excinfo:
                client.compile(app.program, app.topology, app.initial_state)
        assert excinfo.value.status == 422
        assert excinfo.value.stage == "compile"
        _, body = client.health()
        assert body["health"] == {"cache.load_error": 1}
        assert client.stats()["health"] == {"cache.load_error": 1}

        base = client.compile(app.program, app.topology, app.initial_state)
        with faults.injected(faults.FaultPlan(failing)):
            with pytest.raises(ServiceError) as excinfo:
                client.update(base["artifact_key"], firewall_policy_delta())
        assert excinfo.value.status == 422
        assert excinfo.value.stage == "compile"
        _, body = client.health()
        # Folded exactly once each; the clean compile in between added none.
        assert body["health"] == {"cache.load_error": 2}
        exposition = service_server.obs_export.prometheus_text(
            server.state.registry
        )
        assert (
            'repro_service_health_total{counter="cache.load_error"} 2'
            in exposition
        )


@pytest.mark.filterwarnings("ignore::repro.pipeline.ArtifactCacheWarning")
def test_failed_update_counts_what_it_absorbed_whatever_the_error_type(tmp_path):
    """A ``LocalityError`` is a plain ``Exception``, not a
    ``PipelineError``: the corrupt cache entry the failed /update
    quarantined on its way there is in /health all the same, exactly as
    when the same program fails through /compile."""
    topology = star_topology()
    base_program = seq(filter_(state_eq([0])), link_update("4:1", "1:1", [1]))
    # Two conflicting events at different switches: not locally determined.
    conflicting = union(
        base_program,
        seq(filter_(state_eq([0])), link_update("4:3", "2:1", [2])),
    )
    absorbed = {"cache.load_corrupt": 1, "cache.quarantined": 1}
    options = CompileOptions(cache_dir=str(tmp_path))
    corrupt = ArtifactCache(tmp_path).path(
        Pipeline(conflicting, topology, (0,), options).artifact_key()
    )
    with fresh_service(options=options) as (client, _):
        base = client.compile(base_program, topology, (0,))
        corrupt.write_bytes(b"garbage")
        with pytest.raises(ServiceError) as excinfo:
            client.update(
                base["artifact_key"],
                Delta(replace_policy=base_program, with_policy=conflicting),
            )
        assert excinfo.value.status == 422
        assert excinfo.value.error["type"] == "LocalityError"
        assert client.health()[1]["health"] == absorbed
    with fresh_service(options=options) as (client, _):
        corrupt.write_bytes(b"garbage")
        with pytest.raises(ServiceError) as excinfo:
            client.compile(conflicting, topology, (0,))
        assert excinfo.value.error["type"] == "LocalityError"
        assert client.health()[1]["health"] == absorbed


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
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        for forbidden in ("cache_dir", "cache_hmac_key", "strict_cache"):
            with pytest.raises(ServiceError) as excinfo:
                shared_service._post(
                    "/compile", {**wire, "options": {forbidden: "anything"}}
                )
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_request"

    def test_unknown_option_field_fails_loudly(self, shared_service):
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        with pytest.raises(ServiceError) as excinfo:
            shared_service._post(
                "/compile", {**wire, "options": {"backnd": "thread"}}
            )
        assert excinfo.value.status == 400
        assert "options" in str(excinfo.value)

    def test_removed_implementation_switches_are_a_400(self, shared_service):
        """Protocol 2 dropped four option names, protocol 3 the two
        executor ones and protocol 4 the ``options`` object itself; a
        client still sending one gets a structured unknown-field 400 —
        never a 500, and never a compile that silently ignored it."""
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        for removed, value in {
            "symbolic_extract": False, "knowledge_cache": False,
            "ordered_insert": False, "ast_memo": False,
            "backend": "thread", "max_workers": 2,
            "compile_retries": 0,
        }.items():
            with pytest.raises(ServiceError) as excinfo:
                shared_service._post(
                    "/compile", {**wire, "options": {removed: value}}
                )
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_request"
            assert "unknown request fields ['options']" in str(excinfo.value)

    @pytest.mark.parametrize(
        "extra,code",
        [
            ({"options": {"field_order": 5}}, "bad_request"),
            ({"options": {"field_order": "abc"}}, "bad_request"),
            ({"options": {"tag_field": 5}}, "bad_request"),
            ({"options": {"enforce_locality": "no"}}, "bad_request"),
            ({"options": {"enforce_locality": 1}}, "bad_request"),
            ({"options": {"max_frontier": True}}, "bad_request"),
            ({"deadline_seconds": True}, "bad_request"),
            ({"include_tables": "no"}, "bad_request"),
            ({"include_tables": 0}, "bad_request"),
            ({"initial_state": [False]}, "bad_initial_state"),
            ({"initial_state": [0.0]}, "bad_initial_state"),
            ({"initial_state": ["0"]}, "bad_initial_state"),
        ],
        ids=lambda p: json.dumps(p) if isinstance(p, dict) else p,
    )
    def test_ill_typed_option_values_are_a_400(
        self, extra, code, shared_service
    ):
        """Each of these used to be a bare 500, to compile the same
        program under a second artifact key, or to be coerced onto the
        well-typed spelling's answer (``"no"`` shipped the tables).  A
        request carrying ``options`` at all is an unknown-field 400."""
        app = firewall_app()
        plain = shared_service.compile(
            app.program, app.topology, app.initial_state
        )
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        status, body = raw_request(
            shared_service, "POST", "/compile",
            data=json.dumps({**wire, **extra}).encode(),
        )
        assert status == 400
        assert body["error"]["code"] == code
        repeat = shared_service.compile(
            app.program, app.topology, app.initial_state
        )
        assert repeat["source"] == "memo"
        assert repeat["artifact_key"] == plain["artifact_key"]

    def test_ill_typed_scalars_are_a_400_on_batch_and_update(self, shared_service):
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        status, body = raw_request(
            shared_service, "POST", "/compile/batch",
            data=json.dumps({"requests": [
                wire,
                {**wire, "include_tables": "no"},
                {**wire, "initial_state": [False]},
            ]}).encode(),
        )
        good, tables, initial = body["results"]
        assert status == 200 and "tables" in good
        assert (tables["status"], tables["error"]["code"]) == (400, "bad_request")
        assert (initial["status"], initial["error"]["code"]) == (
            400, "bad_initial_state",
        )
        for extra, code in [
            ({"include_tables": "no"}, "bad_request"),
            ({"include_tables": 1}, "bad_request"),
            ({"delta": {"set_state": [[0, 1.5]]}}, "bad_delta"),
            ({"delta": {"set_state": [[0, True]]}}, "bad_delta"),
            ({"delta": {"set_state": [[False, 1]]}}, "bad_delta"),
            ({"delta": {"set_state": [["0", 1]]}}, "bad_delta"),
        ]:
            update = {
                "artifact_key": good["artifact_key"],
                "delta": {"set_state": [[0, 1]]},
                **extra,
            }
            status, body = raw_request(
                shared_service, "POST", "/update",
                data=json.dumps(update).encode(),
            )
            assert (status, body["error"]["code"]) == (400, code), extra
            assert "tables" not in body

    @staticmethod
    def _assert_bad_topology(shared_service, edit):
        """``edit`` of the firewall's wire topology is a ``bad_topology``
        from ``topology_from_wire``, and a 400 on ``/compile`` and on an
        ``/update`` topology delta."""
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        topology = edit(wire["topology"])
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.topology_from_wire(topology)
        assert excinfo.value.code == "bad_topology"
        status, body = raw_request(
            shared_service, "POST", "/compile",
            data=json.dumps({**wire, "topology": topology}).encode(),
        )
        assert (status, body["error"]["code"]) == (400, "bad_topology")
        update = {
            "artifact_key": shared_service.compile(
                app.program, app.topology, app.initial_state
            )["artifact_key"],
            "delta": {"topology": topology},
        }
        status, body = raw_request(
            shared_service, "POST", "/update", data=json.dumps(update).encode()
        )
        assert (status, body["error"]["code"]) == (400, "bad_topology")

    @pytest.mark.parametrize("switch", [1.9, True, "7"], ids=repr)
    def test_ill_typed_switch_ids_are_a_400(self, switch, shared_service):
        """``int()`` used to turn these into switches 1 and 7: a topology
        nobody sent, compiled under its artifact key."""
        self._assert_bad_topology(
            shared_service, lambda topology: {**topology, "switches": [switch]}
        )

    @pytest.mark.parametrize("endpoint", ["2:1_0", "2: 10", "2:+10", "2:١٠"])
    def test_other_spellings_of_a_location_are_a_400(self, endpoint, shared_service):
        """``int()`` used to read each of these as ``"2:10"``: the same
        topology, fingerprint and artifact key as a request that wrote
        that link."""
        link = [endpoint, "1:3"]
        self._assert_bad_topology(
            shared_service,
            lambda topology: {**topology, "links": [*topology["links"], link]},
        )
        written = protocol.topology_to_wire(firewall_app().topology)
        written["links"].append(["2:10", "1:3"])
        links = set(protocol.topology_from_wire(written).links())
        assert (Location(2, 10), Location(1, 3)) in links

    @pytest.mark.parametrize("name", [None, 7], ids=repr)
    def test_non_string_host_names_are_a_400(self, name, shared_service):
        """``str()`` used to name these hosts ``"None"`` and ``"7"``."""
        self._assert_bad_topology(
            shared_service,
            lambda topology: {**topology, "hosts": [*topology["hosts"], [name, "1:3"]]},
        )

    def test_state_references_past_the_state_vector_are_a_400(
        self, shared_service
    ):
        """A request-caused ``IndexError`` from the program/state-vector
        width check used to leave as a bare 500."""
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        short = json.dumps({**wire, "initial_state": []}).encode()
        status, body = raw_request(shared_service, "POST", "/compile", data=short)
        assert (status, body["error"]["code"]) == (400, "bad_initial_state")
        assert "state component 0" in body["error"]["message"]
        base = shared_service.compile(
            app.program, app.topology, app.initial_state
        )
        status, body = raw_request(
            shared_service, "POST", "/update",
            data=json.dumps({
                "artifact_key": base["artifact_key"],
                "delta": {
                    "replace_policy": "pt<-2",
                    "with_policy": "state(3)=1; pt<-2",
                },
            }).encode(),
        )
        assert (status, body["error"]["code"]) == (400, "bad_delta")
        assert "state component 3" in body["error"]["message"]

    @pytest.mark.parametrize(
        "program",
        [
            "pt=1" + ";pt<-2" * 4000,
            "pt=1" + "+pt=2" * 4000,
            "!" * 3000 + "pt=1",
            "(" * 5000 + "pt=1" + ")" * 5000,
            "pt=1" + "*" * 3000,
        ],
        ids=["seq", "union", "neg", "parens", "star"],
    )
    def test_a_program_nested_past_the_stack_is_a_400(
        self, program, shared_service
    ):
        """A few KB of nesting exhausts the interpreter stack in the
        parser, in ``repr(program)`` for the artifact key, or in a stage
        walk; each used to be a bare ``500 RecursionError``."""
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        deep = json.dumps({**wire, "program": program})
        assert len(deep) < 64 * 1024
        host, port = shared_service.base_url.rsplit("/", 1)[1].split(":")
        with closing(
            http.client.HTTPConnection(host, int(port), timeout=60)
        ) as connection:
            def post(path, payload):
                connection.request("POST", path, payload)
                response = connection.getresponse()
                return response.status, json.loads(response.read())

            status, body = post("/compile", deep)
            assert (status, body["error"]["code"]) == (400, "program_too_deep")
            # The handler thread and its connection survive.
            status, body = post("/compile", json.dumps(wire))
            assert status == 200 and body["tables"]
            key = body["artifact_key"]
            status, body = post("/update", json.dumps({
                "artifact_key": key,
                "delta": {"replace_policy": "pt<-2", "with_policy": program},
            }))
            assert (status, body["error"]["code"]) == (400, "program_too_deep")
            status, body = post(
                "/compile/batch", json.dumps({"requests": [
                    json.loads(deep), wire,
                ]})
            )
            failed, served = body["results"]
            assert (failed["status"], failed["error"]["code"]) == (
                400, "program_too_deep",
            )
            assert status == 200 and served["artifact_key"] == key
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200 and json.loads(response.read())["ok"]

    def test_non_ascii_digits_are_a_parse_error(self, shared_service):
        """``pt=\u0663`` is not ``pt=3``: nothing is coerced onto the
        ASCII spelling's artifact key; the request is the structured 400
        of any other syntax error, and the connection survives."""
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        host, port = shared_service.base_url.rsplit("/", 1)[1].split(":")
        with closing(
            http.client.HTTPConnection(host, int(port), timeout=60)
        ) as connection:
            def post(payload):
                connection.request("POST", "/compile", json.dumps(payload))
                response = connection.getresponse()
                return response.status, json.loads(response.read())

            for program in ("pt=\u0663", "state(\u0660)=\u0661; pt<-1"):
                status, body = post({**wire, "program": program})
                assert (status, body["error"]["code"]) == (400, "parse_error")
            status, body = post(wire)
            assert status == 200 and body["tables"]

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

    def test_unknown_update_field_is_a_400(self, shared_service):
        app = firewall_app()
        base = shared_service.compile(
            app.program, app.topology, app.initial_state
        )
        status, body = raw_request(
            shared_service, "POST", "/update",
            data=json.dumps({
                "artifact_key": base["artifact_key"], "delta": {},
                "include_table": False, "deadline_seconds": "soon",
            }).encode(),
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "deadline_seconds" in body["error"]["message"]
        assert "include_table'" in body["error"]["message"]

    def test_unknown_batch_field_is_a_400(self, shared_service):
        status, body = raw_request(
            shared_service, "POST", "/compile/batch",
            data=json.dumps({"requests": [], "deadline_seconds": -1}).encode(),
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "deadline_seconds" in body["error"]["message"]

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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_deadline_is_a_400(self, shared_service, token):
        """``json.loads`` reads these tokens as floats, and NaN passed a
        ``<= 0`` check, switching the budget off behind a 200."""
        app = firewall_app()
        wire = protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state
        )
        body = json.dumps(wire)[:-1] + f', "deadline_seconds": {token}}}'
        status, answer = raw_request(
            shared_service, "POST", "/compile", data=body.encode()
        )
        assert status == 400
        assert answer["error"]["code"] == "bad_request"
        assert "deadline_seconds" in answer["error"]["message"]

    @pytest.mark.parametrize("declared", ["twelve", "-5", "1e3", ""])
    def test_malformed_content_length_is_a_400(self, shared_service, declared):
        host, port = shared_service.base_url.rsplit("/", 1)[1].split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(
                b"POST /compile HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + declared.encode() + b"\r\n\r\n"
            )
            response = http.client.HTTPResponse(sock, method="POST")
            response.begin()
            body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["type"] == "ProtocolError"
        assert body["error"]["code"] == "bad_request"

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
        protocol.compile_request_to_wire(
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


@pytest.mark.parametrize(
    "changes",
    [
        {"initial_state": [True]},
        {"initial_state": [1.9]},
        {"initial_state": ["2"]},
        {"deadline_seconds": "5"},
        {"deadline_seconds": True},
        {"include_tables": 0},
        {"include_tables": "false"},
    ],
    ids=lambda changes: "-".join(f"{k}={v!r}" for k, v in changes.items()),
)
def test_client_raises_on_what_the_daemon_rejects_before_sending(changes):
    """The daemon answers each of these with a 400; the client must not
    coerce it onto a well-typed request (``[True]`` would compile state
    ``(1,)`` under its artifact key), and raises before connecting."""
    app = firewall_app()
    kwargs = dict(changes)
    initial = kwargs.pop("initial_state", list(app.initial_state))
    with pytest.raises(TypeError):
        protocol.compile_request_to_wire(app.program, app.topology, initial, **kwargs)
    with closing(socket.socket()) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.setblocking(False)
        port = listener.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(TypeError):
            client.compile(app.program, app.topology, initial, **kwargs)
        with pytest.raises(BlockingIOError):
            listener.accept()  # nothing connected, so nothing was sent


@pytest.mark.parametrize("deadline", [float("nan"), float("inf"), float("-inf")])
def test_client_raises_on_a_non_finite_deadline_before_sending(deadline):
    """JSON has no spelling for a non-finite number (``json.dumps``
    would send the token ``NaN``), so the client refuses it before
    connecting."""
    app = firewall_app()
    with pytest.raises(ValueError, match="deadline_seconds"):
        protocol.compile_request_to_wire(
            app.program, app.topology, app.initial_state, deadline_seconds=deadline
        )
    with closing(socket.socket()) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.setblocking(False)
        port = listener.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(ValueError, match="deadline_seconds"):
            client.compile(
                app.program, app.topology, app.initial_state,
                deadline_seconds=deadline,
            )
        with pytest.raises(BlockingIOError):
            listener.accept()  # nothing connected, so nothing was sent


def test_include_tables_false_omits_tables(shared_service):
    app = firewall_app()
    result = shared_service.compile(
        app.program, app.topology, app.initial_state, include_tables=False
    )
    assert "tables" not in result
    assert result["artifact_key"]


def test_request_options_and_deadline_do_not_perturb_the_key(shared_service):
    """The deadline is execution-only: a request naming it is the same
    cache tenant as one that doesn't.  Options cannot travel at all: the
    client has no spelling for them."""
    app = firewall_app()
    plain = shared_service.compile(
        app.program, app.topology, app.initial_state
    )
    tuned = shared_service.compile(
        app.program, app.topology, app.initial_state,
        deadline_seconds=60.0,
    )
    assert tuned["artifact_key"] == plain["artifact_key"]
    assert tuned["tables"] == plain["tables"]
    for spelling in (shared_service.compile, protocol.compile_request_to_wire):
        with pytest.raises(TypeError):
            spelling(
                app.program, app.topology, app.initial_state,
                options={"compile_retries": 0},
            )


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


def test_stats_quantiles_are_ordered_histogram_estimates():
    """/stats reads its quantiles off the request histogram: ordered,
    capped by the slowest request, and within the octave bucket's
    factor two of the exact quantile of what was recorded."""
    state = ServiceState()
    assert state.stats_body()["endpoints"] == {}  # reading creates nothing
    samples = [100e-6 * 1.01 ** i for i in range(700)]  # 0.1 ms .. 105 ms
    for seconds in samples[::2] + samples[1::2]:
        state.record_request("compile", seconds, error=False)
    latency = state.stats_body()["endpoints"]["compile"]["latency"]
    assert (
        latency["p50_ms"] <= latency["p90_ms"] <= latency["p99_ms"]
        <= latency["max_ms"]
    )
    assert latency["max_ms"] == round(samples[-1] * 1000, 3)
    for name, q in (("p50_ms", 0.50), ("p90_ms", 0.90), ("p99_ms", 0.99)):
        exact_ms = samples[int(q * len(samples))] * 1000
        assert exact_ms / 2 <= latency[name] <= exact_ms * 2, name


def exposition_samples(text):
    """``{'name{labels}': value}`` of a Prometheus exposition; a series
    that appears twice is a failure."""
    samples = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        assert series not in samples, f"{series} is exposed twice"
        samples[series] = float(value)
    return samples


@pytest.mark.filterwarnings("ignore::repro.pipeline.ArtifactCacheWarning")
def test_stats_health_and_metrics_are_views_of_one_store(tmp_path):
    """One scripted pass over every way a request can end; afterwards
    each number /stats and /health report is the number /metrics
    exposes under the matching series."""
    first, second, third = firewall_app(), ids_app(), ring_app(2)
    text = protocol.program_to_wire(first.program)
    spaced = "  " + text.replace(";", " ;\n ") + "\n"
    options = CompileOptions(cache_dir=str(tmp_path))
    with fresh_service(options=options, memo_size=1) as (client, _):
        sources = [
            client.compile(program, app.topology, app.initial_state)["source"]
            for program, app in (
                (text, first),      # cold
                (text, first),      # found by fingerprint
                (spaced, first),    # found by key
                (second.program, second),  # cold; evicts the first
                (text, first),      # from disk; evicts the second
            )
        ]
        assert sources == ["cold", "memo", "memo", "cold", "disk"]
        key = client.compile(text, first.topology, first.initial_state)[
            "artifact_key"
        ]
        client.update(key, Delta(set_state=((0, 1),)))  # evicts its base
        for status, request in (
            (400, lambda: client.compile(
                "pt=", first.topology, first.initial_state)),
            (404, lambda: client.update(key, Delta(set_state=((0, 1),)))),
        ):
            with pytest.raises(ServiceError) as excinfo:
                request()
            assert excinfo.value.status == status
        assert raw_request(client, "GET", "/nope")[0] == 404
        failing = {"cache.load": 1.0, "executor.worker": 1.0}
        with faults.injected(faults.FaultPlan(failing)):
            with pytest.raises(ServiceError) as excinfo:
                client.compile(third.program, third.topology, third.initial_state)
        assert excinfo.value.stage == "compile"

        stats = client.stats()
        _, health = client.health()
        with urllib.request.urlopen(
            f"{client.base_url}/metrics", timeout=30
        ) as response:
            samples = exposition_samples(response.read().decode())

    assert stats["compiles"] == {
        "memo_hits": 3, "index_hits": 2, "disk_hits": 1, "cold": 2,
        "singleflight_coalesced": 0, "updates": 1,
    }
    assert stats["memo"]["evictions"] == 3
    assert stats["health"] == {"cache.load_error": 1}
    assert stats["endpoints"]["compile"]["errors"] == 2
    assert stats["endpoints"]["update"] == {
        **stats["endpoints"]["update"], "count": 2, "errors": 1,
    }

    for endpoint, data in stats["endpoints"].items():
        label = f'{{endpoint="{endpoint}"}}'
        assert data["count"] == samples["repro_service_requests_total" + label]
        assert data["errors"] == samples["repro_service_errors_total" + label]
        assert data["count"] == samples[
            "repro_service_request_seconds_count" + label
        ]
        assert data["latency"]["max_ms"] == round(
            samples["repro_service_request_seconds_max" + label] * 1000, 3
        )
    for name, series in (
        ("memo_hits", 'repro_service_compiles_total{source="memo"}'),
        ("disk_hits", 'repro_service_compiles_total{source="disk"}'),
        ("cold", 'repro_service_compiles_total{source="cold"}'),
        ("singleflight_coalesced",
         'repro_service_compiles_total{source="coalesced"}'),
        ("index_hits", "repro_service_request_index_hits_total"),
        ("updates", "repro_service_updates_total"),
    ):
        assert stats["compiles"][name] == samples[series], name
    for name, series in (
        ("evictions", "repro_service_memo_evictions_total"),
        ("size", "repro_service_memo_pipelines"),
        ("capacity", "repro_service_memo_capacity"),
        ("index_entries", "repro_service_request_index_entries"),
    ):
        assert stats["memo"][name] == health["memo"][name] == samples[series]
    exposed_health = {
        series.split('"')[1]: value
        for series, value in samples.items()
        if series.startswith("repro_service_health_total{")
    }
    assert stats["health"] == health["health"] == exposed_health
    assert (
        health["integrity_errors"]
        == samples["repro_service_integrity_errors_total"]
        == 0
    )


def test_index_lists_endpoints(shared_service):
    status, body = raw_request(shared_service, "GET", "/")
    assert status == 200
    assert "POST /update" in body["endpoints"]


# ---------------------------------------------------------------------------
# Transport: persistent connections, one silent reconnect, unread bodies
# ---------------------------------------------------------------------------


def kill(connections):
    """What the peer of a dead daemon process sees on its sockets."""
    for connection in connections:
        try:
            connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the handler already closed it


class TestTransport:
    def test_sequential_calls_share_one_connection(self):
        app = firewall_app()
        with fresh_service() as (client, server):
            accepted = accepted_connections(server)
            client.version()
            for _ in range(5):
                client.compile(app.program, app.topology, app.initial_state)
            with pytest.raises(ServiceError):  # a 4xx keeps the connection
                client.compile("filter (", app.topology, (0,))
            client.update(
                client.compile(
                    app.program, app.topology, app.initial_state
                )["artifact_key"],
                Delta(set_state=((0, 1),)),
            )
            assert client.stats()["endpoints"]["compile"]["count"] == 7
            assert len(accepted) == 1

    def test_restarted_daemon_is_one_silent_reconnect(self):
        app = firewall_app()
        first = create_server()
        accepted = accepted_connections(first)
        with closing(ServiceClient(first.base_url)) as client:
            with serve_in_thread(first):
                before = client.compile(
                    app.program, app.topology, app.initial_state
                )
            kill(accepted)

            # Nobody listening: the reused socket is stale, and the one
            # reconnect it earns is refused -- which the caller must see.
            with pytest.raises(ConnectionError):
                client.version()

            second = create_server(port=first.server_address[1])
            reconnects = accepted_connections(second)
            with serve_in_thread(second):
                after = client.compile(
                    app.program, app.topology, app.initial_state
                )
                assert after["source"] == "cold"  # the new daemon's own state
                assert after["tables"] == before["tables"]
                client.version()
                assert len(reconnects) == 1
                # Stale again, while the daemon is up: invisible.
                kill(reconnects)
                assert client.version()["protocol"] == protocol.PROTOCOL_VERSION
                assert len(reconnects) == 2

    def test_idle_timeout_close_is_invisible(self, monkeypatch):
        monkeypatch.setattr(service_server._Handler, "timeout", 0.05)
        with fresh_service() as (client, server):
            accepted = accepted_connections(server)
            client.version()
            deadline = time.monotonic() + 5
            while accepted[0].fileno() != -1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert accepted[0].fileno() == -1, "handler never timed out"
            assert client.version()["protocol"] == protocol.PROTOCOL_VERSION
            assert len(accepted) == 2

    def test_refused_fresh_connection_raises(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        with pytest.raises(ConnectionRefusedError):
            ServiceClient(f"http://127.0.0.1:{port}").version()

    def test_one_client_shared_by_eight_threads(self):
        apps = [make() for _, make in APPS] + [ring_app(4)]
        expected = [
            protocol.tables_to_wire(
                Pipeline(app.program, app.topology, app.initial_state).compiled
            )
            for app in apps
        ]
        with fresh_service() as (client, server):
            accepted = accepted_connections(server)
            barrier = threading.Barrier(len(apps))
            right = [0] * len(apps)

            def worker(slot):
                app = apps[slot]
                barrier.wait()
                for _ in range(6):
                    result = client.compile(
                        app.program, app.topology, app.initial_state
                    )
                    right[slot] += result["tables"] == expected[slot]

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(len(apps))
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # shake the idle-connection pool
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert right == [6] * 8
            # Never more connections than concurrent callers.
            assert 1 <= len(accepted) <= len(apps)

    def test_trace_id_echo_and_structured_errors_survive(self):
        app = firewall_app()
        with fresh_service() as (_, server), closing(
            ServiceClient(server.base_url, trace_id="trace-abc.1")
        ) as client:
            client.compile(app.program, app.topology, app.initial_state)
            assert client.last_trace_id == "trace-abc.1"
            with pytest.raises(ServiceError) as excinfo:
                client.update("0" * 64, Delta(set_state=((0, 1),)))
            assert excinfo.value.status == 404
            assert excinfo.value.code == "unknown_artifact_key"
            assert excinfo.value.error["trace_id"] == "trace-abc.1"
            assert client.last_trace_id == "trace-abc.1"
            with faults.injected(
                faults.FaultPlan({"stage.nes": faults.FaultRule(max_fires=1)})
            ):
                with pytest.raises(ServiceError) as excinfo:
                    ids = ids_app()
                    client.compile(ids.program, ids.topology, ids.initial_state)
            assert excinfo.value.status == 422
            assert excinfo.value.stage == "nes"

    @pytest.mark.parametrize(
        "method,path,headers,body",
        [
            ("POST", "/nope", {}, b'{"program": "drop"}'),
            ("POST", "/compile", {"Content-Length": "99999999"}, b"{}"),
            ("POST", "/compile", {"Content-Length": "junk"}, b"{}"),
            ("GET", "/stats", {}, b"stray body"),
        ],
        ids=["unknown-path", "oversized", "bad-length", "get-with-body"],
    )
    def test_unread_body_never_poisons_the_next_request(
        self, shared_service, method, path, headers, body
    ):
        """Contract (c): every failure is structured JSON -- including
        the request after one whose body the daemon did not read."""
        host = shared_service.base_url.rsplit("/", 1)[1]
        connection = http.client.HTTPConnection(host, timeout=30)
        try:
            connection.putrequest(method, path)
            for name, value in {
                "Content-Length": str(len(body)), **headers
            }.items():
                connection.putheader(name, value)
            connection.endheaders(body)
            first = connection.getresponse()
            answer = json.loads(first.read())
            assert first.getheader("Content-Type") == "application/json"
            if first.status != 200:
                assert answer["error"]["code"] in (
                    "unknown_endpoint", "bad_request"
                )
            # The daemon ended the connection rather than parse the
            # leftover body as a request line; http.client reconnects.
            assert first.getheader("Connection") == "close"
            connection.request("GET", "/version")
            second = connection.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["protocol"] == (
                protocol.PROTOCOL_VERSION
            )
        finally:
            connection.close()

    def test_consumed_body_keeps_the_connection(self, shared_service):
        host = shared_service.base_url.rsplit("/", 1)[1]
        connection = http.client.HTTPConnection(host, timeout=30)
        try:
            for _ in range(2):  # a 400 with its body read is no reason to close
                connection.request("POST", "/compile", body=b"not json")
                response = connection.getresponse()
                assert response.status == 400
                assert json.loads(response.read())["error"]["code"] == (
                    "bad_request"
                )
                assert response.getheader("Connection") is None
                assert connection.sock is not None
        finally:
            connection.close()


# ---------------------------------------------------------------------------
# Request index: byte-identical repeats skip the parse, nothing aliases
# ---------------------------------------------------------------------------


def index_hits(client):
    return client.stats()["compiles"]["index_hits"]


class TestRequestIndex:
    def test_identical_repeat_is_an_index_hit(self):
        app = firewall_app()
        with fresh_service() as (client, _):
            first = client.compile(app.program, app.topology, app.initial_state)
            assert first["source"] == "cold" and index_hits(client) == 0
            again = client.compile(app.program, app.topology, app.initial_state)
            assert again["source"] == "memo"
            assert again["artifact_key"] == first["artifact_key"]
            assert again["tables"] == first["tables"]
            compiles = client.stats()["compiles"]
            assert compiles["index_hits"] == 1
            assert compiles["memo_hits"] == 1  # a hit is counted as a memo hit

    def test_batch_entries_consult_the_index(self):
        app = firewall_app()
        with fresh_service() as (client, _):
            entry = protocol.compile_request_to_wire(
                app.program, app.topology, app.initial_state
            )
            results = client.compile_batch([entry, entry, entry])
            assert [r["source"] for r in results] == ["cold", "memo", "memo"]
            assert index_hits(client) == 2

    def test_whitespace_variant_takes_the_full_path_to_the_same_key(self):
        app = firewall_app()
        text = protocol.program_to_wire(app.program)
        spaced = "  " + text.replace(";", " ;\n ") + "\n"
        assert spaced != text
        with fresh_service() as (client, _):
            first = client.compile(text, app.topology, app.initial_state)
            variant = client.compile(spaced, app.topology, app.initial_state)
            assert variant["artifact_key"] == first["artifact_key"]
            assert variant["source"] == "memo"
            assert index_hits(client) == 0  # found by key, not by fingerprint
            client.compile(spaced, app.topology, app.initial_state)
            assert index_hits(client) == 1

    @pytest.mark.parametrize(
        "options",
        [
            {"field_order": ["pt", "sw", "ip_dst", "ip_src"]},
            {"tag_field": "vlan"},
            {"enforce_locality": False},
            {"max_frontier": 17},
        ],
        ids=lambda options: next(iter(options)),
    )
    def test_output_affecting_options_never_alias(self, options):
        """No option changes the output, so none travels: a request
        naming one is an unknown-field 400 — on its own and as a batch
        entry — that is never indexed, and the connection survives it."""
        app = firewall_app()
        with fresh_service() as (client, server):
            accepted = accepted_connections(server)
            plain = client.compile(app.program, app.topology, app.initial_state)
            wire = {
                **protocol.compile_request_to_wire(
                    app.program, app.topology, app.initial_state
                ),
                "options": options,
            }
            with pytest.raises(ServiceError) as excinfo:
                client._post("/compile", wire)
            assert (excinfo.value.status, excinfo.value.code) == (
                400, "bad_request",
            )
            (entry,) = client.compile_batch([wire])
            assert (entry["status"], entry["error"]["code"]) == (
                400, "bad_request",
            )
            again = client.compile(app.program, app.topology, app.initial_state)
            assert again["source"] == "memo"
            assert again["artifact_key"] == plain["artifact_key"]
            assert index_hits(client) == 1
            assert len(accepted) == 1

    def test_execution_only_fields_share_an_entry(self):
        app = firewall_app()
        with fresh_service() as (client, server):
            first = client.compile(app.program, app.topology, app.initial_state)
            timed = client.compile(
                app.program, app.topology, app.initial_state,
                deadline_seconds=60.0,
            )
            bare = client.compile(
                app.program, app.topology, app.initial_state,
                include_tables=False,
            )
            assert index_hits(client) == 2
            assert timed["tables"] == first["tables"]
            assert "tables" not in bare
            assert (
                first["artifact_key"]
                == timed["artifact_key"]
                == bare["artifact_key"]
            )
            assert len(server.state._index) == 1

    def test_evicted_pipeline_falls_through_to_disk(self, tmp_path):
        apps = [firewall_app(), ids_app(), ring_app(4)]
        options = CompileOptions(cache_dir=str(tmp_path))
        with fresh_service(options=options, memo_size=2) as (client, _):
            served = [
                client.compile(app.program, app.topology, app.initial_state)
                for app in apps
            ]
            assert [r["source"] for r in served] == ["cold"] * 3
            # The firewall's fingerprint is still indexed; its pipeline
            # is not resident, so the hit is void and the disk answers.
            again = client.compile(
                apps[0].program, apps[0].topology, apps[0].initial_state
            )
            assert again["source"] == "disk"
            assert again["tables"] == served[0]["tables"]
            assert index_hits(client) == 0
            compiles = client.stats()["compiles"]
            assert (compiles["cold"], compiles["disk_hits"]) == (3, 1)

    def test_failed_requests_never_enter_the_index(self):
        app = firewall_app()
        bad_topology = {"links": [["1:1"]]}
        with fresh_service() as (client, server):
            for _ in range(2):
                with pytest.raises(ServiceError) as excinfo:
                    client.compile("filter (", app.topology, (0,))
                assert excinfo.value.code == "parse_error"
                with pytest.raises(ServiceError) as excinfo:
                    client.compile(app.program, bad_topology, (0,))
                assert excinfo.value.code == "bad_topology"
                entry = protocol.compile_request_to_wire(
                    app.program, app.topology, app.initial_state
                )
                (result,) = client.compile_batch(
                    [{**entry, "initial_state": ["x"]}]
                )
                assert result["error"]["code"] == "bad_initial_state"
            with faults.injected(
                faults.FaultPlan({"stage.nes": faults.FaultRule(max_fires=1)})
            ):
                with pytest.raises(ServiceError):
                    client.compile(app.program, app.topology, app.initial_state)
            assert dict(server.state._index) == {}
            good = client.compile(app.program, app.topology, app.initial_state)
            assert good["source"] == "cold"
            assert list(server.state._index.values()) == [
                good["artifact_key"]
            ]

    def test_index_and_wire_tables_are_bounded_by_the_memo(self):
        app = firewall_app()
        memo_size = 3
        with fresh_service(memo_size=memo_size) as (client, server):
            state = server.state
            for value in range(10 * memo_size):
                program = protocol.program_to_wire(app.program).replace(
                    "ip_dst=4", f"ip_dst={100 + value}"
                )
                # Two spellings per program: the index outgrows the memo.
                for text in (program, program + " "):
                    client.compile(text, app.topology, app.initial_state)
            assert state.memo_snapshot()["size"] == memo_size
            assert memo_size < len(state._index) <= 4 * memo_size

    def test_wire_tables_are_computed_once_per_memo_entry(self):
        app = firewall_app()
        with fresh_service() as (client, server):
            first = client.compile(app.program, app.topology, app.initial_state)
            # What replaced the per-entry dict of texts: the memoised
            # pipeline's merged tables are built once and each carries
            # its serialised text from the first response on, so a
            # repeat builds no table text.
            pipeline = server.state.memo_get(first["artifact_key"])
            tables = pipeline.compiled.guarded_tables()
            assert all("_repr" in vars(table) for table in tables.values())
            for _ in range(3):
                again = client.compile(
                    app.program, app.topology, app.initial_state
                )
                assert again["tables"] == first["tables"]
            repeat = pipeline.compiled.guarded_tables()
            assert all(repeat[switch] is tables[switch] for switch in tables)
            assert first["tables"] == {
                str(switch): vars(table)["_repr"]
                for switch, table in tables.items()
            }

    def test_index_series_are_scraped(self):
        app = firewall_app()
        with fresh_service() as (client, server):
            for _ in range(3):
                client.compile(app.program, app.topology, app.initial_state)
            exposition = service_server.obs_export.prometheus_text(
                server.state.registry
            )
            assert "repro_service_request_index_hits_total 2" in exposition
            assert "repro_service_request_index_entries 1" in exposition


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

    def test_bad_backend_is_rejected(self):
        """A request body has no options object to carry a backend in."""
        app = firewall_app()
        with pytest.raises(TypeError):
            protocol.compile_request_to_wire(
                app.program, app.topology, app.initial_state,
                options={"backend": "gpu"},
            )
        for removed in ("options_to_wire", "options_from_wire",
                        "REQUESTABLE_OPTION_FIELDS"):
            assert not hasattr(protocol, removed)


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

    def test_flights_do_not_outlive_their_requests(self):
        """The single-flight map holds the keys in flight, not every key
        ever seen: a stream of never-seen programs leaves it empty."""
        topology = firewall_app().topology
        state = ServiceState()
        keys = set()
        for i in range(200):
            program = parse_policy(f"pt=2 & ip_dst={i}; pt<-1")
            key, _, source = state.compile_pipeline(
                program, topology, (), CompileOptions()
            )
            assert source == "cold"
            keys.add(key)
        assert len(keys) == 200
        assert len(state._flights) == 0

    def test_a_failed_compile_leaves_no_flight(self):
        state = ServiceState()
        star_over_a_link = parse_policy(STAR_OVER_A_LINK)
        with pytest.raises(StageError):
            state.compile_pipeline(
                star_over_a_link, firewall_app().topology, (), CompileOptions()
            )
        assert state._flights == {}
        # The daemon-level half of the CompileError fix: nothing absorbed.
        assert state.aggregated_health() == {}

    def test_one_flight_per_key_under_contention(self):
        """8 threads on one key (more than the cores), all past the memo
        check before anyone compiles: one compile, seven adoptions, and
        the flight entry outlives none of them."""
        app = ring_app(4)
        workers = 8
        state = ServiceState()
        barrier = threading.Barrier(workers)
        passed = threading.local()
        memo_get = state.memo_get

        def memo_get_after_everyone_missed(key):
            if not getattr(passed, "first", False):
                passed.first = True
                found = memo_get(key)
                barrier.wait(timeout=30)
                return found
            return memo_get(key)

        state.memo_get = memo_get_after_everyone_missed
        sources = [None] * workers

        def request(slot):
            _, _, sources[slot] = state.compile_pipeline(
                app.program, app.topology, app.initial_state, CompileOptions()
            )

        threads = [
            threading.Thread(target=request, args=(slot,))
            for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(sources) == ["coalesced"] * (workers - 1) + ["cold"]
        assert state._flights == {}

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

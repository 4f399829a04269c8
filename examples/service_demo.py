#!/usr/bin/env python3
"""Compilation as a service: the daemon, end to end.

This is the fleet-side story — a controller asks a long-running
compilation service for tables instead of linking the compiler:

1. start the daemon in-process (``repro.service.serve_in_thread``;
   a deployment would run ``python -m repro serve --port 8008
   --cache-dir DIR`` instead) with a shared on-disk artifact cache;
2. compile the stateful firewall over HTTP through the keep-alive
   ``ServiceClient`` and check the served tables are byte-identical to
   a direct ``Pipeline`` build;
3. repeat the request (an in-process memo hit, found by the request's
   fingerprint, over the connection the first compile opened) and push
   an incremental ``Delta`` through ``POST /update``;
4. read ``GET /health`` and the memo/disk/cold/single-flight hit
   counters from ``GET /stats``;
5. scrape ``GET /metrics`` and check the Prometheus text exposition
   carries the compile-source, request, and latency series.

Run:  python examples/service_demo.py

This script doubles as the CI smoke step for the service: it exits
non-zero if any served artifact deviates from the direct build, or if
the repeat compile is not a memo hit on the first compile's connection.
"""

import tempfile
import urllib.request

from repro import CompileOptions, Delta, Pipeline
from repro.apps import firewall_app
from repro.service import ServiceClient, create_server, serve_in_thread
from repro.service.protocol import tables_to_wire


def main() -> None:
    app = firewall_app()
    direct = Pipeline(app.program, app.topology, app.initial_state)

    with tempfile.TemporaryDirectory() as cache_dir:
        server = create_server(
            options=CompileOptions(cache_dir=cache_dir), memo_size=64
        )
        # Every connection the daemon accepts, to show the client keeps
        # one open instead of reconnecting per request.
        accepted = []
        accept = server.get_request

        def recording_accept():
            connection, address = accept()
            accepted.append(address)
            return connection, address

        server.get_request = recording_accept
        with serve_in_thread(server) as base_url:
            print(f"daemon listening on {base_url} (cache: {cache_dir})\n")
            client = ServiceClient(base_url)

            version = client.version()
            print(
                f"service version: package {version['package']}, "
                f"protocol {version['protocol']}, "
                f"artifact format {version['artifact_format']}"
            )

            # -- cold compile over the wire ------------------------------
            result = client.compile(
                app.program, app.topology, app.initial_state
            )
            print(f"\nPOST /compile -> source={result['source']}")
            print(f"  artifact key: {result['artifact_key'][:16]}...")
            print(f"  stages: {result['report']['stages']}")
            assert result["source"] == "cold"
            assert result["tables"] == tables_to_wire(direct.compiled), (
                "served tables deviate from the direct Pipeline build"
            )
            assert result["artifact_key"] == direct.artifact_key()
            print("  tables byte-identical to the direct build: ok")

            # -- warm repeat: the in-process pipeline memo ----------------
            again = client.compile(
                app.program, app.topology, app.initial_state
            )
            print(
                f"\nPOST /compile (repeat) -> source={again['source']}, "
                f"{len(accepted)} connection(s) accepted so far"
            )
            assert again["source"] == "memo"
            assert len(accepted) == 1, (
                f"the client reconnected: {len(accepted)} connections for "
                "version + compile + repeat compile"
            )

            # -- incremental recompilation over the wire ------------------
            delta = Delta(set_state=((0, 1),))
            updated = client.update(result["artifact_key"], delta)
            reuse = updated["report"]["stats"]["update.reuse_percent"]
            print(
                f"\nPOST /update (state(0) <- 1) -> "
                f"new key {updated['artifact_key'][:16]}..., "
                f"{reuse}% of the build reused"
            )
            cold = Pipeline(
                app.program,
                app.topology,
                delta.apply_initial_state(app.initial_state),
            )
            assert updated["tables"] == tables_to_wire(cold.compiled), (
                "updated tables deviate from a cold post-delta rebuild"
            )

            # -- the observability surface --------------------------------
            ok, health = client.health()
            print(f"\nGET /health -> ok={ok} health={health['health']}")
            assert ok, f"daemon unhealthy: {health}"

            stats = client.stats()
            print("GET /stats ->")
            print(f"  compiles: {stats['compiles']}")
            print(f"  memo: {stats['memo']}")
            for endpoint, row in sorted(stats["endpoints"].items()):
                latency = row["latency"].get("p50_ms", "-")
                print(
                    f"  {endpoint}: {row['count']} requests, "
                    f"{row['errors']} errors, p50 {latency} ms"
                )
            assert stats["compiles"]["memo_hits"] >= 1
            assert stats["compiles"]["index_hits"] >= 1
            assert stats["compiles"]["cold"] >= 1

            # -- Prometheus exposition ------------------------------------
            with urllib.request.urlopen(
                f"{base_url}/metrics", timeout=30
            ) as resp:
                content_type = resp.headers["Content-Type"]
                exposition = resp.read().decode()
            assert content_type.startswith("text/plain; version=0.0.4"), (
                f"unexpected /metrics content type: {content_type}"
            )
            for needle in (
                'repro_service_compiles_total{source="cold"} 1',
                'repro_service_compiles_total{source="memo"} 1',
                'repro_service_requests_total{endpoint="compile"}',
                'repro_service_request_seconds_bucket{endpoint="compile",le="+Inf"}',
                'repro_service_request_seconds_sum{endpoint="compile"}',
                'repro_service_request_seconds_count{endpoint="compile"}',
                "repro_service_updates_total 1",
                "repro_service_uptime_seconds",
            ):
                assert needle in exposition, f"/metrics missing {needle!r}"
            # One store, rendered once: no series line may repeat.
            series = [l.rsplit(" ", 1)[0] for l in exposition.splitlines()
                      if not l.startswith("#")]
            repeated = {name for name in series if series.count(name) > 1}
            assert not repeated, f"/metrics repeats {sorted(repeated)}"
            scraped = [l for l in exposition.splitlines()
                       if l.startswith("repro_service_compiles_total")]
            print("\nGET /metrics -> Prometheus text exposition, e.g.")
            for line in scraped:
                print(f"  {line}")
            client.close()

    print("\ndaemon shut down cleanly; all served artifacts verified")


if __name__ == "__main__":
    main()

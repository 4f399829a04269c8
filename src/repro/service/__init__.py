"""The compilation service: the :class:`~repro.pipeline.Pipeline`
façade behind a long-running HTTP/JSON daemon.

This is the production story for a controller fleet: instead of every
controller linking the compiler, one daemon compiles and serves guarded
flow tables, deduplicating identical requests (single-flight), keeping
compiled pipelines warm in a bounded in-process memo keyed on the
content-addressed artifact key, and sharing the persistent on-disk
:class:`~repro.pipeline.ArtifactCache` behind it.

Layers:

- :mod:`repro.service.protocol` — the JSON wire protocol: programs (the
  concrete syntax of :mod:`repro.netkat.parser`), topologies, state
  vectors and :class:`~repro.pipeline.Delta` round-tripping.
- :mod:`repro.service.state` — the shared server state: pipeline memo
  (LRU) with the request-fingerprint index in front of it, per-key
  single-flight locks, request/latency stats, aggregated health
  counters.
- :mod:`repro.service.server` — endpoint handlers (``POST /compile``,
  ``/compile/batch``, ``/update``; ``GET /health``, ``/stats``, ``/version``)
  on the stdlib ``ThreadingHTTPServer`` loop, with their own HTTP framing.
- :mod:`repro.service.client` — the keep-alive HTTP/1.1 client (its
  own framing) used by the tests, the examples, and the CI smoke step.
- :mod:`repro.service.launcher` — the daemon's flags and serve loop,
  behind ``python -m repro serve``.

Quickstart::

    from repro.service import create_server, serve_in_thread, ServiceClient

    server = create_server(host="127.0.0.1", port=0)
    with serve_in_thread(server) as base_url:
        client = ServiceClient(base_url)
        result = client.compile(program_source, topology, (0,))
        print(result["artifact_key"], result["source"])
        print(client.stats()["compiles"])
"""

from .client import ServiceClient, ServiceError
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import CompilationServer, create_server, serve_in_thread
from .state import ServiceState, UnknownArtifactError

__all__ = [
    "PROTOCOL_VERSION",
    "CompilationServer",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceState",
    "UnknownArtifactError",
    "create_server",
    "serve_in_thread",
]

"""The compilation daemon's HTTP core (stdlib-only).

A :class:`CompilationServer` is a ``ThreadingHTTPServer`` carrying one
:class:`~repro.service.state.ServiceState`; each connection (kept alive
across requests) runs on its own thread, so the memoized pipelines lean on
:class:`~repro.pipeline.Pipeline`'s lock-guarded lazy stages and the
state's single-flight locks for correctness under concurrency.

Endpoints:

- ``POST /compile`` — compile one ``{program, topology, initial_state,
  deadline_seconds?, include_tables?}`` request; responds with
  the artifact key, where the artifact came from (``memo`` /
  ``coalesced`` / ``disk`` / ``cold``), the canonical per-switch tables,
  and the pipeline report.
- ``POST /compile/batch`` — ``{"requests": [...]}``; per-entry results
  or structured errors (one bad entry never fails the batch).
- ``POST /update`` — ``{"artifact_key", "delta", include_tables?}``;
  incremental recompilation against a previously served key.
- ``GET /health`` — aggregated pipeline health counters; non-200 once a
  strict-cache integrity error has surfaced.
- ``GET /stats`` — request counts + latency quantiles per endpoint,
  memo/disk/cold/single-flight compile counters, memo occupancy.
- ``GET /metrics`` — Prometheus text exposition.  All three render one
  store, the state's metrics registry (the installed process-wide one
  under the launcher, else private to the state).
- ``GET /version`` — package/protocol/artifact-format versions.
- ``GET /`` — endpoint index.

Every failure maps to a structured JSON body (`protocol.error_to_wire`)
with a machine-readable ``type``/``code`` — and stage provenance for
typed :class:`~repro.pipeline.PipelineError`\\ s; nothing returns a bare
500.

Framing is this module's own HTTP/1.1 on the stdlib's connection loop: a
head that reads two ways is a 400, ``Expect: 100-continue`` is answered
before the body is read, and every framing rejection is structured JSON
that ends the connection.

Tracing: each dispatched request runs under a root span named
``service.<endpoint>``.  A client-supplied ``X-Repro-Trace-Id`` header
joins the request to the caller's trace; the effective trace ID is
echoed in the response header and stamped into structured error JSON.
"""

from __future__ import annotations

import email.utils
import functools
import json
import platform
import re
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from .. import __version__
from ..events.ets_to_nes import ETSConversionError
from ..netkat.flowtable import TagFieldError
from ..obs import export as obs_export
from ..obs import trace as obs_trace
from ..pipeline import (
    ARTIFACT_FORMAT,
    ArtifactIntegrityError,
    CompileOptions,
    PipelineError,
)
from ..runtime.compiler import LocalityError
from ..stateful.ast import validate_state_references
from . import protocol
from .state import DEFAULT_MEMO_SIZE, ServiceState, UnknownArtifactError

__all__ = ["CompilationServer", "create_server", "serve_in_thread"]

_ENDPOINTS = (
    "POST /compile",
    "POST /compile/batch",
    "POST /update",
    "GET /health",
    "GET /stats",
    "GET /metrics",
    "GET /version",
)

# The distributed-tracing correlation header: accepted on any request,
# echoed on every response, and stamped into structured error JSON.
TRACE_HEADER = "X-Repro-Trace-Id"
_TRACE_ID_MAX = 64


def _sanitize_trace_id(raw: Optional[str]) -> Optional[str]:
    """A client-supplied trace ID, or None when absent/unusable.  IDs
    are echoed into response headers, so anything beyond a short
    token-safe string is discarded rather than reflected."""
    if not raw:
        return None
    raw = raw.strip()
    if not raw or len(raw) > _TRACE_ID_MAX:
        return None
    if not all(c.isalnum() or c in "-_." for c in raw):
        return None
    return raw

# Bodies above this are refused outright (a compile request is a program
# plus a topology, not a bulk upload).
_MAX_BODY_BYTES = 8 * 1024 * 1024
# A version above HTTP/1.1 is a 505, any other unknown version a 400.
_NEWER_HTTP = re.compile(r"HTTP/(?:[2-9]|[1-9][0-9]{1,9})\.[0-9]{1,10}")


@functools.lru_cache(maxsize=1)  # the Date field is formatted once a second
def _http_date(second: int) -> str:
    return email.utils.formatdate(second, usegmt=True)


def _reject_unknown_fields(wire: Mapping[str, Any], *known: str) -> None:
    """Nothing is tolerated-and-ignored: a misspelt field is a 400, not
    a request served as if the field had its default."""
    unknown = set(wire) - set(known)
    if unknown:
        raise protocol.ProtocolError(
            "bad_request", f"unknown request fields {sorted(unknown)}"
        )


def _include_tables(wire: Mapping[str, Any]) -> bool:
    include = wire.get("include_tables", True)
    if not isinstance(include, bool):
        raise protocol.ProtocolError(
            "bad_request",
            f"include_tables must be a JSON boolean, got {include!r}",
        )
    return include


def _status_of(exc: BaseException) -> int:
    """The HTTP status for a failure; the body always carries the
    machine-readable cause regardless."""
    if isinstance(exc, protocol.ProtocolError):
        return 400
    if isinstance(exc, UnknownArtifactError):
        return 404
    if isinstance(exc, ArtifactIntegrityError):
        return 503
    if isinstance(
        exc,
        (PipelineError, ETSConversionError, LocalityError, TagFieldError,
         ValueError),
    ):
        # The inputs were well-formed wire-wise but uncompilable (not
        # locally determined, zero-hit delta substitution, ...): the
        # request is at fault, with full provenance in the body.
        return 422
    return 500


class CompilationServer(ThreadingHTTPServer):
    """The daemon: one thread per connection, shared :class:`ServiceState`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        state: ServiceState,
        verbose: bool = False,
    ):
        super().__init__(address, _Handler)
        self.state = state
        self.verbose = verbose

    @property
    def base_url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-service/{__version__}"
    # Bound blocking reads so an idle keep-alive connection releases its
    # thread instead of pinning it forever.
    timeout = 30
    # One send per response: _send writes head and body as one buffer,
    # flushed by handle_one_request.  A larger one leaves in pieces, and
    # without TCP_NODELAY the last would wait for a delayed ACK (~40 ms).
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    server: CompilationServer  # narrowed for the helpers below

    # The sanitized (or span-minted) trace ID of the request currently
    # being dispatched on this handler; set by _dispatch.
    _request_trace_id: Optional[str] = None

    # Whether _read_json consumed the current request's body; _send,
    # which ends every request, resets it.
    _body_read = False

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """The request line and header fields: the stdlib's checks,
        narrowed to HTTP/1.0 and 1.1.  False once any reply is written."""
        self.command, self.close_connection = None, True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            newer = len(words) == 3 and _NEWER_HTTP.fullmatch(words[2])
            return self.send_error(505 if newer else 400, repr(self.requestline))
        self.command, self.path, self.request_version = words
        try:
            headers = self.headers = protocol.read_fields(self.rfile.readline)
        except protocol.HeadError as err:
            if err.args[0] is not None:  # a peer that closed mid-head gets nothing
                self.send_error(*err.args)
            return False
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            self.request_version == "HTTP/1.0" and connection != "keep-alive"
        )
        expect = headers.get("expect")
        if expect is not None and expect.lower() != "100-continue":
            return self.send_error(417, f"cannot meet Expect: {expect}")
        if expect is not None and self.request_version == "HTTP/1.1":
            # Flushed: the client waits for it before sending the body.
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()
        return True

    def send_error(  # type: ignore[override]
        self, code: int, message: Optional[str] = None, explain: Any = None
    ) -> bool:
        """A framing rejection (request line, version, head, method) is
        structured JSON that ends the connection; False."""
        reason = self.responses[code][0]
        self.log_error("code %d, message %s", code, message or reason)
        error = protocol.error_to_wire(protocol.ProtocolError(
            reason.lower().replace(" ", "_").replace("-", "_"), message or reason
        ))
        self.close_connection = True
        self._send(code, json.dumps({"error": error}).encode())
        return False

    def _send(
        self,
        status: int,
        payload: bytes,
        trace_id: Optional[str] = None,
        content_type: str = "application/json",
    ) -> None:
        self.log_request(status)
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {_http_date(int(time.time()))}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(payload)}\r\n"
        )
        if trace_id is not None:
            head += f"{TRACE_HEADER}: {trace_id}\r\n"
        if self.close_connection or (not self._body_read and (
            self.headers.get("content-length", "0") != "0"
            or "transfer-encoding" in self.headers
        )):
            # Closing anyway, or the declared body was not consumed: it
            # would be read as the next request line.
            self.close_connection = True
            head += "Connection: close\r\n"
        self._body_read = False
        self.wfile.write(f"{head}\r\n".encode("iso-8859-1") + payload)

    def _read_json(self) -> Any:
        declared = self.headers.get("content-length") or "0"
        if not declared.isdecimal():
            raise protocol.ProtocolError(
                "bad_request",
                f"Content-Length must be a non-negative integer, got {declared!r}",
            )
        length = int(declared)
        if length == 0:
            raise protocol.ProtocolError(
                "bad_request", "request requires a JSON body"
            )
        if length > _MAX_BODY_BYTES:
            raise protocol.ProtocolError(
                "bad_request",
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise protocol.ProtocolError(
                "bad_request", f"request body is not valid JSON: {exc}"
            ) from exc

    def _fail(self, exc: BaseException) -> Tuple[int, Dict[str, Any]]:
        status, code = _status_of(exc), None
        if isinstance(exc, RecursionError):
            # Only a request's program nests deep enough to exhaust the
            # stack: in the parser, in repr(program) for the artifact
            # key, or in a stage walk.
            status, code = 400, "program_too_deep"
        if isinstance(exc, ArtifactIntegrityError):
            # The strict-cache tripwire: counted so /health goes (and
            # stays) non-200 for the fleet's monitoring to see.
            self.server.state.integrity_errors.inc()
        error = protocol.error_to_wire(exc, code)
        trace_id = obs_trace.current_trace_id() or self._request_trace_id
        if trace_id is not None:
            # Structured errors carry the request's trace ID so a
            # failure seen client-side correlates with the server's
            # spans (and with the client's own trace).
            error["trace_id"] = trace_id
        return status, {"error": error}

    def _dispatch(self, endpoint: str, handler) -> None:
        state = self.server.state
        client_trace_id = _sanitize_trace_id(self.headers.get(TRACE_HEADER.lower()))
        self._request_trace_id = client_trace_id
        start = time.perf_counter()
        # The per-request root span.  Handler threads each run in their
        # own (empty) contextvars context, so this span becomes the
        # whole request's parent; a client-supplied trace ID joins the
        # request to the caller's trace.
        with obs_trace.span(
            f"service.{endpoint}", trace_id=client_trace_id
        ) as request_span:
            trace_id = obs_trace.current_trace_id() or client_trace_id
            self._request_trace_id = trace_id
            try:
                status, body = handler()
            except BaseException as exc:  # every failure becomes structured JSON
                status, body = self._fail(exc)
            request_span.set(status=status)
        state.record_request(
            endpoint, time.perf_counter() - start, error=status >= 400
        )
        self._send(status, json.dumps(body).encode(), trace_id)

    # -- request cores ------------------------------------------------------

    def _compile_one(self, body: Any) -> Dict[str, Any]:
        wire = body if isinstance(body, Mapping) else None
        if wire is None:
            raise protocol.ProtocolError(
                "bad_request", "compile request must be a JSON object"
            )
        _reject_unknown_fields(
            wire, "program", "topology", "initial_state",
            "deadline_seconds", "include_tables",
        )
        for required in ("program", "topology", "initial_state"):
            if required not in wire:
                raise protocol.ProtocolError(
                    "bad_request", f"missing required field {required!r}"
                )
        state = self.server.state
        try:
            # CompileOptions holds the one deadline rule; json.loads
            # turns the tokens NaN and Infinity into floats it refuses.
            options = state.effective_options(
                deadline_seconds=wire.get("deadline_seconds")
            )
        except (TypeError, ValueError) as exc:
            raise protocol.ProtocolError("bad_request", str(exc)) from exc
        include_tables = _include_tables(wire)
        # A byte-identical repeat of a request whose pipeline is still
        # memo-resident needs no parse and no key hashing.  Anything else
        # takes the full path, and only its success is indexed.
        fingerprint = state.request_fingerprint(wire)
        hit = state.index_get(fingerprint)
        if hit is not None:
            key, pipeline = hit
            source = "memo"
        else:
            program = protocol.program_from_wire(wire["program"])
            initial_state = protocol.initial_state_from_wire(wire["initial_state"])
            try:
                validate_state_references(program, len(initial_state))
            except IndexError as exc:
                raise protocol.ProtocolError("bad_initial_state", str(exc)) from exc
            key, pipeline, source = state.compile_pipeline(
                program,
                protocol.topology_from_wire(wire["topology"]),
                initial_state,
                options,
            )
            state.index_put(fingerprint, key)
        return self._artifact_body(key, pipeline, source, include_tables)

    def _artifact_body(
        self, key: str, pipeline, source: str, include_tables: bool
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "artifact_key": key,
            "source": source,
            "report": pipeline.report().to_dict(),
        }
        if include_tables:
            body["tables"] = protocol.tables_to_wire(pipeline.compiled)
        return body

    # -- endpoints ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        if self.path == "/compile":
            self._dispatch(
                "compile", lambda: (200, self._compile_one(self._read_json()))
            )
        elif self.path == "/compile/batch":
            self._dispatch("compile_batch", self._handle_batch)
        elif self.path == "/update":
            self._dispatch("update", self._handle_update)
        else:
            self._dispatch("unknown", self._not_found)

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/health":
            self._dispatch("health", self._handle_health)
        elif self.path == "/stats":
            self._dispatch(
                "stats", lambda: (200, self.server.state.stats_body())
            )
        elif self.path == "/metrics":
            self._handle_metrics()
        elif self.path == "/version":
            self._dispatch("version", lambda: (200, _version_body()))
        elif self.path == "/":
            self._dispatch(
                "index",
                lambda: (200, {
                    "service": "repro-compilation-service",
                    "endpoints": list(_ENDPOINTS),
                }),
            )
        else:
            self._dispatch("unknown", self._not_found)

    def _not_found(self) -> Tuple[int, Dict[str, Any]]:
        return 404, {
            "error": {
                "type": "NotFound",
                "code": "unknown_endpoint",
                "message": f"no endpoint {self.path!r}",
                "endpoints": list(_ENDPOINTS),
            }
        }

    def _handle_batch(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_json()
        wire = body if isinstance(body, Mapping) else None
        if wire is None or "requests" not in wire or not isinstance(
            wire["requests"], list
        ):
            raise protocol.ProtocolError(
                "bad_request",
                'batch body must be {"requests": [compile requests]}',
            )
        _reject_unknown_fields(wire, "requests")
        results = []
        for entry in wire["requests"]:
            try:
                results.append(self._compile_one(entry))
            except BaseException as exc:
                status, error_body = self._fail(exc)
                results.append({**error_body, "status": status})
        return 200, {"results": results}

    def _handle_update(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_json()
        wire = body if isinstance(body, Mapping) else None
        if wire is None or "artifact_key" not in wire or "delta" not in wire:
            raise protocol.ProtocolError(
                "bad_request",
                'update body must be {"artifact_key": ..., "delta": ...}',
            )
        _reject_unknown_fields(wire, "artifact_key", "delta", "include_tables")
        include_tables = _include_tables(wire)
        delta = protocol.delta_from_wire(wire["delta"])
        key, updated = self.server.state.update_pipeline(
            str(wire["artifact_key"]), delta
        )
        return 200, self._artifact_body(key, updated, "update", include_tables)

    def _handle_health(self) -> Tuple[int, Dict[str, Any]]:
        ok, body = self.server.state.health_body()
        return (200 if ok else 503), body

    def _handle_metrics(self) -> None:
        """``GET /metrics``: Prometheus text exposition of the state's
        registry.  Plain text (exposition format 0.0.4), so it bypasses
        the JSON dispatch plumbing; still counted in the request stats."""
        state = self.server.state
        start = time.perf_counter()
        payload = obs_export.prometheus_text(state.registry).encode("utf-8")
        self._send(
            200, payload, content_type="text/plain; version=0.0.4; charset=utf-8"
        )
        state.record_request(
            "metrics", time.perf_counter() - start, error=False
        )


def _version_body() -> Dict[str, Any]:
    return {
        "package": __version__,
        "protocol": protocol.PROTOCOL_VERSION,
        "artifact_format": ARTIFACT_FORMAT,
        "python": platform.python_version(),
    }


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    options: Optional[CompileOptions] = None,
    memo_size: int = DEFAULT_MEMO_SIZE,
    verbose: bool = False,
) -> CompilationServer:
    """Bind a :class:`CompilationServer` (``port=0`` = ephemeral).

    ``options`` is the server's base :class:`CompileOptions` — its
    ``cache_dir`` / ``strict_cache`` (and the ``REPRO_CACHE_HMAC_KEY``
    environment variable it resolves) are the deployment's cache policy;
    requests can never override them.  Call ``serve_forever()`` on the
    result, or use :func:`serve_in_thread` for an in-process daemon.
    """
    state = ServiceState(base_options=options, memo_size=memo_size)
    return CompilationServer((host, port), state, verbose=verbose)


@contextmanager
def serve_in_thread(server: CompilationServer) -> Iterator[str]:
    """Run ``server`` on a background thread, yielding its base URL and
    shutting it down cleanly on exit — the harness used by the tests,
    the example demo, the CI smoke step, and the warm-request bench."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service", daemon=True
    )
    thread.start()
    try:
        yield server.base_url
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

"""A keep-alive HTTP/1.1 client for the compilation service.

Connections persist: a request takes an idle connection to the daemon
(opening one only when none is idle, so concurrent callers each hold
their own) and returns it afterwards, and a reused connection the
daemon has since closed is replaced by one silent reconnect; a response
that cannot be framed is a :class:`ServiceError` 502 ``bad_response``.

Used by the end-to-end tests, ``examples/service_demo.py``, the CI
smoke step, and the warm-request bench — and usable as the fleet-side
library: a controller constructs one :class:`ServiceClient` per daemon
and asks it for tables instead of linking the compiler.

Programs may be passed as :class:`~repro.netkat.ast.Policy` objects
(serialized through the pretty-printer) or as concrete-syntax strings;
topologies as :class:`~repro.topology.Topology` objects or wire dicts;
deltas as :class:`~repro.pipeline.Delta` objects or wire dicts.  Error
responses raise :class:`ServiceError` carrying the HTTP status and the
server's structured error body (type, code, message, and — for typed
pipeline failures — stage provenance).
"""

from __future__ import annotations

import json
import re
import socket
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..netkat.ast import Policy
from ..obs import trace as obs_trace
from ..pipeline import Delta
from ..topology import Topology
from . import protocol

__all__ = ["ServiceClient", "ServiceError"]

_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) ([0-9]{3})[ \r\n]")


class ServiceError(Exception):
    """A non-2xx response; ``status`` is the HTTP code and ``error`` the
    server's structured body (``{"type", "code", "message", ...}``)."""

    def __init__(self, status: int, error: Mapping[str, Any]):
        code = error.get("code", "error")
        message = error.get("message", "service error")
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.error = dict(error)

    @property
    def code(self) -> str:
        return self.error.get("code", "error")

    @property
    def stage(self) -> Optional[str]:
        return self.error.get("stage")


class _Connection:
    """One socket to the daemon and its buffered reader."""

    def __init__(self, address: Tuple[str, int], timeout: float):
        self.sock = socket.create_connection(address, timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def exchange(self, message: bytes) -> Tuple[int, Dict[str, str], bytes, bool]:
        """Send one request: ``(status, fields, body, reusable)``; an empty
        status line is a ``ConnectionError``, a bad head a ``HeadError``."""
        self.sock.sendall(message)
        line = self.reader.readline(protocol.MAX_HEAD_LINE + 1)
        if not line:
            raise ConnectionResetError("the daemon closed the connection")
        status = _STATUS_LINE.match(line)
        if status is None:
            raise protocol.HeadError(502, f"bad status line {line[:80]!r}")
        fields = protocol.read_fields(self.reader.readline)
        if "transfer-encoding" in fields:
            raise protocol.HeadError(502, "a Transfer-Encoding response")
        length = fields.get("content-length")
        if length is None:
            return int(status[2]), fields, self.reader.read(), False
        body = self.reader.read(int(length)) if length.isdecimal() else None
        if body is None or len(body) != int(length):
            raise protocol.HeadError(502, f"no body of Content-Length {length!r}")
        close = fields.get("connection", "").lower() == "close"
        return int(status[2]), fields, body, status[1] == b"1" and not close


class ServiceClient:
    """One compilation daemon, addressed by base URL; safe to share
    between threads (each concurrent call holds its own connection).

    Tracing: every request carries an ``X-Repro-Trace-Id`` header when
    an ID is available — the explicit ``trace_id`` constructor argument,
    else the current :mod:`repro.obs.trace` span's trace ID (so a
    client used inside a ``trace.span(...)`` block correlates its
    requests automatically).  The server echoes the effective ID;
    :attr:`last_trace_id` holds the most recent echo.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        trace_id: Optional[str] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.trace_id = trace_id
        self.last_trace_id: Optional[str] = None
        scheme, _, rest = self.base_url.rpartition("://")
        if scheme not in ("", "http"):
            raise ValueError(f"the daemon speaks plain http, got {base_url!r}")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        host, colon, port = self._netloc.rpartition(":")
        if not colon or "]" in port:  # no port, or a bare [IPv6] literal
            host, port = self._netloc, "80"
        self._address = (host.strip("[]"), int(port))
        # Idle keep-alive connections; list.pop/append are atomic, so
        # threads sharing one client need no lock to take and return them.
        self._idle: List[_Connection] = []

    def close(self) -> None:
        """Close every idle connection (the next request reconnects)."""
        while self._idle:
            self._idle.pop().close()

    # -- transport ----------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        allow_error_status: bool = False,
    ) -> Tuple[int, Dict[str, Any]]:
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {self._prefix}{path} HTTP/1.1\r\nHost: {self._netloc}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
        )
        trace_id = self.trace_id or obs_trace.current_trace_id()
        if trace_id is not None:
            head += f"X-Repro-Trace-Id: {trace_id}\r\n"
        message = f"{head}\r\n".encode("latin-1") + payload
        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = _Connection(self._address, self.timeout), False
        try:
            try:
                status, fields, raw, reusable = conn.exchange(message)
            except ConnectionError:
                # Only a *reused* socket can be stale (daemon restarted,
                # idle timeout); a fresh one that fails is a real error.
                # Re-sending is safe: every endpoint is idempotent.
                conn.close()
                if not reused:
                    raise
                conn = _Connection(self._address, self.timeout)
                status, fields, raw, reusable = conn.exchange(message)
        except protocol.HeadError as err:  # a response that cannot be framed
            conn.close()
            raise ServiceError(502, {
                "type": "BadResponse", "code": "bad_response", "message": err.args[1],
            }) from None
        except BaseException:
            conn.close()
            raise
        if reusable:
            self._idle.append(conn)
        else:
            conn.close()
        self.last_trace_id = fields.get("x-repro-trace-id")
        if status < 400:
            return status, json.loads(raw)
        try:
            answer = json.loads(raw)
        except ValueError:
            answer = {}
        if allow_error_status:
            return status, answer
        error = answer.get("error", {"code": "error", "message": f"HTTP {status}"})
        raise ServiceError(status, error)

    def _post(self, path: str, body: Mapping[str, Any]) -> Dict[str, Any]:
        return self._request("POST", path, body)[1]

    def _get(self, path: str) -> Dict[str, Any]:
        return self._request("GET", path)[1]

    # -- endpoints ----------------------------------------------------------

    def compile(
        self,
        program: Union[Policy, str],
        topology: Union[Topology, Mapping[str, Any]],
        initial_state: Sequence[int],
        deadline_seconds: Optional[float] = None,
        include_tables: bool = True,
    ) -> Dict[str, Any]:
        """``POST /compile``: the served artifact key, source, tables,
        and pipeline report."""
        return self._post(
            "/compile",
            protocol.compile_request_to_wire(
                program, topology, initial_state,
                deadline_seconds=deadline_seconds,
                include_tables=include_tables,
            ),
        )

    def compile_batch(
        self, requests: Sequence[Mapping[str, Any]]
    ) -> List[Dict[str, Any]]:
        """``POST /compile/batch`` of
        :func:`~repro.service.protocol.compile_request_to_wire` entries:
        per-entry results (an entry that failed carries ``{"error": ...,
        "status": ...}`` instead)."""
        return self._post("/compile/batch", {"requests": list(requests)})[
            "results"
        ]

    def update(
        self,
        artifact_key: str,
        delta: Union[Delta, Mapping[str, Any]],
        include_tables: bool = True,
    ) -> Dict[str, Any]:
        """``POST /update``: incremental recompilation against a
        previously served artifact key."""
        wire = (
            protocol.delta_to_wire(delta)
            if isinstance(delta, Delta)
            else dict(delta)
        )
        return self._post(
            "/update",
            {
                "artifact_key": artifact_key,
                "delta": wire,
                "include_tables": include_tables,
            },
        )

    def health(self) -> Tuple[bool, Dict[str, Any]]:
        """``GET /health`` as ``(ok, body)`` — a 503 (integrity errors
        under strict cache) returns ``ok=False`` instead of raising."""
        status, body = self._request("GET", "/health", allow_error_status=True)
        return status == 200, body

    def stats(self) -> Dict[str, Any]:
        return self._get("/stats")

    def version(self) -> Dict[str, Any]:
        return self._get("/version")

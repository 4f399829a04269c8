"""The service's HTTP/1.1 framing, on both ends, byte by byte.

The daemon reads request heads and writes responses itself, and so does
``ServiceClient``; these tests talk to each through raw sockets and read
what comes back with ``http.client`` as an independent parser.  Pinned:

- ``Expect: 100-continue`` is answered before the body is sent;
- every framing-level rejection (method, request line, version, head
  limits) is a status line, structured JSON and ``Connection: close``;
- a head that can be read two ways is a 400, and the daemon serves the
  next connection;
- fuzzed heads end in complete JSON responses or a clean close, never a
  traceback on the server thread;
- the client pools a socket only when the response says it may, reads a
  body delimited by the close, and refuses a body it cannot frame.
"""

import http.client
import io
import json
import socket
import threading
import time
from contextlib import closing, contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import firewall_app
from repro.service import (
    ServiceClient,
    ServiceError,
    create_server,
    protocol,
    serve_in_thread,
)


@contextmanager
def daemon():
    """A daemon's address; on exit, fails if an exception escaped a
    handler thread (socketserver's ``handle_error``)."""
    server = create_server()
    errors = []
    server.handle_error = lambda request, address: errors.append(address)
    with serve_in_thread(server):
        yield server.server_address[:2]
    assert not errors, "a handler thread raised"


class _Unclosable(io.BytesIO):
    def close(self):
        pass


class _Replay:
    """A socket stand-in that hands ``http.client`` recorded bytes."""

    def __init__(self, data):
        self.file = _Unclosable(data)

    def makefile(self, mode):
        return self.file


def exchange(address, data, timeout=10.0):
    """Send ``data``, half-close, and return every byte until the daemon
    closes."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        received = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(received)
            received.append(chunk)


def responses(data):
    """The complete responses in ``data`` as ``(response, JSON body)``;
    fails on a partial response or trailing bytes."""
    replay = _Replay(data)
    parsed = []
    while replay.file.tell() < len(data):
        response = http.client.HTTPResponse(replay)
        response.begin()
        assert response.getheader("Content-Type") == "application/json"
        assert response.length is not None, "no Content-Length"
        parsed.append((response, json.loads(response.read())))
    return parsed


def version_is_served(address):
    (response, body), = responses(
        exchange(address, b"GET /version HTTP/1.1\r\nHost: x\r\n\r\n")
    )
    assert response.status == 200
    assert body["protocol"] == protocol.PROTOCOL_VERSION


def compile_body():
    app = firewall_app()
    return json.dumps(protocol.compile_request_to_wire(
        app.program, app.topology, app.initial_state
    )).encode()


def compile_head(length, extra=b""):
    return (
        b"POST /compile HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\n" + extra
        + b"Content-Length: %d\r\n\r\n" % length
    )


# ---------------------------------------------------------------------------
# Expect
# ---------------------------------------------------------------------------


def test_interim_100_continue_arrives_before_the_body():
    body = compile_body()
    with daemon() as address:
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(compile_head(len(body), b"Expect: 100-continue\r\n"))
            sock.settimeout(0.5)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(64)  # times out if the 100 is buffered
                assert chunk, "closed before the interim response"
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(10)
            sock.sendall(body)
            response = http.client.HTTPResponse(sock, method="POST")
            response.begin()
            assert response.status == 200
            assert json.loads(response.read())["source"] == "cold"


def test_other_expectations_are_a_structured_417():
    with daemon() as address:
        (response, body), = responses(exchange(
            address, b"GET /version HTTP/1.1\r\nExpect: telepathy\r\n\r\n"
        ))
        assert response.status == 417
        assert body["error"]["code"] == "expectation_failed"
        # HTTP/1.0 has no interim responses: the expectation is ignored.
        (response, _), = responses(exchange(
            address, b"GET /version HTTP/1.0\r\nExpect: 100-continue\r\n\r\n"
        ))
        assert response.status == 200


# ---------------------------------------------------------------------------
# Framing-level rejections are structured JSON
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "request_bytes,status,code",
    [
        (b"PUT /compile HTTP/1.1\r\nHost: x\r\n\r\n", 501, "not_implemented"),
        (
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            414, "request_uri_too_long",
        ),
        (
            b"GET /version HTTP/1.1\r\n"
            + b"".join(b"X-Pad-%d: v\r\n" % i for i in range(120)) + b"\r\n",
            431, "request_header_fields_too_large",
        ),
        (
            b"GET /version HTTP/1.1\r\nX-Pad: " + b"v" * 70_000 + b"\r\n\r\n",
            431, "request_header_fields_too_large",
        ),
        (b"GET /version HTTP/2.0\r\n\r\n", 505, "http_version_not_supported"),
        (b"GET /version HTTP/x.y\r\n\r\n", 400, "bad_request"),
        (b"GET /version\r\n", 400, "bad_request"),
    ],
    ids=[
        "method", "long-request-line", "120-headers", "long-header",
        "http2", "bad-version", "no-version",
    ],
)
def test_framing_rejections_are_structured_json(request_bytes, status, code):
    with daemon() as address:
        (response, body), = responses(exchange(address, request_bytes))
        assert response.status == status
        assert body["error"]["type"] == "ProtocolError"
        assert body["error"]["code"] == code
        assert response.getheader("Connection") == "close"
        version_is_served(address)


# ---------------------------------------------------------------------------
# A head that can be read two ways
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "head",
    [
        b"POST /compile HTTP/1.1\r\nContent-Length: 2\r\n"
        b"Content-Length: 3\r\n\r\n{}",
        b"GET /version HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n",
        b"GET /version HTTP/1.1\r\nHost x\r\n\r\n",
        b"GET /version HTTP/1.1\r\nHost : x\r\n\r\n",
        b"GET /version HTTP/1.1\r\nHost: x\ry\r\n\r\n",
    ],
    ids=[
        "conflicting-content-length", "obs-fold", "no-colon",
        "blank-before-colon", "bare-cr",
    ],
)
def test_ambiguous_heads_are_a_400(head):
    with daemon() as address:
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(head)
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "bad_request"
            assert response.getheader("Connection") == "close"
            assert sock.recv(1) == b""  # the daemon closed its end
        version_is_served(address)


def test_a_repeated_equal_content_length_is_one_length():
    body = compile_body()
    head = compile_head(len(body), b"Content-Length: %d\r\n" % len(body))
    with daemon() as address:
        (response, answer), = responses(exchange(address, head + body))
        assert response.status == 200 and answer["source"] == "cold"


def test_long_blank_runs_in_field_values_are_read_in_linear_time():
    # A backtracking value pattern costs the square of each blank run:
    # seconds per line at this size, with the handler holding the GIL.
    blanks = b"".join(
        b"X-Pad-%d: a%sb\r\n" % (i, (b" " if i % 2 else b"\t") * 65_000)
        for i in range(99)
    )
    with daemon() as address:
        start = time.perf_counter()
        (response, body), = responses(exchange(
            address, b"GET /version HTTP/1.1\r\n" + blanks + b"\r\n"
        ))
        assert response.status == 200
        assert body["protocol"] == protocol.PROTOCOL_VERSION
        assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# Fuzzed request heads
# ---------------------------------------------------------------------------

BODY = compile_body()
HEAD = compile_head(len(BODY))
LINE_BREAKS = [b"\r\n", b"\n", b"\r", b"\n\r", b"\r\r\n", b""]


@st.composite
def mutated_heads(draw):
    head = HEAD
    kind = draw(st.sampled_from(
        ["flip", "truncate", "oversize", "header-count", "line-breaks"]
    ))
    if kind == "flip":
        data = bytearray(head)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= draw(st.integers(1, 255))
        head = bytes(data)
    elif kind == "truncate":
        head = head[:draw(st.integers(0, len(head) - 1))]
    elif kind == "oversize":
        at = draw(st.integers(0, len(head)))
        size = draw(st.sampled_from([65_535, 65_536, 65_537, 70_000]))
        filler = draw(st.sampled_from([b"a", b" ", b"\t"]))  # blanks: in a value
        head = head[:at] + filler * size + head[at:]
    elif kind == "header-count":
        count = draw(st.integers(0, 130))
        pad = b"".join(b"X-Pad-%d: v\r\n" % i for i in range(count))
        head = head.replace(b"Host:", pad + b"Host:", 1)
    else:
        lines = head.split(b"\r\n")
        head = lines[0]
        for line in lines[1:]:
            head += draw(st.sampled_from(LINE_BREAKS)) + line
    return head + draw(st.sampled_from([BODY, BODY[:10], b""]))


def fuzz(max_examples):
    """Fuzzed heads against one daemon."""
    with daemon() as address:

        @given(data=mutated_heads())
        @settings(
            max_examples=max_examples,
            deadline=None,
            suppress_health_check=[
                HealthCheck.too_slow, HealthCheck.data_too_large,
            ],
        )
        def check(data):
            for response, body in responses(exchange(address, data)):
                if response.status >= 400:
                    assert isinstance(body["error"]["code"], str)
            version_is_served(address)

        check()


def test_fuzzed_heads_end_in_json_or_a_clean_close():
    fuzz(60)


@pytest.mark.slow
def test_fuzzed_heads_long_sweep():
    fuzz(2000)


# ---------------------------------------------------------------------------
# Client side: responses from a stub daemon
# ---------------------------------------------------------------------------

PAYLOAD = b'{"protocol": 4, "stub": true}'


@contextmanager
def stub_daemon(response, close):
    """Answers every request head on a connection with ``response``;
    closes the connection after the first when ``close``."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            accepted.append(conn)
            with conn:
                head = b""
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    head += chunk
                    if head.endswith(b"\r\n\r\n"):
                        conn.sendall(response)
                        head = b""
                        if close:
                            break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", accepted
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        listener.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_connection_close_response_is_not_pooled():
    response = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(PAYLOAD)
        + PAYLOAD
    )
    with stub_daemon(response, close=True) as (url, accepted):
        with closing(ServiceClient(url)) as client:
            assert client.version() == json.loads(PAYLOAD)
            assert client._idle == []
            assert client.version() == json.loads(PAYLOAD)
            assert len(accepted) == 2


def test_body_delimited_by_the_close_is_read_whole():
    response = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + PAYLOAD
    with stub_daemon(response, close=True) as (url, accepted):
        with closing(ServiceClient(url)) as client:
            assert client.version() == json.loads(PAYLOAD)
            assert client._idle == []


@pytest.mark.parametrize(
    "response",
    [
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"%x\r\n%s\r\n0\r\n\r\n" % (len(PAYLOAD), PAYLOAD),
        b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n" + PAYLOAD,
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n" + PAYLOAD,
        b"HTTP/1.1 200 OK\r\nbroken header\r\n\r\n" + PAYLOAD,
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n folded\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\rX: y\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
        b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    ],
    ids=[
        "transfer-encoding", "truncated", "negative-length", "bad-header",
        "obs-fold", "blank-before-colon", "bare-cr", "head-cut-short",
        "bad-status-line",
    ],
)
def test_unframeable_response_is_a_typed_error(response):
    with stub_daemon(response, close=True) as (url, _):
        with closing(ServiceClient(url)) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.version()
            assert (excinfo.value.status, excinfo.value.code) == (
                502, "bad_response",
            )
            assert client._idle == []

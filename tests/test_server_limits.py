"""The server's own HTTP framing: deadlines, the connection bound and answers
that ``tests/test_server.py`` does not pin, all over raw sockets."""

from __future__ import annotations

import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
from typing import BinaryIO

import pytest

import graphex
from graphex import server as server_module
from graphex.server import RecommendServer, ServeConfig, _Handler

from conftest import HEADPHONES_LEAF, HEADPHONES_TITLE

RECOMMEND_BODY = json.dumps(
    {"title": HEADPHONES_TITLE, "leaf_category": HEADPHONES_LEAF, "k": 5}).encode()
RECOMMEND = (b"POST /recommend HTTP/1.1\r\nHost: test\r\n"
             b"Content-Length: %d\r\n\r\n%s" % (len(RECOMMEND_BODY), RECOMMEND_BODY))


@pytest.fixture
def start_server(headphones_model):
    """Starts a server on a free port when called, after any monkeypatching."""
    servers = []

    def start() -> RecommendServer:
        srv = RecommendServer(ServeConfig(port=0), headphones_model)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        servers.append(srv)
        return srv

    yield start
    for srv in servers:
        srv.shutdown()
        srv.server_close()


def connect(srv: RecommendServer) -> socket.socket:
    return socket.create_connection(srv.server_address[:2], timeout=5)


def read_until_closed(sock: socket.socket, limit_s: float) -> tuple[float, bytes]:
    """Read until the server closes the connection: (seconds taken, bytes read).

    A reset counts as a close; still open after ``limit_s`` raises ``TimeoutError``.
    """
    sock.settimeout(limit_s)
    started = time.monotonic()
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass
    return time.monotonic() - started, b"".join(chunks)


def read_response(reader: BinaryIO) -> tuple[int, dict[str, str], bytes]:
    """The next response from ``reader``: status, headers by lower-case name, body."""
    status_line = reader.readline()
    assert status_line, "closed before a response"
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("ascii").partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def split_response(reply: bytes) -> tuple[int, dict[str, str], bytes]:
    return read_response(io.BytesIO(reply))


def trickle(sock: socket.socket, data: bytes, gap_s: float, stop: threading.Event) -> None:
    """Send ``data`` one byte every ``gap_s`` seconds until sent, stopped or refused."""
    for byte in data:
        try:
            sock.send(bytes([byte]))
        except OSError:
            return
        if stop.wait(gap_s):
            return


@pytest.mark.parametrize("head, trickled", [
    # The head arrives at once; the body's 1,000 bytes come one every 0.4 s.
    (b"POST /recommend HTTP/1.1\r\nHost: test\r\nContent-Length: 1000\r\n\r\n", b"x" * 1000),
    # The request line itself comes one byte every 0.4 s.
    (b"", b"POST /recommend HTTP/1.1\r\nHost: test\r\nContent-Length: 2\r\n\r\n{}"),
], ids=["body", "request-line"])
def test_a_trickled_request_is_closed_by_its_deadline(start_server, monkeypatch, head, trickled):
    # Each byte comes well inside the timeout, so only a deadline on the
    # whole request closes the connection.
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    srv = start_server()
    stop = threading.Event()
    with connect(srv) as sock:
        sock.sendall(head)
        sender = threading.Thread(target=trickle, args=(sock, trickled, 0.4, stop))
        sender.start()
        try:
            elapsed, reply = read_until_closed(sock, limit_s=3)
        finally:
            stop.set()
            sender.join(timeout=5)
    assert not sender.is_alive()
    assert reply == b""
    assert elapsed < 1.5


def test_an_idle_kept_alive_connection_is_closed_after_the_timeout(start_server, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    srv = start_server()
    with connect(srv) as sock, sock.makefile("rb") as reader:
        sock.sendall(RECOMMEND)
        assert read_response(reader)[0] == 200
        elapsed, reply = read_until_closed(sock, limit_s=3)
    assert reply == b""
    assert 0.3 < elapsed < 1.5


def test_a_413_past_twice_the_limit_closes_without_reading_the_body(start_server, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
    srv = start_server()
    with connect(srv) as sock:
        # Only the head is sent: a server that waited for the body would
        # hold the connection until the client gave up.
        sock.sendall(b"POST /recommend HTTP/1.1\r\nHost: test\r\nContent-Length: 129\r\n\r\n")
        elapsed, reply = read_until_closed(sock, limit_s=3)
    status, headers, body = split_response(reply)
    assert status == 413 and headers["connection"] == "close"
    assert json.loads(body) == {"error": "body exceeds 64 bytes"}
    assert elapsed < 1


def test_a_413_up_to_twice_the_limit_is_read_and_keeps_the_connection(start_server, monkeypatch):
    limit = len(RECOMMEND_BODY)
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", limit)
    srv = start_server()
    with connect(srv) as sock, sock.makefile("rb") as reader:
        sock.sendall(b"POST /recommend HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n"
                     % (2 * limit) + b"x" * (2 * limit) + RECOMMEND)
        status, headers, _ = read_response(reader)
        assert status == 413 and "connection" not in headers
        status, _, body = read_response(reader)
        assert status == 200 and json.loads(body)["predictions"]


def test_past_max_connections_a_new_connection_gets_503_at_once(start_server, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    srv = start_server()
    held = [connect(srv), connect(srv)]
    try:
        for sock in held:  # each has its handler thread once it has an answer
            sock.sendall(RECOMMEND)
            with sock.makefile("rb") as reader:
                assert read_response(reader)[0] == 200
        with connect(srv) as sock:
            started = time.monotonic()
            sock.sendall(RECOMMEND)
            elapsed, reply = read_until_closed(sock, limit_s=1)
        status, headers, body = split_response(reply)
        assert status == 503 and headers["connection"] == "close"
        assert json.loads(body) == {"error": "server busy, try again"}
        assert time.monotonic() - started < 1
        held.pop().close()
        assert answered_200_within(srv, 2)
    finally:
        for sock in held:
            sock.close()


def answered_200_within(srv: RecommendServer, limit_s: float) -> bool:
    """Whether a ``/recommend`` on a new connection gets 200 within ``limit_s``.

    Each attempt must be answered within 1 s, 503 while every slot is taken.
    """
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        with connect(srv) as sock:
            sock.sendall(RECOMMEND.replace(b"Host: test", b"Host: test\r\nConnection: close"))
            elapsed, reply = read_until_closed(sock, limit_s=1)
        assert elapsed < 1
        status = split_response(reply)[0]
        if status == 200:
            return True
        assert status == 503
        time.sleep(0.05)
    return False


def test_idle_and_slow_clients_past_the_bound_leave_new_requests_answered(
    start_server, monkeypatch
):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    srv = start_server()
    idle = [connect(srv), connect(srv)]
    slow = [connect(srv) for _ in range(10)]
    stop = threading.Event()
    senders = [threading.Thread(target=trickle, args=(sock, RECOMMEND, 0.2, stop))
               for sock in slow]
    try:
        for sender in senders:
            sender.start()
        # The idle connections hold both slots until their 0.5 s run out;
        # until then a new request gets 503, and within 1 s.
        with connect(srv) as sock:
            sock.sendall(RECOMMEND)
            elapsed, reply = read_until_closed(sock, limit_s=1)
        assert split_response(reply)[0] == 503 and elapsed < 1
        for sock in slow:
            elapsed, reply = read_until_closed(sock, limit_s=1.5)
            assert reply == b"" or split_response(reply)[0] == 503
        assert answered_200_within(srv, 2)
    finally:
        stop.set()
        for sender in senders:
            sender.join(timeout=5)
        for sock in idle + slow:
            sock.close()
    assert not any(sender.is_alive() for sender in senders)


def exchange(srv: RecommendServer, request: bytes) -> bytes:
    """Send ``request`` and read until the server closes the connection."""
    with connect(srv) as sock:
        sock.sendall(request)
        return read_until_closed(sock, limit_s=3)[1]


@pytest.mark.parametrize("request_bytes, status", [
    (b"PUT /recommend HTTP/1.1\r\nHost: test\r\n\r\n", 501),
    (b"HEAD /healthz HTTP/1.1\r\n\r\n", 501),
    (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    (b"GET /healthz HTTP/1\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
    (b"GET /healthz FTP/1.1\r\n\r\n", 400),
    (b"GET /healthz extra HTTP/1.1\r\n\r\n", 400),
    (b"GET /healthz\r\n\r\n", 400),
    (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * 101 + b"\r\n", 431),
    (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", 431),
], ids=["put", "head", "http-2.0", "version-without-minor", "version-not-digits",
        "not-http", "four-words", "no-version", "long-request-line", "101-header-lines",
        "long-header-line"])
def test_a_request_the_server_cannot_frame_gets_a_json_error_and_closes(
    start_server, request_bytes, status
):
    status_got, headers, body = split_response(exchange(start_server(), request_bytes))
    assert status_got == status
    assert headers["connection"] == "close"
    assert headers["content-type"] == "application/json"
    assert int(headers["content-length"]) == len(body)
    assert set(json.loads(body)) == {"error"}


@pytest.mark.parametrize("length, status", [
    (b"1" + b"0" * 5000, 413),
    (b"0" * 5000 + b"2", 200),
], ids=["5001-digits", "5000-leading-zeros"])
def test_a_content_length_of_thousands_of_digits_is_read(start_server, length, status):
    # int() refuses over 4,300 digits; the first is past every limit, the second is 2.
    request = (b"GET /healthz HTTP/1.1\r\nConnection: close\r\nContent-Length: %s\r\n\r\n{}"
               % length)
    assert split_response(exchange(start_server(), request))[0] == status


@pytest.mark.parametrize("fields, status", [(99, 200), (100, 431)])
def test_the_blank_line_counts_toward_the_header_line_limit(start_server, fields, status):
    # As in http.client: at most 100 lines, the blank one that ends them included.
    request = (b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * (fields - 1)
               + b"Connection: close\r\n\r\n")
    assert split_response(exchange(start_server(), request))[0] == status


@pytest.mark.parametrize("head, closes", [
    (b"GET /healthz HTTP/1.1\r\n", False),
    (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n", True),
    (b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n", True),
    (b"GET /healthz HTTP/1.0\r\n", True),
    (b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n", False),
    (b"GET /healthz HTTP/1.0\r\nConnection: close\r\n", True),
], ids=["1.1", "1.1-close", "1.1-Close", "1.0", "1.0-keep-alive", "1.0-close"])
def test_connection_persistence_follows_the_version_and_connection_header(
    start_server, head, closes
):
    srv = start_server()
    with connect(srv) as sock, sock.makefile("rb") as reader:
        sock.sendall(head + b"\r\n")
        status, headers, body = read_response(reader)
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert headers["content-type"] == "application/json"
        assert headers["date"].endswith(" GMT")
        assert (headers.get("connection") == "close") is closes
        if closes:
            assert read_until_closed(sock, limit_s=3)[1] == b""
        else:
            sock.sendall(RECOMMEND)
            assert read_response(reader)[0] == 200


def test_a_pipelined_pair_gets_two_answers_in_order(start_server):
    srv = start_server()
    with connect(srv) as sock, sock.makefile("rb") as reader:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n" + RECOMMEND)
        assert json.loads(read_response(reader)[2])["status"] == "ok"
        assert json.loads(read_response(reader)[2])["predictions"]


def test_a_blank_request_line_closes_without_an_answer(start_server):
    assert exchange(start_server(), b"\r\n") == b""


def test_serving_loads_no_http_client_email_or_ssl():
    src = os.path.dirname(os.path.dirname(graphex.__file__))
    code = ("import graphex.cli, sys; "
            "print(sorted({'ssl', 'email', 'http.client', 'http.server', 'urllib.request'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"

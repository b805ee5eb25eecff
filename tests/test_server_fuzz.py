"""Seeded fuzz suite for the server's HTTP framing.

Each case mutates a valid request (or pipelined pair), sends it over one
new connection in random splits and then shuts down writing, so every
exchange is short and at most one handler thread is busy.  What comes
back must be whole HTTP/1.1 answers, each after zero or more ``100
Continue`` interims, or a close with no answer.  Every answer has a
status line, ``Content-Type: application/json``, a ``Content-Length``
equal to its body's length and a JSON body, and nothing follows an
answer that says ``Connection: close``.  The server must close within
``_Handler.timeout`` and never reach ``handle_error``.  Seeds are fixed:
failures reproduce deterministically.
"""

from __future__ import annotations

import json
import random
import re
import socket
import sys

import pytest

from graphex.server import RecommendServer, _Handler

from test_server_limits import (  # noqa: F401  (start_server is a fixture)
    RECOMMEND, RECOMMEND_BODY, connect, read_until_closed, start_server)

N_CASES = 3000
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
EXPECT = RECOMMEND.replace(b"Host: test\r\n", b"Host: test\r\nExpect: 100-continue\r\n")
REQUESTS = (HEALTHZ, RECOMMEND, HEALTHZ + RECOMMEND, EXPECT)
# Signs, spaces, other digits and numbers past every limit, the last past
# the 4,300 digits int() converts.
LENGTHS = (b"-1", b"+5", b" 7 ", b"0x10", b"\xd9\xa3", b"", b"0", b"1" * 20,
           b"9" * 400, b"1" + b"0" * 5000, b"0" * 4400 + b"%d" % len(RECOMMEND_BODY))
INTERIM = b"HTTP/1.1 100 Continue\r\n\r\n"
STATUS_LINE = re.compile(rb"HTTP/1\.1 [1-5]\d\d [A-Za-z -]+")


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One random edit of ``data``."""
    at = rng.randrange(len(data) + 1)
    kind = rng.choice(("crlf", "byte", "length", "span", "append"))
    if kind == "crlf":
        return data[:at] + rng.choice((b"\r", b"\n", b"\r\n", b"\r\n\r\n")) + data[at:]
    if kind == "byte":
        noise = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
        return data[:at] + noise + data[at + rng.randint(0, 1):]
    if kind == "length":
        length = rng.choice(LENGTHS)
        if b"Content-Length: " in data:
            return re.sub(rb"(?<=Content-Length: )[^\r\n]*", lambda _: length, data, count=1)
        return data.replace(b"\r\n", b"\r\nContent-Length: " + length + b"\r\n", 1)
    if kind == "span":
        return data[:at] + data[at + rng.randint(1, 24):]
    return data + rng.choice(REQUESTS)


def exchange(srv: RecommendServer, rng: random.Random, request: bytes) -> bytes:
    """Send ``request`` in random splits, shut down writing, read until closed."""
    with connect(srv) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        splits = rng.randint(0, min(3, max(len(request) - 1, 0)))
        cuts = sorted(rng.sample(range(1, len(request)), splits))
        try:
            for start, end in zip([0, *cuts], [*cuts, len(request)]):
                sock.sendall(request[start:end])
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server answered and closed before all was sent
            pass
        return read_until_closed(sock, limit_s=_Handler.timeout)[1]


def answers(reply: bytes) -> int:
    """The number of whole answers in ``reply``; fails unless it is well formed."""
    count = 0
    while reply:
        while reply.startswith(INTERIM):
            reply = reply[len(INTERIM):]
        if not reply:
            break
        head, blank, reply = reply.partition(b"\r\n\r\n")
        assert blank, "an answer's head does not end"
        status_line, *lines = head.split(b"\r\n")
        assert STATUS_LINE.fullmatch(status_line), status_line
        headers = dict(line.split(b": ", 1) for line in lines)
        assert set(headers) <= {b"Content-Type", b"Content-Length", b"Date", b"Connection"}
        assert headers[b"Content-Type"] == b"application/json"
        length = int(headers[b"Content-Length"])
        body, reply = reply[:length], reply[length:]
        assert len(body) == length, "the body is shorter than its Content-Length"
        json.loads(body)
        count += 1
        if headers.get(b"Connection") == b"close":
            assert reply == b"", "bytes follow an answer that closes"
    return count


def test_mutated_requests_get_whole_answers_or_a_close(start_server, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 1.0)
    errors = []
    monkeypatch.setattr(RecommendServer, "handle_error",
                        lambda self, request, address: errors.append(sys.exc_info()[1]))
    srv = start_server()
    rng = random.Random(2024)
    answered = closed = 0
    for case in range(N_CASES):
        request = rng.choice(REQUESTS)
        for _ in range(rng.randint(1, 3)):
            request = mutate(rng, request)
        try:
            reply = exchange(srv, rng, request)
            count = answers(reply)
        except (AssertionError, TimeoutError, ValueError) as exc:
            pytest.fail(f"case {case}: {request[:300]!r}: {exc!r}")
        assert not errors, f"case {case}: {request[:300]!r}: {errors}"
        answered += count > 0
        closed += count == 0
    # Both outcomes occur, so neither half of the check is vacuous.
    assert answered > N_CASES // 2 and closed > N_CASES // 50, (answered, closed)

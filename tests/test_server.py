from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from graphex import server as server_module
from graphex.inference import BatchItem, Query, predictions_to_dicts, recommend_batch
from graphex.server import RecommendServer, ServeConfig, _Handler

from conftest import HEADPHONES_LEAF, HEADPHONES_TITLE


@pytest.fixture
def server(headphones_model):
    srv = RecommendServer(ServeConfig(port=0), headphones_model)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture
def base_url(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


def get(url):
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post(url, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data,
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_healthz_reports_model_stats(base_url):
    status, body = get(f"{base_url}/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["leaves"] == 1
    assert body["keyphrases"] == 5


def test_recommend_returns_worked_example(base_url):
    status, body = post(f"{base_url}/recommend",
                        {"title": HEADPHONES_TITLE, "leaf_category": HEADPHONES_LEAF, "k": 5})
    assert status == 200
    predictions = json.loads(body)["predictions"]
    assert [p["keyphrase"] for p in predictions] == [
        "gaming headphones xbox",
        "audeze maxwell",
        "audeze headphones",
        "wireless headphones xbox",
        "bluetooth wireless headphones",
    ]
    assert predictions[0]["align"] == 3.0
    assert predictions[0]["search"] == 2.0


def test_recommend_validates_requests(base_url):
    url = f"{base_url}/recommend"
    assert post(url, None, raw=b"{not json")[0] == 400
    assert post(url, {"leaf_category": 42})[0] == 400
    assert post(url, {"title": 5, "leaf_category": 42})[0] == 400
    assert post(url, {"title": "x"})[0] == 400
    assert post(url, {"title": "x", "leaf_category": "42"})[0] == 400
    assert post(url, {"title": "x", "leaf_category": 42, "k": 0})[0] == 400
    assert post(url, {"title": "x", "leaf_category": 42, "k": "five"})[0] == 400
    assert post(url, {"title": "x", "leaf_category": 42, "align": "cosine"})[0] == 400
    # Neither is a JSONDecodeError: int() refuses over 4,300 digits, and
    # the decoder arrays nested past the recursion limit.
    huge_number = b'{"title": "x", "leaf_category": 1' + b"0" * 5000 + b"}"
    assert post(url, None, raw=huge_number)[0] == 400
    assert post(url, None, raw=b"[" * 100_000 + b"]" * 100_000)[0] == 400


def test_recommend_alignment_is_selectable(base_url):
    url = f"{base_url}/recommend"
    status, body = post(url, {"title": "bluetooth wireless headphones",
                              "leaf_category": HEADPHONES_LEAF, "align": "wmr"})
    assert status == 200
    top = json.loads(body)["predictions"][0]
    assert top["keyphrase"] == "bluetooth wireless headphones"
    assert top["align"] == 1.0


def test_unknown_leaf_is_404_by_default(base_url):
    status, body = post(f"{base_url}/recommend", {"title": "x", "leaf_category": 999})
    assert status == 404
    assert "999" in json.loads(body)["error"]


def test_unknown_leaf_can_be_configured_as_empty_200(headphones_model):
    srv = RecommendServer(ServeConfig(port=0, unknown_leaf_empty=True), headphones_model)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{srv.server_address[1]}/recommend"
        status, body = post(url, {"title": "x", "leaf_category": 999})
        assert status == 200
        assert json.loads(body) == {"predictions": []}
    finally:
        srv.shutdown()
        srv.server_close()


def test_unknown_path_is_404(base_url):
    assert get(f"{base_url}/nope")[0] == 404
    assert post(f"{base_url}/nope", {})[0] == 404


def test_oversized_body_is_rejected(headphones_model, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
    srv = RecommendServer(ServeConfig(port=0), headphones_model)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{srv.server_address[1]}/recommend"
        payload = {"title": "x" * 200, "leaf_category": HEADPHONES_LEAF}
        assert post(url, payload)[0] == 413
    finally:
        srv.shutdown()
        srv.server_close()


def test_server_prediction_json_matches_batch_inference(headphones_model, base_url):
    status, body = post(f"{base_url}/recommend",
                        {"title": HEADPHONES_TITLE, "leaf_category": HEADPHONES_LEAF, "k": 5})
    assert status == 200
    server_fragment = json.dumps(json.loads(body)["predictions"])
    batch = recommend_batch(
        headphones_model,
        [BatchItem("i1", Query(HEADPHONES_TITLE, HEADPHONES_LEAF, k=5))],
    )
    batch_fragment = json.dumps(predictions_to_dicts(batch[0].predictions))
    assert server_fragment == batch_fragment


def test_concurrent_identical_requests_get_identical_bodies(base_url):
    url = f"{base_url}/recommend"
    payload = {"title": HEADPHONES_TITLE, "leaf_category": HEADPHONES_LEAF, "k": 5}

    def call(_):
        return post(url, payload)

    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(call, range(64)))
    bodies = {body for _, body in results}
    assert all(status == 200 for status, _ in results)
    assert len(bodies) == 1


def raw_post(server, content_length: str, body: bytes = b"") -> bytes:
    """Send a POST with a verbatim Content-Length; return what the server sends back.

    Reads until the server closes the connection, with a timeout so that
    a handler stuck reading the body fails the test instead of hanging it.
    """
    head = (
        "POST /recommend HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("value", ["abc", "12abc", "1_0", "+5", "-1", "-100"])
def test_bad_content_length_is_400_and_closes(server, value):
    reply = raw_post(server, value, body=b'{"title": "x", "leaf_category": 42}')
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length must be a non-negative integer" in reply


def test_a_chunked_body_is_411_and_closes(server):
    head = ("POST /recommend HTTP/1.1\r\nHost: test\r\n"
            "Transfer-Encoding: chunked\r\n\r\n").encode("ascii")
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(RECOMMEND_BODY), RECOMMEND_BODY)
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(head + chunked)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    reply = b"".join(chunks)
    # One answer: the chunks are not read as a second request.
    assert reply.startswith(b"HTTP/1.1 411 ") and reply.count(b"HTTP/1.1") == 1
    assert json.loads(reply.partition(b"\r\n\r\n")[2]) == {
        "error": "send the body with a Content-Length"}


def test_a_body_shorter_than_its_content_length_closes_the_connection(server, monkeypatch):
    # Connections time out by default; shorten the wait for the test.
    assert 0 < _Handler.timeout <= 60
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    started = time.monotonic()
    assert raw_post(server, "100", body=b'{"t') == b""
    assert time.monotonic() - started < 4


RECOMMEND_BODY = json.dumps(
    {"title": HEADPHONES_TITLE, "leaf_category": HEADPHONES_LEAF, "k": 5}).encode()


def test_keep_alive_requests_do_not_wait_for_delayed_acks(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    latencies = []
    try:
        for _ in range(50):
            time.sleep(0.002)
            started = time.perf_counter()
            conn.request("POST", "/recommend", body=RECOMMEND_BODY,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 200 and resp.read()
            latencies.append(time.perf_counter() - started)
    finally:
        conn.close()
    # A response sent in two writes waits ~40 ms for the client's delayed ACK.
    assert statistics.median(latencies) < 0.020


class CountingSocket:
    """A connected socket that records the bytes of every send made on it."""

    def __init__(self, sock: socket.socket, sends: list[bytes]):
        self._sock = sock
        self._sends = sends

    def send(self, data) -> int:
        self._sends.append(bytes(data))
        return self._sock.send(data)

    def sendall(self, data) -> None:
        self._sends.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_each_response_leaves_in_one_send(server, monkeypatch):
    sends: list[bytes] = []
    finish_request = RecommendServer.finish_request
    monkeypatch.setattr(
        RecommendServer, "finish_request",
        lambda self, request, address: finish_request(
            self, CountingSocket(request, sends), address))
    requests = [
        ("POST", "/recommend", RECOMMEND_BODY, 200),
        ("POST", "/recommend", json.dumps({"title": "x", "leaf_category": 999}).encode(), 404),
        ("POST", "/recommend", b"{not json", 400),
        ("GET", "/healthz", None, 200),
        ("POST", "/recommend", RECOMMEND_BODY, 200),
    ]
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    try:
        for number, (method, path, body, status) in enumerate(requests, start=1):
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            answer = resp.read()
            assert resp.status == status
            assert len(sends) == number
            assert sends[-1].startswith(f"HTTP/1.1 {status} ".encode())
            assert sends[-1].endswith(b"\r\n\r\n" + answer)
    finally:
        conn.close()
    assert json.loads(answer)["predictions"]


def test_expect_100_continue_is_answered_before_the_body_is_sent(server):
    head = (
        "POST /recommend HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
        f"Connection: close\r\nContent-Length: {len(RECOMMEND_BODY)}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(head)
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(65536)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(RECOMMEND_BODY)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    reply = b"".join(chunks)
    assert reply.startswith(b"HTTP/1.1 200 ")
    assert json.loads(reply.partition(b"\r\n\r\n")[2])["predictions"]


def test_a_body_one_mib_over_the_limit_gets_413(base_url):
    # The whole body is read before the answer: a server that answers
    # first and closes resets the client while it is still sending.
    raw = b"x" * (server_module.MAX_BODY_BYTES + 10)
    status, body = post(f"{base_url}/recommend", None, raw=raw)
    assert status == 413
    assert json.loads(body) == {"error": "body exceeds 1048576 bytes"}


@pytest.mark.parametrize("method, path, extra, status", [
    ("POST", "/recommend", b" ", 413),
    ("POST", "/nope", b"", 404),
    ("GET", "/healthz", b"", 200),
])
def test_a_request_with_a_body_leaves_the_connection_in_step(
    server, monkeypatch, method, path, extra, status
):
    # Each first request carries a body its answer does not need; the
    # /recommend that follows on the same connection gets its own 200.
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", len(RECOMMEND_BODY))
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    try:
        conn.request(method, path, body=RECOMMEND_BODY + extra)
        first = conn.getresponse()
        assert first.status == status and json.loads(first.read())
        sock = conn.sock
        conn.request("POST", "/recommend", body=RECOMMEND_BODY)
        second = conn.getresponse()
        assert second.status == 200
        assert json.loads(second.read())["predictions"]
        assert conn.sock is sock
    finally:
        conn.close()

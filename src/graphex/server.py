"""Minimal threaded HTTP endpoint serving model recommendations.

One immutable model is shared across handler threads; queries never
mutate it, so no locking is needed on the read path.  A ``/recommend``
answer is written by the same row encoder as batch inference, keeping the
two output paths byte-identical for identical inputs.

The handler frames HTTP/1.x itself on a ``socketserver`` connection: a
request line, at most ``_MAX_HEADERS`` header lines and a body of
``Content-Length`` bytes, all read under one deadline per request.  The
server needs nothing of ``http.server``, whose import chain (``http.client``,
``email``, ``ssl``) would hold several MiB in every serving process.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus

from . import storage
from .graph import Model, UnknownLeafError
from .inference import (
    DEFAULT_K,
    DEFAULT_MAX_PREDICTIONS,
    Alignment,
    Query,
    encode_row,
    recommend,
)

log = logging.getLogger("graphex.server")

# Largest request body read.  A longer one up to twice this is read to its
# end and answered 413; past that, the 413 closes the connection unread.
MAX_BODY_BYTES = 1 << 20
# Connections served at once.  Past it, a new connection gets 503 and is
# closed by the accepting thread, so slow clients cannot use up threads.
MAX_CONNECTIONS = 64
# Longest request or header line, ending included, and most header lines,
# the blank one that ends them included: the limits of http.client, which
# answered 414 and 431 past them.
_MAX_LINE_BYTES = 1 << 16
_MAX_HEADERS = 100
_RECV_BYTES = 1 << 16

_STATUS_LINES = {status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
                 for status in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 8080
    default_k: int = DEFAULT_K
    align: Alignment = Alignment.LTA
    max_predictions: int = DEFAULT_MAX_PREDICTIONS
    # When true, unknown leaf categories answer 200 with an empty
    # prediction list instead of 404.
    unknown_leaf_empty: bool = False


class BadRequest(ValueError):
    pass


def _parse_recommend_body(raw: bytes, config: ServeConfig) -> tuple[str, int, int, Alignment]:
    try:
        body = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also a huge number or deep nesting
        raise BadRequest(f"body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise BadRequest("body must be a JSON object")
    title = body.get("title")
    if not isinstance(title, str):
        raise BadRequest("'title' must be a string")
    leaf = body.get("leaf_category")
    if isinstance(leaf, bool) or not isinstance(leaf, int):
        raise BadRequest("'leaf_category' must be an integer")
    k = body.get("k", config.default_k)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise BadRequest("'k' must be an integer >= 1")
    align_name = body.get("align", config.align.value)
    try:
        align = Alignment(align_name)
    except ValueError:
        raise BadRequest(
            f"'align' must be one of lta, wmr, jac; got {align_name!r}"
        ) from None
    return title, leaf, k, align


def _content_length(header: str | None) -> int | None:
    """Body length from a ``Content-Length`` header (absent or empty is 0).

    Returns ``None`` unless the value is a plain run of ASCII digits:
    ``int`` alone would accept a sign, underscores and non-ASCII digits.
    ``int`` refuses over 4,300 digits: 20 significant ones, past any limit, are read.
    """
    if not header:
        return 0
    header = header.strip()
    if not (header.isascii() and header.isdigit()):
        return None
    return int(header.lstrip("0")[:20] or "0")


def _http_version(word: str) -> tuple[int, int] | None:
    """``(major, minor)`` from ``HTTP/<digits>.<digits>``, or ``None``."""
    if not word.startswith("HTTP/"):
        return None
    numbers = word[5:].split(".")
    if len(numbers) != 2 or not all(
        n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers
    ):
        return None
    return int(numbers[0]), int(numbers[1])


def _http_date() -> str:
    """The current time as an HTTP ``Date`` value, independent of locale."""
    t = time.gmtime()
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _response(status: int, payload: dict | str, close: bool) -> bytes:
    """One whole response: status line, headers and ``payload`` (JSON text or a dict) as body."""
    body = (payload if isinstance(payload, str) else json.dumps(payload)).encode("utf-8")
    connection = "Connection: close\r\n" if close else ""
    head = (f"{_STATUS_LINES[status]}Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nDate: {_http_date()}\r\n{connection}\r\n")
    return head.encode("ascii") + body


class RecommendServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server carrying the shared model and serving configuration.

    Each connection is served by its own daemon thread, at most
    ``MAX_CONNECTIONS`` at once.
    """

    # A restarted server can bind its port while old connections linger.
    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, config: ServeConfig, model: Model):
        self.config = config
        self.model = model
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        super().__init__((config.host, config.port), _Handler)

    def process_request(self, request, client_address) -> None:
        if self._slots.acquire(blocking=False):
            super().process_request(request, client_address)
            return
        # Every slot is taken: answer here and start no thread.  The reply
        # fits in the socket's send buffer, so the accepting thread does
        # not wait on the client.
        try:
            request.sendall(_response(503, {"error": "server busy, try again"}, close=True))
        except OSError:
            pass
        self.shutdown_request(request)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


class _Handler(socketserver.StreamRequestHandler):
    """Reads and answers the requests of one connection in turn.

    Every request's body is read before its answer, so the next request on
    a kept-alive connection starts where this one ended.
    """

    server: RecommendServer
    disable_nagle_algorithm = True
    # Seconds one request may take from its first byte to the end of its
    # body, and seconds a kept-alive connection may wait for the next
    # request.  Past it the connection closes, so a client that stalls or
    # trickles bytes cannot hold the handler thread.
    timeout = 30

    def handle(self) -> None:
        self.buffer = bytearray()
        try:
            while self._serve_one():
                pass
        except OSError as exc:  # the deadline passed (TimeoutError) or the client left
            log.debug("%s: connection closed: %r", self.client_address[0], exc)

    def _recv(self, deadline: float) -> bool:
        """Append the client's next bytes to the buffer; ``False`` once it has closed."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request deadline passed")
        self.connection.settimeout(remaining)
        data = self.connection.recv(_RECV_BYTES)
        self.buffer += data
        return bool(data)

    def _line(self, deadline: float) -> bytes | None:
        """The next line, ending included; ``None`` if over ``_MAX_LINE_BYTES``.

        After the client closes, the rest of the buffer is the last line.
        """
        buffer = self.buffer
        while (end := buffer.find(b"\n", 0, _MAX_LINE_BYTES)) < 0:
            if len(buffer) >= _MAX_LINE_BYTES:
                return None
            if not self._recv(deadline):
                end = len(buffer) - 1
                break
        line = bytes(buffer[:end + 1])
        del buffer[:end + 1]
        return line

    def _headers(self, deadline: float) -> dict[str, str] | None:
        """Header values by lower-case name (the first of repeats); ``None`` past a limit."""
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = self._line(deadline)
            if line is None:
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if colon:
                headers.setdefault(name.lower(), value.strip())
        return None

    def _body(self, length: int, deadline: float) -> bytes | None:
        """The next ``length`` bytes; ``None`` if the client closes first."""
        buffer = self.buffer
        while len(buffer) < length:
            if not self._recv(deadline):
                return None
        body = bytes(buffer[:length])
        del buffer[:length]
        return body

    def _send(self, status: int, payload: dict | str, close: bool) -> bool:
        """Send one answer in one write; returns whether the connection stays open."""
        # One write: a second would wait on the client's delayed ACK
        # (~40 ms) under Nagle's algorithm.
        self.connection.sendall(_response(status, payload, close))
        return not close

    def _serve_one(self) -> bool:
        """Read and answer one request; returns whether to read another."""
        if not self.buffer and not self._recv(time.monotonic() + self.timeout):
            return False  # the client closed between requests
        deadline = time.monotonic() + self.timeout
        line = self._line(deadline)
        if line is None:
            return self._send(414, {"error": "request line too long"}, True)
        request_line = line.decode("iso-8859-1").rstrip("\r\n")
        words = request_line.split()
        if not words:
            return False
        # Method, path and HTTP/1.x version; the version word is judged first.
        if len(words) >= 3:
            version = _http_version(words[-1])
            if version is None:
                return self._send(400, {"error": f"bad request version {words[-1]!r}"}, True)
            if version >= (2, 0):
                return self._send(505, {"error": f"unsupported HTTP version {words[-1]!r}"}, True)
        if len(words) != 3:
            return self._send(400, {"error": f"bad request line {request_line!r}"}, True)
        method, path, _ = words
        headers = self._headers(deadline)
        if headers is None:
            return self._send(431, {"error": f"{_MAX_HEADERS} header lines or a line over "
                                             f"{_MAX_LINE_BYTES} bytes"}, True)
        connection = headers.get("connection", "").lower()
        close = connection == "close" or (version < (1, 1) and connection != "keep-alive")
        if method not in ("GET", "POST"):
            return self._send(501, {"error": f"unsupported method {method!r}"}, True)
        if "transfer-encoding" in headers:
            # A chunked body is not read, so the connection cannot be reused.
            return self._send(411, {"error": "send the body with a Content-Length"}, True)
        length = _content_length(headers.get("content-length"))
        if length is None:
            # The body's extent is unknown, so the connection cannot be reused.
            return self._send(400, {"error": "Content-Length must be a non-negative integer"}, True)
        too_long = {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
        if length > 2 * MAX_BODY_BYTES:
            return self._send(413, too_long, True)
        if version >= (1, 1) and headers.get("expect", "").lower() == "100-continue":
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        # Read an over-long body to its end too: an answer sent first would
        # leave the body in the stream, and closing at once resets a client
        # still sending.
        body = self._body(length, deadline)
        if body is None:
            return False
        if length > MAX_BODY_BYTES:
            return self._send(413, too_long, close)
        if (method, path) == ("POST", "/recommend"):
            status, payload = self._recommend(body)
        elif (method, path) == ("GET", "/healthz"):
            model = self.server.model
            status, payload = 200, {
                "status": "ok",
                "meta_category": model.meta_category,
                "format_version": storage.FORMAT_VERSION,
                "leaves": len(model.leaf_graphs),
                "keyphrases": model.num_keyphrases,
            }
        else:
            status, payload = 404, {"error": f"no such path: {path}"}
        log.debug('%s "%s %s" %d', self.client_address[0], method, path, status)
        return self._send(status, payload, close)

    def _recommend(self, body: bytes) -> tuple[int, dict | str]:
        """Status and payload answering a ``/recommend`` body."""
        config = self.server.config
        try:
            title, leaf, k, align = _parse_recommend_body(body, config)
        except BadRequest as exc:
            return 400, {"error": str(exc)}
        try:
            predictions = recommend(
                self.server.model,
                Query(title=title, leaf_category=leaf, k=k),
                align=align,
                max_predictions=config.max_predictions,
            )
        except UnknownLeafError as exc:
            if config.unknown_leaf_empty:
                return 200, encode_row([])
            return 404, {"error": str(exc)}
        return 200, encode_row(predictions)


def serve(config: ServeConfig, model: Model) -> None:
    """Run the endpoint over a loaded model until interrupted (blocking)."""
    with RecommendServer(config, model) as server:
        log.info("listening on %s:%d", config.host, config.port)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            log.info("shutting down")

"""Minimal threaded HTTP endpoint serving model recommendations.

One immutable model is shared across handler threads; queries never
mutate it, so no locking is needed on the read path.  A ``/recommend``
answer is written by the same row encoder as batch inference, keeping the
two output paths byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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

# Largest request body read; a longer one is read to its end and answered 413.
MAX_BODY_BYTES = 1 << 20


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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    """
    if not header:
        return 0
    header = header.strip()
    if not (header.isascii() and header.isdigit()):
        return None
    return int(header)


class RecommendServer(ThreadingHTTPServer):
    """HTTP server carrying the shared model and serving configuration."""

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, config: ServeConfig, model: Model):
        super().__init__((config.host, config.port), _Handler)
        self.config = config
        self.model = model


class _Handler(BaseHTTPRequestHandler):
    server: RecommendServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # Seconds a connection may sit idle or stall mid-request; a body
    # shorter than its Content-Length then closes the connection instead
    # of holding the handler thread forever.
    timeout = 30

    def log_message(self, format: str, *args) -> None:
        log.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict | str) -> None:
        """Send one JSON response: ``payload`` as JSON text, or a dict to dump."""
        body = (payload if isinstance(payload, str) else json.dumps(payload)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # Status line, headers and body leave in one send: a second send
        # would wait on the client's delayed ACK (~40 ms) under Nagle's
        # algorithm.  wfile stays unbuffered so that the interim
        # "100 Continue" of an Expect request is not held back.
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # HTTP/0.9 answers carry no headers
        else:
            self._headers_buffer.append(b"\r\n" + body)
            self.flush_headers()

    def _handle(self) -> None:
        """Answer one request: check ``Content-Length``, read the body, then route.

        Every request's body is read before any answer, so the next
        request on a kept-alive connection starts where this one ended.
        """
        if "Transfer-Encoding" in self.headers:
            # A chunked body is not read, so the connection cannot be reused.
            self.close_connection = True
            self._send_json(411, {"error": "send the body with a Content-Length"})
            return
        length = _content_length(self.headers.get("Content-Length"))
        if length is None:
            # The body's extent is unknown, so the connection cannot be reused.
            self.close_connection = True
            self._send_json(400, {"error": "Content-Length must be a non-negative integer"})
            return
        if length > MAX_BODY_BYTES:
            # Read it to its end: an answer sent first would leave the body
            # in the stream, and closing at once resets a client still sending.
            while length > 0 and (chunk := self.rfile.read(min(length, 1 << 16))):
                length -= len(chunk)
            self._send_json(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"})
            return
        body = self.rfile.read(length)
        route = (self.command, self.path)
        if route == ("POST", "/recommend"):
            self._recommend(body)
        elif route == ("GET", "/healthz"):
            model = self.server.model
            self._send_json(
                200,
                {
                    "status": "ok",
                    "meta_category": model.meta_category,
                    "format_version": storage.FORMAT_VERSION,
                    "leaves": len(model.leaf_graphs),
                    "keyphrases": model.num_keyphrases,
                },
            )
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    do_GET = do_POST = _handle

    def _recommend(self, body: bytes) -> None:
        config = self.server.config
        try:
            title, leaf, k, align = _parse_recommend_body(body, config)
        except BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            predictions = recommend(
                self.server.model,
                Query(title=title, leaf_category=leaf, k=k),
                align=align,
                max_predictions=config.max_predictions,
            )
        except UnknownLeafError as exc:
            if config.unknown_leaf_empty:
                self._send_json(200, encode_row([]))
            else:
                self._send_json(404, {"error": str(exc)})
            return
        self._send_json(200, encode_row(predictions))


def serve(config: ServeConfig, model: Model) -> None:
    """Run the endpoint over a loaded model until interrupted (blocking)."""
    with RecommendServer(config, model) as server:
        log.info("listening on %s:%d", config.host, config.port)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            log.info("shutting down")

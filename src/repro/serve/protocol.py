"""Wire protocol of the SQL service: NDJSON frames plus minimal HTTP.

The native protocol is newline-delimited JSON (one UTF-8 JSON object
per ``\\n``-terminated line) over TCP -- trivially scriptable with
``nc`` and trivially testable byte-for-byte.  A connection speaks:

* ``{"op": "hello", "tenant": "gold"}`` -- bind the session to a
  tenant; answered with the session id and the tenant's SLO class.
* ``{"op": "query", "id": 7, "sql": "SELECT ...", "limit": 8}`` --
  plan + execute; answered with rows, simulated latency, and queueing
  info, or a typed error (``rejected``, ``sql``, ``internal``).
  ``"canonical": true`` additionally returns the byte-stable canonical
  observation of the execution (identical for any backend/worker
  count) -- the integration suite's cross-backend oracle.
* ``{"op": "ping"}`` / ``{"op": "goodbye"}`` -- liveness and orderly
  close.

The same listener also answers plain HTTP (sniffed from the first
line): ``GET /metrics`` (Prometheus text), ``GET /healthz``, and
``POST /query`` one-shots, so a Prometheus scraper and a curl user need
no special client.

This module is pure bytes-in/values-out; the asyncio plumbing lives in
:mod:`repro.serve.server`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import FramingError, ProtocolError

#: Protocol revision spoken by this build.
PROTOCOL_VERSION = 1

#: Hard ceiling on one NDJSON line (requests and responses alike); a
#: longer line is a framing violation and closes the connection.
MAX_LINE_BYTES = 1_000_000

#: Request operations a client may send.
REQUEST_OPS = ("hello", "query", "ping", "goodbye")

#: Error kinds carried by error responses.
ERROR_KINDS = ("protocol", "session", "rejected", "sql", "internal")

HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ")


@dataclass(frozen=True)
class Request:
    """One decoded client frame."""

    op: str
    #: Client-chosen correlation id, echoed on the response.
    id: int | str | None = None
    tenant: str | None = None
    sql: str | None = None
    #: Row-pair limit of the response payload.
    limit: int = 8
    #: Return the canonical observation of this execution.
    canonical: bool = False

    def validate(self) -> "Request":
        if self.op not in REQUEST_OPS:
            raise ProtocolError(
                f"unknown op {self.op!r} (expected one of {REQUEST_OPS})"
            )
        if self.op == "hello" and not self.tenant:
            raise ProtocolError("hello needs a tenant")
        if self.op == "query":
            if not self.sql or not isinstance(self.sql, str):
                raise ProtocolError("query needs non-empty sql text")
            if not isinstance(self.limit, int) or self.limit < 1:
                raise ProtocolError("limit must be a positive integer")
        return self


def encode_request(request: Request) -> bytes:
    """One request as an NDJSON line (omitting unset fields)."""
    doc: dict = {"op": request.op}
    if request.id is not None:
        doc["id"] = request.id
    if request.tenant is not None:
        doc["tenant"] = request.tenant
    if request.sql is not None:
        doc["sql"] = request.sql
        doc["limit"] = request.limit
        if request.canonical:
            doc["canonical"] = True
    return _encode_line(doc)


def decode_request(line: bytes) -> Request:
    """Parse one client line into a validated :class:`Request`."""
    return _request_of(_decode_line(line))


def decode_query_body(body: bytes) -> Request:
    """Parse an HTTP ``POST /query`` body into a validated query.

    The body is one JSON object with the fields of an NDJSON ``query``
    frame (``sql``, ``limit``, ``canonical``, ``tenant``, ``id``), whose
    ``op`` is implied; it passes the same checks as
    :func:`decode_request`, so both transports share one decoder.
    """
    doc = _decode_line(body) if body.strip() else {}
    return _request_of({**doc, "op": "query"})


def _request_of(doc: dict) -> Request:
    op = doc.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string 'op'")
    rid = doc.get("id")
    if rid is not None and not isinstance(rid, (int, str)):
        raise ProtocolError("request id must be an integer or string")
    tenant = doc.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise ProtocolError("tenant must be a string")
    limit = doc.get("limit", 8)
    return Request(
        op=op,
        id=rid,
        tenant=tenant,
        sql=doc.get("sql"),
        limit=limit if isinstance(limit, int) else -1,
        canonical=bool(doc.get("canonical", False)),
    ).validate()


@dataclass(frozen=True)
class Response:
    """One server frame."""

    type: str
    ok: bool = True
    id: int | str | None = None
    #: Error payload (``ok=False``): human text + machine kind.
    error: str | None = None
    kind: str | None = None
    #: Everything else (rows, latencies, session info).
    body: dict = field(default_factory=dict)


def encode_response(response: Response) -> bytes:
    doc: dict = {"type": response.type, "ok": response.ok}
    if response.id is not None:
        doc["id"] = response.id
    if not response.ok:
        doc["error"] = response.error or "unknown error"
        doc["kind"] = response.kind or "internal"
    doc.update(response.body)
    return _encode_line(doc)


def decode_response(line: bytes) -> Response:
    doc = _decode_line(line)
    rtype = doc.get("type")
    if not isinstance(rtype, str):
        raise ProtocolError("response needs a string 'type'")
    ok = bool(doc.get("ok", False))
    body = {
        k: v
        for k, v in doc.items()
        if k not in ("type", "ok", "id", "error", "kind")
    }
    return Response(
        type=rtype,
        ok=ok,
        id=doc.get("id"),
        error=doc.get("error"),
        kind=doc.get("kind"),
        body=body,
    )


def error_response(
    kind: str, message: str, *, id: int | str | None = None
) -> Response:
    if kind not in ERROR_KINDS:
        raise ProtocolError(f"unknown error kind {kind!r}")
    return Response(type="error", ok=False, id=id, error=message, kind=kind)


# ----------------------------------------------------------------------
# line framing
# ----------------------------------------------------------------------
def _encode_line(doc: dict) -> bytes:
    line = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    if len(line) + 1 > MAX_LINE_BYTES:
        raise ProtocolError(
            f"frame of {len(line) + 1} bytes exceeds MAX_LINE_BYTES "
            f"({MAX_LINE_BYTES})"
        )
    return line + b"\n"


def _decode_line(line: bytes) -> dict:
    if len(line) > MAX_LINE_BYTES:
        raise FramingError(
            f"line of {len(line)} bytes exceeds MAX_LINE_BYTES"
        )
    text = line.strip()
    if not text:
        raise FramingError("empty line")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Bad JSON, bytes that are not UTF-8, or nesting deeper than
        # the decoder's recursion limit.
        raise FramingError(f"malformed JSON frame: {exc}") from exc
    if not isinstance(doc, dict):
        raise FramingError("frame must be a JSON object")
    return doc


# ----------------------------------------------------------------------
# minimal HTTP (scrape + one-shot endpoints)
# ----------------------------------------------------------------------
def is_http_preamble(first: bytes) -> bool:
    """True when the connection's first bytes look like an HTTP request."""
    return first.startswith(HTTP_METHODS)


@dataclass(frozen=True)
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes = b""


def parse_http_head(head: bytes) -> HttpRequest:
    """Parse request line + headers (everything before the blank line).

    A ``Content-Length`` must be an integer from 0 to
    :data:`MAX_LINE_BYTES`, so the body is never read past the limit.
    """
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ProtocolError(f"undecodable HTTP head: {exc}") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed HTTP request line: {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed HTTP header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not (
        length.isascii()
        and length.isdigit()
        and len(length) <= 20
        and int(length) <= MAX_LINE_BYTES
    ):
        raise ProtocolError(
            f"Content-Length {length!r} is not an integer from 0 to "
            f"{MAX_LINE_BYTES}"
        )
    return HttpRequest(method=parts[0], path=parts[1], headers=headers)


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def http_response(
    status: int, body: str | bytes, *, content_type: str = "text/plain"
) -> bytes:
    """A complete HTTP/1.1 response with connection close semantics."""
    payload = body.encode() if isinstance(body, str) else body
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload

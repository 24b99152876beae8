"""Wire-protocol framing: NDJSON codecs and the minimal HTTP layer."""

from __future__ import annotations

import json

import pytest

from repro.errors import FramingError, ProtocolError
from repro.serve import (
    MAX_LINE_BYTES,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
)
from repro.serve.protocol import (
    decode_query_body,
    http_response,
    is_http_preamble,
    parse_http_head,
)


class TestRequests:
    def test_round_trip(self):
        for request in (
            Request(op="hello", tenant="gold", id=1),
            Request(op="query", sql="SELECT 1 FROM t", limit=4, id="q-9"),
            Request(op="query", sql="SELECT 1 FROM t", canonical=True),
            Request(op="ping"),
            Request(op="goodbye"),
        ):
            line = encode_request(request)
            assert line.endswith(b"\n") and line.count(b"\n") == 1
            assert decode_request(line) == request

    @pytest.mark.parametrize(
        "doc,match",
        [
            ({"op": "teleport"}, "unknown op"),
            ({"op": "hello"}, "needs a tenant"),
            ({"op": "query"}, "non-empty sql"),
            ({"op": "query", "sql": "SELECT 1 FROM t", "limit": 0}, "positive"),
            ({"op": "query", "sql": "SELECT 1 FROM t", "limit": "x"}, "positive"),
            ({"op": 7}, "string 'op'"),
            ({"op": "ping", "id": [1]}, "id must be"),
            ({"op": "ping", "tenant": 3}, "tenant must be"),
        ],
    )
    def test_schema_violations(self, doc, match):
        with pytest.raises(ProtocolError, match=match):
            decode_request(json.dumps(doc).encode() + b"\n")

    @pytest.mark.parametrize(
        "line",
        [
            b"\n",
            b"not json\n",
            b"[1, 2]\n",
            b"x" * (MAX_LINE_BYTES + 1),
            pytest.param(b"\xff\xfe{}\n", id="utf16-bom"),
            pytest.param(b'{"op": "\x80"}\n', id="not-utf8"),
            pytest.param(b"[" * 100_000 + b"\n", id="deep-nesting"),
        ],
    )
    def test_framing_violations(self, line):
        # Framing errors are the subtype that closes the connection.
        with pytest.raises(FramingError):
            decode_request(line)

    def test_query_body_shares_the_field_checks(self):
        body = json.dumps({"sql": "SELECT 1 FROM t", "limit": 3, "tenant": "gold"})
        assert decode_query_body(body.encode()) == Request(
            op="query", sql="SELECT 1 FROM t", limit=3, tenant="gold"
        )
        for doc in ({"sql": "SELECT 1 FROM t", "limit": "x"}, {"tenant": "gold"}):
            with pytest.raises(ProtocolError):
                decode_query_body(json.dumps(doc).encode())
        with pytest.raises(ProtocolError, match="non-empty sql"):
            decode_query_body(b"")

    def test_framing_is_a_protocol_error(self):
        assert issubclass(FramingError, ProtocolError)


class TestResponses:
    def test_result_round_trip(self):
        response = Response(type="result", id=3, body={"rows": [1, 2]})
        decoded = decode_response(encode_response(response))
        assert decoded.ok and decoded.id == 3
        assert decoded.body == {"rows": [1, 2]}

    def test_error_round_trip(self):
        decoded = decode_response(
            encode_response(error_response("rejected", "queue full", id=8))
        )
        assert not decoded.ok
        assert decoded.kind == "rejected" and decoded.id == 8
        assert "queue full" in decoded.error

    def test_unknown_error_kind_refused(self):
        with pytest.raises(ProtocolError, match="unknown error kind"):
            error_response("mystery", "boom")

    def test_deterministic_bytes(self):
        response = Response(type="result", id=1, body={"b": 2, "a": 1})
        assert encode_response(response) == encode_response(response)
        assert encode_response(response) == (
            b'{"a":1,"b":2,"id":1,"ok":true,"type":"result"}\n'
        )


class TestHttp:
    def test_sniffing(self):
        assert is_http_preamble(b"GET /metrics HTTP/1.1\r\n")
        assert is_http_preamble(b"POST /query HTTP/1.1\r\n")
        assert not is_http_preamble(b'{"op":"hello"}\n')

    def test_parse_head(self):
        head = b"GET /metrics?x=1 HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n\r\n"
        request = parse_http_head(head)
        assert request.method == "GET"
        assert request.path == "/metrics?x=1"
        assert request.headers["host"] == "h"

    @pytest.mark.parametrize(
        "head",
        [
            b"GET\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad\r\n\r\n",
            *(
                pytest.param(
                    f"POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                    .encode("latin-1"),
                    id=f"content-length-{name}",
                )
                for name, length in [
                    ("word", "abc"), ("negative", "-5"), ("signed", "+5"),
                    ("empty", ""), ("float", "1e3"), ("superscript", "\u00b2"),
                    ("5000-digits", "1" * 5000),
                    ("one-past-max", str(MAX_LINE_BYTES + 1)),
                    ("terabyte", "1000000000000"),
                ]
            ),
        ],
    )
    def test_parse_head_rejects(self, head):
        with pytest.raises(ProtocolError):
            parse_http_head(head)

    @pytest.mark.parametrize("length", ["0", "17", "007", str(MAX_LINE_BYTES)])
    def test_content_length_in_range(self, length):
        head = f"POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        assert parse_http_head(head.encode()).headers["content-length"] == length

    def test_http_response_shape(self):
        raw = http_response(429, "slow down\n")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Content-Length: 10" in head
        assert b"Connection: close" in head
        assert body == b"slow down\n"

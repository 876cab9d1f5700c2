"""Unit tests for HTTP message encoding/parsing."""

import pytest

from repro.http import HttpRequest, HttpResponse
from repro.http.messages import HttpError, parse_head


def test_request_encoding_includes_content_length():
    req = HttpRequest(method="POST", path="/prov", body=b"{}",
                      headers={"Host": "cloud:80"})
    wire = req.encode()
    assert wire.startswith(b"POST /prov HTTP/1.1\r\n")
    assert b"Content-Length: 2" in wire
    assert wire.endswith(b"\r\n\r\n{}")


def test_request_without_body_has_no_content_length():
    wire = HttpRequest(method="GET", path="/x").encode()
    assert b"Content-Length" not in wire


def test_response_encoding():
    resp = HttpResponse(status=201, reason="Created", body=b"ok")
    wire = resp.encode()
    assert wire.startswith(b"HTTP/1.1 201 Created\r\n")
    assert b"Content-Length: 2" in wire
    assert wire.endswith(b"ok")


def test_response_ok_property():
    assert HttpResponse(status=200).ok
    assert HttpResponse(status=204).ok
    assert not HttpResponse(status=404).ok
    assert not HttpResponse(status=500).ok


def test_keep_alive_defaults_and_close():
    assert HttpRequest().keep_alive()
    assert not HttpRequest(headers={"Connection": "close"}).keep_alive()
    assert HttpResponse().keep_alive()
    assert not HttpResponse(headers={"Connection": "Close"}).keep_alive()


def test_request_head_round_trips_through_the_parser():
    req = HttpRequest(method="POST", path="/p", body=b"abc", headers={"Host": "cloud:80"})
    wire = req.encode()
    head, _, body = wire.partition(b"\r\n\r\n")
    start, headers, length = parse_head(head)
    assert start == ("POST", "/p", "HTTP/1.1")
    assert headers == {"Host": "cloud:80", "Content-Length": "3"}
    assert length == len(body) == 3


def test_parse_headers():
    block = b"GET / HTTP/1.1\r\nHost: cloud:80\r\nContent-Type: application/json"
    _, headers, length = parse_head(block)
    assert headers == {"Host": "cloud:80", "Content-Type": "application/json"}
    assert length == 0


def test_parse_headers_rejects_garbage():
    with pytest.raises(HttpError):
        parse_head(b"GET / HTTP/1.1\r\nnot-a-header-line")


def test_parse_status_line():
    start, headers, length = parse_head(b"HTTP/1.1 201 Created\r\nContent-Length: 2",
                                        response=True)
    assert start == ("HTTP/1.1", 201, "Created") and length == 2
    assert parse_head(b"HTTP/1.1 204", response=True)[0] == ("HTTP/1.1", 204, "")

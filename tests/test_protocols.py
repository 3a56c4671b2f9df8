import pytest

from pckad import (
    GenSpec,
    Malformed,
    Protocol,
    RelevantPayload,
    extract_relevant,
    gen_legit,
    protocol_for_port,
)
from pckad.protocols import request_target_span

GET_LINE = b"GET /people/svalente/gif/poker.dogs.jpg HTTP/1.0\r\n"


class TestHttp:
    def test_request_line_is_the_only_component(self):
        payload = GET_LINE + b"Host: web.example.org\r\nAccept: */*\r\n\r\n"
        rel = extract_relevant(Protocol.HTTP, payload)
        assert isinstance(rel, RelevantPayload)
        assert rel.components == (GET_LINE,)
        assert len(rel.components[0]) == 50

    def test_request_line_without_headers(self):
        rel = extract_relevant(Protocol.HTTP, GET_LINE)
        assert rel.components == (GET_LINE,)

    @pytest.mark.parametrize("method", [b"GET", b"POST", b"HEAD", b"OPTIONS", b"DELETE"])
    def test_other_methods_accepted(self, method):
        line = method + b" /x HTTP/1.1\r\n"
        rel = extract_relevant(Protocol.HTTP, line + b"\r\n")
        assert rel.components == (line,)

    @pytest.mark.parametrize(
        "payload",
        [
            b"GET ../..",                      # no version, no terminator
            b"GET /x HTTP/1.0",                # missing CRLF
            b"GET /x HTTP/1.0\n",              # bare LF
            b"GET  /x HTTP/1.0\r\n",           # double space
            b"GET /x  HTTP/1.0\r\n",
            b"GET /x HTTP/1\r\n",              # bad version
            b"GET HTTP/1.0\r\n",               # missing target
            b"Host: web.example.org\r\n",      # continuation packet, no request line
            b"\r\nGET /x HTTP/1.0\r\n",        # leading empty line
            b"G@T /x HTTP/1.0\r\n",            # bad method token
        ],
    )
    def test_malformed_request_lines(self, payload):
        assert isinstance(extract_relevant(Protocol.HTTP, payload), Malformed)

    def test_high_bytes_allowed_in_target(self):
        line = b"GET /\xde\xad\xbe\xef HTTP/1.0\r\n"
        rel = extract_relevant(Protocol.HTTP, line)
        assert rel.components == (line,)

    def test_request_target_span(self):
        span = request_target_span(GET_LINE)
        assert span is not None
        start, end = span
        assert GET_LINE[start:end] == b"/people/svalente/gif/poker.dogs.jpg"
        assert request_target_span(b"junk") is None


class TestFtp:
    def test_passthrough(self):
        payload = b"RETR file.txt\r\n"
        rel = extract_relevant(Protocol.FTP, payload)
        assert rel.components == (payload,)
        assert len(rel.components[0]) == 15

    def test_any_bytes_pass(self):
        payload = bytes(range(1, 256))
        rel = extract_relevant(Protocol.FTP, payload)
        assert rel.components == (payload,)


def test_components_are_contiguous_subsequences():
    for protocol in (Protocol.HTTP, Protocol.FTP):
        for rec in gen_legit(GenSpec(protocol, 100, seed=11)):
            rel = extract_relevant(protocol, rec.payload)
            assert isinstance(rel, RelevantPayload)
            assert rel.components
            for comp in rel.components:
                assert comp
                assert comp in rec.payload


class TestProtocolForPort:
    def test_http(self):
        assert protocol_for_port(80) is Protocol.HTTP

    def test_ftp(self):
        assert protocol_for_port(21) is Protocol.FTP

    def test_unsupported(self):
        assert protocol_for_port(25) is None


def test_protocol_defaults():
    assert Protocol.FTP.default_port == 21
    assert Protocol.HTTP.default_port == 80
    assert Protocol.FTP.default_score_threshold == 40.0
    assert Protocol.HTTP.default_score_threshold == 30.0

import pytest

from pckad import (
    GenSpec,
    Malformed,
    Protocol,
    RelevantPayload,
    extract_relevant,
    gen_legit,
    inject_corpus,
    protocol_for_port,
)
from pckad.protocols import request_target_span
from pckad.synth import AnomalyKind

GET_LINE = b"GET /people/svalente/gif/poker.dogs.jpg HTTP/1.0\r\n"


class TestHttp:
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

    def test_request_target_span(self):
        span = request_target_span(GET_LINE)
        assert span is not None
        start, end = span
        assert GET_LINE[start:end] == b"/people/svalente/gif/poker.dogs.jpg"
        assert request_target_span(b"junk") is None


# (protocol, payload, the one relevant part): HTTP keeps the request line with
# its CRLF, FTP the whole payload; featurize unpacks exactly one part, so a
# rule that selects more must fail here
ONE_PART_CASES = [
    pytest.param(Protocol.HTTP, GET_LINE + b"Host: web.example.org\r\nAccept: */*\r\n\r\n",
                 GET_LINE, id="http-headers"),
    pytest.param(Protocol.HTTP, GET_LINE, GET_LINE, id="http-line"),
    *[pytest.param(Protocol.HTTP, method + b" /x HTTP/1.1\r\n\r\n", method + b" /x HTTP/1.1\r\n",
                   id="http-" + method.decode().lower())
      for method in (b"GET", b"POST", b"HEAD", b"OPTIONS", b"DELETE")],
    pytest.param(Protocol.HTTP, b"GET /\xde\xad\xbe\xef HTTP/1.0\r\n",
                 b"GET /\xde\xad\xbe\xef HTTP/1.0\r\n", id="http-high-bytes"),
    pytest.param(Protocol.FTP, b"RETR file.txt\r\n", b"RETR file.txt\r\n", id="ftp-command"),
    pytest.param(Protocol.FTP, bytes(range(1, 256)), bytes(range(1, 256)), id="ftp-any-bytes"),
    pytest.param(Protocol.FTP, b"x", b"x", id="ftp-one-byte"),
]


@pytest.mark.parametrize("protocol, payload, part", ONE_PART_CASES)
def test_hand_cases_select_exactly_one_part(protocol, payload, part):
    rel = extract_relevant(protocol, payload)
    assert isinstance(rel, RelevantPayload)
    assert rel.components == (part,)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_corpora_select_exactly_one_contiguous_part(protocol):
    """Every legit and injected record of the generator yields one non-empty part of its payload."""
    records = gen_legit(GenSpec(protocol, 400, seed=11))
    for seed, kind in enumerate(AnomalyKind):
        records = inject_corpus(records, kind, 20, seed=seed)
    assert sum(rec.is_attack for rec in records) == 20 * len(AnomalyKind)
    for rec in records:
        rel = extract_relevant(protocol, rec.payload)
        assert isinstance(rel, RelevantPayload), rec
        (part,) = rel.components
        assert part and part in rec.payload


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

"""Protocol knowledge: which part of a payload is worth modeling.

Only the structured, attacker-controlled parts of a payload are analyzed.
For HTTP that is the request line (method, target, version, CRLF included);
header lines and body are discarded. For FTP the whole control-channel
payload is one relevant component. Payloads that violate the protocol
grammar are reported as malformed, which the detector treats as an alert.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class Protocol(enum.Enum):
    HTTP = "http"
    FTP = "ftp"

    @property
    def default_port(self) -> int:
        return 80 if self is Protocol.HTTP else 21

    @property
    def default_score_threshold(self) -> float:
        """Alert threshold (percent of anomalous occurrences) per protocol."""
        return 30.0 if self is Protocol.HTTP else 40.0


@dataclass(frozen=True)
class RelevantPayload:
    """Ordered protocol-relevant components selected from one payload."""

    components: tuple[bytes, ...]


class Malformed:
    """Marks a protocol-violating payload; a first-class outcome, not an error."""


# method token, single spaces, non-empty target without SP/CR/LF, version, CRLF
_REQUEST_LINE_RE = re.compile(
    rb"\A([!#$%&'*+\-.^_`|~0-9A-Za-z]+) ([^ \r\n]+) (HTTP/[0-9]\.[0-9])\r\n"
)


def extract_relevant(protocol: Protocol, payload: bytes) -> RelevantPayload | Malformed:
    """Select the relevant components of a payload, or flag it malformed.

    `model.featurize` routes an empty payload to the unclassifiable verdict
    before getting here.
    """
    if protocol is Protocol.FTP:
        return RelevantPayload((payload,))
    m = _REQUEST_LINE_RE.match(payload)
    if m is None:
        return Malformed()
    return RelevantPayload((m.group(0),))


def request_target_span(payload: bytes) -> tuple[int, int] | None:
    """Byte range of the request-target within a valid HTTP request line."""
    m = _REQUEST_LINE_RE.match(payload)
    if m is None:
        return None
    return m.start(2), m.end(2)


_PORT_PROTOCOLS = {p.default_port: p for p in Protocol}


def protocol_for_port(port: int) -> Protocol | None:
    """Protocol analyzed on this port, or None if the port is not modeled."""
    return _PORT_PROTOCOLS.get(port)

"""Packet corpus ingestion and storage.

Two corpus formats are supported:

* classic pcap (magic 0xa1b2c3d4 / 0xd4c3b2a1, either endianness, Ethernet
  link type) from which inbound TCP segments are decapsulated, and
* a portable JSONL format, one record per line:
  ``{"port": int, "payload_hex": str, "label": "legit"|"attack:<id>", "ts": int}``
  where ``label`` and ``ts`` are optional and ``ts`` is microseconds since
  the epoch.

The data unit is the single packet; no TCP stream reassembly is performed.
"""

from __future__ import annotations

import ipaddress
import json
import math
import os
import re
import stat
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CorpusError

# what the surrogateescape error handler makes of bytes that are not UTF-8
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")

_PCAP_ENDIAN = {b"\xa1\xb2\xc3\xd4": ">", b"\xd4\xc3\xb2\xa1": "<"}
_LINKTYPE_ETHERNET = 1

# one compact encoder for every corpus record that write_jsonl writes: json.dumps
# with separators builds a new encoder per call
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def check_port(port: int) -> None:
    """Range-check a TCP port. Raises ValueError.

    A bool is refused: written as true or false, neither a corpus line nor a
    model file would read back.
    """
    if isinstance(port, bool) or not 0 <= port <= 65535:
        raise ValueError("port must be within [0, 65535]")


# Every number read from text (a flag, a spec value, a label id) is spelt in
# ASCII: int() and float() also take "1_0", surrounding whitespace and other
# scripts' digits. A negative value, NaN or infinity is read, so that the
# check of the setting it is for names it.

def decimal(text: str) -> int:
    """An integer in ASCII decimal digits, with an optional leading '-'. Raises ValueError."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not ASCII decimal digits: {text!r}")
    return int(text)


def real(text: str) -> float:
    """A float in ASCII, with no '_' and no surrounding whitespace. Raises ValueError."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(text)


def validate_label(label: str) -> None:
    if label == "legit":
        return
    if label.startswith("attack:") and len(label) > len("attack:"):
        return
    raise ValueError(f"label must be 'legit' or 'attack:<id>', got {label!r}")


def attack_instance_of(label: str | None) -> str | None:
    """Attack instance id of a label, or None for legit/unlabeled."""
    if label is None or not label.startswith("attack:"):
        return None
    return label[len("attack:"):]


@dataclass(frozen=True)
class PacketRecord:
    """One captured packet: destination port, raw payload, optional label."""

    id: int
    dst_port: int
    payload: bytes
    label: str | None = None
    ts: int | None = None

    def __post_init__(self):
        check_port(self.dst_port)
        if self.label is not None:
            validate_label(self.label)
        # read_jsonl's rule too: write_jsonl would write a bool or a float that no reader takes
        if self.ts is not None and type(self.ts) is not int:
            raise ValueError("ts must be an integer")

    @property
    def is_attack(self) -> bool:
        # `validate_label` admits only "legit" and "attack:<id>": no slice per record
        return self.label is not None and self.label != "legit"


@dataclass(frozen=True)
class TrafficFilter:
    """Selects the traffic of interest while reading a capture."""

    ports: frozenset[int]
    dst_prefix: ipaddress.IPv4Network | None = None

    def __post_init__(self):
        if not self.ports:
            raise ValueError("filter needs at least one port")
        for port in self.ports:
            check_port(port)

    def matches(self, dst_port: int, dst_addr: bytes) -> bool:
        if dst_port not in self.ports:
            return False
        return self.dst_prefix is None or ipaddress.IPv4Address(dst_addr) in self.dst_prefix


@dataclass
class IngestSummary:
    """Counters filled in while a capture is consumed."""

    frames: int = 0
    truncated: int = 0
    non_ipv4_tcp: int = 0
    filtered_out: int = 0
    yielded: int = 0


class _TruncatedFrame(Exception):
    pass


def _decode_tcp_frame(data: bytes) -> tuple[int, bytes, bytes] | None:
    """Decapsulate Ethernet/IPv4/TCP; (dst_port, dst_addr, payload) or None.

    Returns None for frames of other protocols (non-IPv4 ethertype, non-TCP)
    and for IP fragments. Raises _TruncatedFrame when a header is cut off.
    """
    if len(data) < 14:
        raise _TruncatedFrame
    if data[12:14] != b"\x08\x00":
        return None
    ip = data[14:]
    if len(ip) < 20:
        raise _TruncatedFrame
    if ip[0] >> 4 != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        raise _TruncatedFrame
    if ip[9] != 6:
        return None
    if int.from_bytes(ip[6:8], "big") & 0x3FFF:
        # a fragment (MF set or a nonzero offset) holds part of a segment at most,
        # and as with a snaplen-cut datagram below, a partial payload would skew counts
        return None
    total_len = int.from_bytes(ip[2:4], "big")
    if total_len < ihl + 20:
        raise _TruncatedFrame
    if len(ip) < total_len:
        # snaplen cut the datagram short; a partial payload would skew counts
        raise _TruncatedFrame
    # trailing link-layer padding (minimum frame size) is not payload
    datagram = ip[:total_len]
    tcp = datagram[ihl:]  # at least 20 bytes, by the total length check
    data_off = (tcp[12] >> 4) * 4
    if data_off < 20 or data_off > len(tcp):
        raise _TruncatedFrame
    dst_port = int.from_bytes(tcp[2:4], "big")
    return dst_port, ip[16:20], tcp[data_off:]


def read_pcap(
    path,
    flt: TrafficFilter,
    summary: IngestSummary | None = None,
) -> Iterator[PacketRecord]:
    """Yield one PacketRecord per TCP segment matching the filter.

    Empty TCP payloads are yielded too (length 0); downstream layers decide
    whether such packets are classifiable. Truncated frames are skipped and
    counted in the summary; frames of other protocols are skipped silently.
    """
    if summary is None:
        summary = IngestSummary()
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"cannot open capture {path}: {exc}") from exc
    with f:
        info = os.fstat(f.fileno())
        # a record can hold at most the bytes left in a regular file; a pipe has no known end
        size = info.st_size if stat.S_ISREG(info.st_mode) else math.inf
        header = f.read(24)
        if len(header) < 24:
            raise CorpusError(f"{path}: truncated pcap global header")
        endian = _PCAP_ENDIAN.get(header[:4])
        if endian is None:
            raise CorpusError(f"{path}: unrecognized pcap magic {header[:4].hex()}")
        snaplen, link_type = struct.unpack(endian + "II", header[16:24])
        if link_type != _LINKTYPE_ETHERNET:
            raise CorpusError(f"{path}: unsupported link type {link_type} (Ethernet required)")

        offset = 24  # where the next record starts, counted because a pipe cannot tell()
        next_id = 0
        while True:
            rec_hdr = f.read(16)
            if not rec_hdr:
                break
            if len(rec_hdr) < 16:
                summary.truncated += 1
                break
            ts_sec, ts_usec, incl_len, _ = struct.unpack(endian + "IIII", rec_hdr)
            if incl_len > snaplen:
                # a corrupt length; checked before it sizes a read
                raise CorpusError(
                    f"{path}: record at byte {offset}: captured length {incl_len} "
                    f"exceeds the snapshot length {snaplen}"
                )
            summary.frames += 1
            offset += 16 + incl_len
            if offset > size:
                # checked before the read, which would allocate the whole claimed length
                summary.truncated += 1
                break
            data = f.read(incl_len)
            if len(data) < incl_len:
                summary.truncated += 1
                break
            try:
                decoded = _decode_tcp_frame(data)
            except _TruncatedFrame:
                summary.truncated += 1
                continue
            if decoded is None:
                summary.non_ipv4_tcp += 1
                continue
            dst_port, dst_addr, payload = decoded
            if not flt.matches(dst_port, dst_addr):
                summary.filtered_out += 1
                continue
            summary.yielded += 1
            yield PacketRecord(next_id, dst_port, payload, None, ts_sec * 1_000_000 + ts_usec)
            next_id += 1


def read_jsonl(path) -> Iterator[PacketRecord]:
    """Yield records from a JSONL corpus; any malformed line is fatal.

    A record's id is its 0-based line index; errors name the 1-based line.
    """
    try:
        # invalid bytes decode to lone surrogates, so each is caught on its own line
        f = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise CorpusError(f"cannot open corpus {path}: {exc}") from exc
    with f:
        for rec_id, line in enumerate(f):
            try:
                record = _record_from_line(line, rec_id)
            except ValueError as exc:
                raise CorpusError(f"{path}: line {rec_id + 1}: {exc}") from exc
            yield record


def _record_from_line(line: str, rec_id: int) -> PacketRecord:
    """Parse one JSONL line; a ValueError says what is wrong with it.

    The JSON types are checked here, their values and ts's type by
    PacketRecord.
    """
    line = line.rstrip("\r\n")
    # a lone surrogate is not ASCII, so an ASCII line needs no scan
    if not line.isascii() and _UNDECODABLE_RE.search(line):
        raise ValueError("invalid UTF-8")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer literal of more digits than int() takes
        raise ValueError(f"invalid JSON ({exc})") from exc
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise ValueError("record must be an object")
    port = obj.get("port")
    if not isinstance(port, int) or isinstance(port, bool):
        raise ValueError("missing or invalid 'port'")
    payload_hex = obj.get("payload_hex")
    if not isinstance(payload_hex, str):
        raise ValueError("missing or invalid 'payload_hex'")
    try:
        payload = bytes.fromhex(payload_hex)
    except ValueError:
        payload = None
    # fromhex skips ASCII whitespace, which leaves fewer than two digits per byte
    if payload is None or 2 * len(payload) != len(payload_hex):
        if len(payload_hex) % 2 != 0:
            raise ValueError("odd-length payload_hex")
        raise ValueError("payload_hex is not hexadecimal")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("label must be a string")
    # positional: a keyword call costs more per record
    return PacketRecord(rec_id, port, payload, label, obj.get("ts"))


def write_jsonl(records: Iterable[PacketRecord], path) -> int:
    """Write records to a JSONL corpus file; returns the record count.

    Round-trips with read_jsonl on (port, payload, label): ids are
    reassigned from line numbers on the next read.
    """
    count = 0
    try:
        with open(path, "w", encoding="utf-8") as f:
            for rec in records:
                obj: dict = {"port": rec.dst_port, "payload_hex": rec.payload.hex()}
                if rec.label is not None:
                    obj["label"] = rec.label
                if rec.ts is not None:
                    obj["ts"] = rec.ts
                f.write(COMPACT_JSON.encode(obj) + "\n")
                count += 1
    except OSError as exc:
        raise CorpusError(f"cannot write corpus {path}: {exc}") from exc
    return count

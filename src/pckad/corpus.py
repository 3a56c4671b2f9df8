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
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import CorpusError

# what the surrogateescape error handler makes of bytes that are not UTF-8
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")

_PCAP_ENDIAN = {b"\xa1\xb2\xc3\xd4": ">", b"\xd4\xc3\xb2\xa1": "<"}
# a record header by the capture's endianness: ts_sec, ts_usec, incl_len, orig_len
_RECORD_HEADER = {endian: struct.Struct(endian + "IIII") for endian in _PCAP_ENDIAN.values()}
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


# the most payload one TCP segment in IPv4 carries: a 65,535-byte total length less the
# 20-byte minimum IP and TCP headers. It bounds what any record costs to train or judge
MAX_PAYLOAD = 65_495


def _check_record_values(
    dst_port: int, payload_len: int, label: str | None, ts: int | None
) -> None:
    """The value checks of a record's port, payload length, label and ts. Raises ValueError."""
    check_port(dst_port)
    if payload_len > MAX_PAYLOAD:
        raise ValueError(f"payload longer than {MAX_PAYLOAD} bytes")
    if label is not None:
        validate_label(label)
    # write_jsonl would write a bool or a float that no reader takes
    if ts is not None and type(ts) is not int:
        raise ValueError("ts must be an integer")


@dataclass(frozen=True)
class PacketRecord:
    """One captured packet: destination port, raw payload, optional label.

    The constructor checks every value (`_check_record_values`). The readers
    build their records after their own checks, with `_unchecked_record`,
    which skips `__post_init__`: a capture's port is bound by its 16 bits,
    its payload by the IPv4 total length, and it has no label, and
    `_record_from_line` calls `_check_record_values`.
    """

    id: int
    dst_port: int
    payload: bytes
    label: str | None = None
    ts: int | None = None

    def __post_init__(self):
        _check_record_values(self.dst_port, len(self.payload), self.label, self.ts)

    @property
    def is_attack(self) -> bool:
        # `validate_label` admits only "legit" and "attack:<id>": no slice per record
        return self.label is not None and self.label != "legit"


# bound once: looked up for each field, they would cost about 0.15 us a record
_new = object.__new__
_set = object.__setattr__


def _unchecked_record(rec_id: int, dst_port: int, payload: bytes, label: str | None,
                      ts: int | None) -> PacketRecord:
    """A PacketRecord of values its reader has checked, built without `__post_init__`.

    `read_pcap` needs no check of the payload's length: the IPv4 total length,
    16 bits, leaves at most MAX_PAYLOAD bytes after the IP and TCP headers.

    Each field is set as the frozen dataclass's `__init__` sets it, in field
    order, so records share their instance dicts' keys: updating `__dict__`
    in one step is faster but costs each record about twice the memory.
    """
    record = _new(PacketRecord)
    _set(record, "id", rec_id)
    _set(record, "dst_port", dst_port)
    _set(record, "payload", payload)
    _set(record, "label", label)
    _set(record, "ts", ts)
    return record


@dataclass(frozen=True)
class TrafficFilter:
    """Selects the traffic of interest while reading a capture."""

    ports: frozenset[int]
    dst_prefix: ipaddress.IPv4Network | None = None
    # dst_prefix as 32-bit integers, so that a frame costs one mask and compare
    _netmask: int = field(init=False, repr=False, compare=False, default=0)
    _network: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        if not self.ports:
            raise ValueError("filter needs at least one port")
        for port in self.ports:
            check_port(port)
        if self.dst_prefix is not None:
            object.__setattr__(self, "_netmask", int(self.dst_prefix.netmask))
            object.__setattr__(self, "_network", int(self.dst_prefix.network_address))

    def matches(self, dst_port: int, dst_addr: bytes) -> bool:
        """Whether a segment to dst_port at the 4-byte dst_addr is of interest."""
        if dst_port not in self.ports:
            return False
        if self.dst_prefix is None:
            return True
        return int.from_bytes(dst_addr, "big") & self._netmask == self._network


@dataclass
class IngestSummary:
    """Counters filled in while a capture is consumed."""

    frames: int = 0
    truncated: int = 0
    non_ipv4_tcp: int = 0
    filtered_out: int = 0
    yielded: int = 0


# from the IPv4 header at byte 14: version/IHL, total length, flags/fragment offset,
# protocol and destination address
_IPV4_HEADER = struct.Struct(">BxH2xHxB6x4s")
# from the TCP header: destination port and data offset
_TCP_HEADER = struct.Struct(">2xH8xB")


def _decode_tcp_frame(data: bytes) -> tuple[int, bytes, bytes] | str:
    """Decapsulate Ethernet/IPv4/TCP; (dst_port, dst_addr, payload), or why not.

    A frame with no payload to yield gives the IngestSummary counter that
    counts it: "non_ipv4_tcp" for frames of other protocols (non-IPv4
    ethertype, non-TCP) and for IP fragments, "truncated" when a header is cut off.
    The frame is read in place: each header's fields by one `unpack_from`
    at its offset, and the payload by one slice. 16 bits bound the port, so
    `read_pcap` builds its record without the constructor's re-check.
    """
    if len(data) < 14:
        return "truncated"
    if data[12:14] != b"\x08\x00":
        return "non_ipv4_tcp"
    if len(data) < 34:
        return "truncated"
    version_ihl, total_len, fragment, protocol, dst_addr = _IPV4_HEADER.unpack_from(data, 14)
    if version_ihl >> 4 != 4:
        return "non_ipv4_tcp"
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < 14 + ihl:
        return "truncated"
    if protocol != 6:
        return "non_ipv4_tcp"
    if fragment & 0x3FFF:
        # a fragment (MF set or a nonzero offset) holds part of a segment at most,
        # and as with a snaplen-cut datagram below, a partial payload would skew counts
        return "non_ipv4_tcp"
    if total_len < ihl + 20:
        return "truncated"
    if len(data) < 14 + total_len:
        # snaplen cut the datagram short; a partial payload would skew counts
        return "truncated"
    # the TCP header's 20 bytes lie within the datagram, by the total length check
    dst_port, offset_byte = _TCP_HEADER.unpack_from(data, 14 + ihl)
    data_off = (offset_byte >> 4) * 4
    if data_off < 20 or ihl + data_off > total_len:
        return "truncated"
    # trailing link-layer padding (minimum frame size) is not payload
    return dst_port, dst_addr, data[14 + ihl + data_off:14 + total_len]


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

        record_header = _RECORD_HEADER[endian]
        offset = 24  # where the next record starts, counted because a pipe cannot tell()
        next_id = 0
        while True:
            rec_hdr = f.read(16)
            if not rec_hdr:
                break
            if len(rec_hdr) < 16:
                summary.truncated += 1
                break
            ts_sec, ts_usec, incl_len, _ = record_header.unpack(rec_hdr)
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
            decoded = _decode_tcp_frame(data)
            if isinstance(decoded, str):
                setattr(summary, decoded, getattr(summary, decoded) + 1)
                continue
            dst_port, dst_addr, payload = decoded
            if not flt.matches(dst_port, dst_addr):
                summary.filtered_out += 1
                continue
            summary.yielded += 1
            # 16 bits bound the port, a capture has no label, and ts is an int
            yield _unchecked_record(next_id, dst_port, payload, None, ts_sec * 1_000_000 + ts_usec)
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
    `_check_record_values`, as PacketRecord's constructor checks them, before
    payload_hex is decoded: a payload past MAX_PAYLOAD is never decoded.
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
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("label must be a string")
    ts = obj.get("ts")
    _check_record_values(port, len(payload_hex) // 2, label, ts)
    try:
        payload = bytes.fromhex(payload_hex)
    except ValueError:
        payload = None
    # fromhex skips ASCII whitespace, which leaves fewer than two digits per byte
    if payload is None or 2 * len(payload) != len(payload_hex):
        if len(payload_hex) % 2 != 0:
            raise ValueError("odd-length payload_hex")
        raise ValueError("payload_hex is not hexadecimal")
    return _unchecked_record(rec_id, port, payload, label, ts)


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

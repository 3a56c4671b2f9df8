"""Seeded synthetic corpora and anomaly injection.

Legitimate traffic is drawn from small fixed template/token pools (printable
ASCII only), so a trained model sees every token and byte values >= 0x80 are
guaranteed never-seen. Three injectable anomaly kinds each target one
detection rule:

* unseen    - overwrite a field with a high-byte run (never-seen n-grams)
* freq      - overwrite a field with a repeated in-vocabulary n-gram
              (whole-payload frequency shift)
* location  - swap two equal-length tokens between slots with identical
              surroundings, leaving whole-payload n-gram counts unchanged
              but moving them across a chunk boundary

Swappable tokens come in two pools over disjoint alphabets (a-m vs n-z) so
a swapped token's n-grams land in chunk positions where they never occurred
in training.
"""

from __future__ import annotations

import enum
import itertools
import random
import re
from dataclasses import dataclass

from .chunking import DEFAULT_CHUNKING, ChunkingConfig, count_windows
from .corpus import PacketRecord
from .errors import InjectionError
from .protocols import Protocol, protocol_for_port, request_target_span

# letters a-m only
_TOKENS_AM = (b"camelia", b"defacab", b"glidema", b"heliakm", b"jamdeli", b"kambeli")
# letters n-z only
_TOKENS_NZ = (b"sunspot", b"outpost", b"nonstop", b"support", b"topspun", b"syrupsy")

_FILE_TOKENS = (b"alpha", b"bravo", b"delta", b"gamma", b"omega", b"sigma")
_DIR_TOKENS = (b"pub", b"inbox", b"logs")
_PAGE_TOKENS = (b"index", b"about", b"login", b"stats")
_API_TOKENS = (b"events", b"status", b"orders")

_HTTP_HEADERS = b"Host: files.example.net\r\nUser-Agent: loadgen/2.1\r\n\r\n"

# swappable slot: shared "id"/"42" affixes around a 7-letter token
_SWAP_TOKEN_RE = re.compile(rb"id([a-z]{7})42")


def _http_request(request_line: bytes) -> bytes:
    return request_line + _HTTP_HEADERS


# legit message shapes per protocol, as (weight, build) pairs
_FTP_TEMPLATES = (
    (0.30, lambda r: b"USER id%s42\r\nPASS id%s42\r\n"
     % (r.choice(_TOKENS_AM), r.choice(_TOKENS_NZ))),
    (0.20, lambda r: b"RETR /srv/ftp/%s.dat\r\n" % r.choice(_FILE_TOKENS)),
    (0.15, lambda r: b"STOR /srv/ftp/upload/%s.tmp\r\n" % r.choice(_FILE_TOKENS)),
    (0.10, lambda r: b"CWD /srv/ftp/%s\r\n" % r.choice(_DIR_TOKENS)),
    (0.08, lambda r: b"TYPE I\r\n"),
    (0.07, lambda r: b"PASV\r\n"),
    (0.06, lambda r: b"LIST -la\r\n"),
    (0.04, lambda r: b"QUIT\r\n"),
)

# the two path tokens of the first shape sit fully inside chunks 0 and 1 at
# the default 15-byte chunk length, so swapping them moves every token
# n-gram into a chunk where it was never trained
_HTTP_TEMPLATES = (
    (0.25, lambda r: _http_request(b"GET /id%s42/id%s42 HTTP/1.0\r\n"
                                   % (r.choice(_TOKENS_AM), r.choice(_TOKENS_NZ)))),
    (0.25, lambda r: _http_request(b"GET /%s.html HTTP/1.0\r\n" % r.choice(_PAGE_TOKENS))),
    (0.20, lambda r: _http_request(b"GET /static/css/%s.css HTTP/1.1\r\n"
                                   % r.choice(_PAGE_TOKENS))),
    (0.20, lambda r: _http_request(b"POST /api/v1/%s HTTP/1.1\r\n" % r.choice(_API_TOKENS))),
    (0.10, lambda r: _http_request(b"HEAD /health HTTP/1.0\r\n")),
)

_TEMPLATES = {Protocol.FTP: _FTP_TEMPLATES, Protocol.HTTP: _HTTP_TEMPLATES}


@dataclass(frozen=True)
class GenSpec:
    """Deterministic corpus recipe: same spec and seed, same bytes."""

    protocol: Protocol
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
        # random.Random seeds with abs(seed): -3 would repeat seed 3's corpus
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def gen_legit(spec: GenSpec) -> list[PacketRecord]:
    """Generate legit-labeled packets from the protocol's template pool."""
    weights, builds = zip(*_TEMPLATES[spec.protocol])
    rng = random.Random(spec.seed)
    port = spec.protocol.default_port
    records = []
    for i in range(spec.count):
        build = rng.choices(builds, weights=weights)[0]
        records.append(PacketRecord(id=i, dst_port=port, payload=build(rng), label="legit"))
    return records


class AnomalyKind(enum.Enum):
    UNSEEN_GRAM = "unseen"
    FREQ_SHIFT = "freq"
    LOCATION_SHIFT = "location"


def _editable_span(protocol: Protocol, payload: bytes) -> tuple[int, int]:
    """Byte range that can be rewritten without breaking the protocol grammar."""
    if protocol is Protocol.FTP:
        end = len(payload) - 2 if payload.endswith(b"\r\n") else len(payload)
        return 0, end
    span = request_target_span(payload)
    if span is None:
        raise InjectionError("payload has no valid request line to edit")
    return span


def _inject_unseen(payload: bytes, span: tuple[int, int], n: int, rng: random.Random) -> bytes:
    start, end = span
    if end - start < n:
        raise InjectionError(f"payload too short for an n={n} high-byte run")
    run = bytes(rng.randrange(0x80, 0x100) for _ in range(end - start))
    return payload[:start] + run + payload[end:]


def _inject_freq(payload: bytes, span: tuple[int, int], n: int) -> bytes:
    start, end = span
    length = end - start
    # at least five repetitions so the count visibly outruns the trained mean
    want = max(5 * n, round(0.7 * length))
    if want > length:
        raise InjectionError("payload too short for a frequency shift")
    gram = payload[start:start + n]
    fill = (gram * (want // n + 1))[:want]
    s0 = start + (length - want) // 2
    return payload[:s0] + fill + payload[s0 + want:]


def _inject_location(payload: bytes, cfg: ChunkingConfig) -> bytes:
    pair = next(((a, b) for a, b in itertools.combinations(_SWAP_TOKEN_RE.finditer(payload), 2)
                 if a.group(1) != b.group(1)
                 and a.start(1) // cfg.chunk_len != b.start(1) // cfg.chunk_len), None)
    if pair is None:
        raise InjectionError("no pair of distinct swappable tokens in different chunks")
    a, b = pair
    swapped = (
        payload[:a.start(1)] + payload[b.start(1):b.end(1)]
        + payload[a.end(1):b.start(1)] + payload[a.start(1):a.end(1)]
        + payload[b.end(1):]
    )
    if count_windows(swapped, cfg).totals != count_windows(payload, cfg).totals:
        raise InjectionError(
            f"token swap would change the n={cfg.n} occurrence multiset; "
            "shared affixes are too short for this n"
        )
    return swapped


def inject(
    record: PacketRecord,
    kind: AnomalyKind,
    rng: random.Random,
    cfg: ChunkingConfig = DEFAULT_CHUNKING,
) -> PacketRecord:
    """Turn one legit record into an attack of the given kind, drawing bytes from rng."""
    if record.is_attack:
        raise InjectionError(f"record {record.id} is already an attack")
    if not record.payload:
        raise InjectionError(f"record {record.id} has an empty payload")
    protocol = protocol_for_port(record.dst_port)
    if protocol is None:
        raise InjectionError(f"record {record.id}: port {record.dst_port} has no protocol")
    if kind is AnomalyKind.LOCATION_SHIFT:
        payload = _inject_location(record.payload, cfg)
    else:
        span = _editable_span(protocol, record.payload)
        if kind is AnomalyKind.UNSEEN_GRAM:
            payload = _inject_unseen(record.payload, span, cfg.n, rng)
        else:
            payload = _inject_freq(record.payload, span, cfg.n)
    return PacketRecord(
        id=record.id,
        dst_port=record.dst_port,
        payload=payload,
        label=f"attack:{kind.value}-{record.id}",
        ts=record.ts,
    )


def inject_corpus(
    records: list[PacketRecord],
    kind: AnomalyKind,
    count: int,
    seed: int,
    cfg: ChunkingConfig = DEFAULT_CHUNKING,
) -> list[PacketRecord]:
    """Replace `count` eligible legit records with injected attacks.

    Selection order is seed-shuffled; records raising InjectionError are
    passed over. Too few eligible records is an error.
    """
    rng = random.Random(seed)
    out = list(records)
    order = rng.sample(range(len(out)), len(out))
    injected = 0
    for idx in order:
        if injected == count:
            break
        rec = out[idx]
        if rec.label != "legit":
            continue
        try:
            out[idx] = inject(rec, kind, rng, cfg)
        except InjectionError:
            continue
        injected += 1
    if injected < count:
        raise InjectionError(
            f"only {injected} of the requested {count} records were eligible for {kind.value}"
        )
    return out

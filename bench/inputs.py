"""Seeded benchmark inputs: FTP and wide-vocabulary HTTP corpora.

Everything here is derived from the run's seed and is never timed.
The program under test only ever sees the files written here.
"""

from __future__ import annotations

import random
import string
import struct
from dataclasses import dataclass

from pckad import (
    AnomalyKind,
    GenSpec,
    PacketRecord,
    Protocol,
    gen_legit,
    inject_corpus,
)

# HTTP vocabulary: a Zipf-weighted pool of path tokens. The sizes are fixed
# up front and not tuned against the detector.
HTTP_POOL_SIZE = 3000
HTTP_ZIPF_EXPONENT = 1.0
HTTP_OTHER_PORT = 443  # TCP frames the default ingest filter drops
HTTP_OTHER_SHARE = 0.1

# Injected anomalies, as a share of the test corpus per kind.
INJECT_SHARE = 0.02

_TOKEN_ALPHABET = string.ascii_lowercase + string.digits + "-_"
_EXTENSIONS = ("", "", ".html", ".php", ".css", ".js", ".png", ".json")
_HOSTS = ("www.example.org", "static.example.org", "api.example.org", "intranet.example.net")
_AGENTS = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:115.0) Gecko/20100101 Firefox/115.0",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/118.0",
    "curl/8.4.0",
    "python-requests/2.31.0",
)


def sub_seed(*parts) -> int:
    """Stable 64-bit seed from any parts (string seeding is not hash-randomized)."""
    return random.Random(":".join(str(p) for p in parts)).getrandbits(64)


@dataclass
class Corpus:
    """One generated train/test pair. Test record i has ingest id i."""

    train: list[PacketRecord]
    test: list[PacketRecord]


def ftp_corpus(seed: int, train_count: int, test_count: int) -> Corpus:
    train = gen_legit(GenSpec(Protocol.FTP, train_count, sub_seed("ftp-train", seed)))
    test = gen_legit(GenSpec(Protocol.FTP, test_count, sub_seed("ftp-test", seed)))
    kinds = (AnomalyKind.UNSEEN_GRAM, AnomalyKind.FREQ_SHIFT, AnomalyKind.LOCATION_SHIFT)
    return Corpus(train, _inject(test, kinds, seed))


def _inject(test: list[PacketRecord], kinds, seed: int) -> list[PacketRecord]:
    count = max(1, round(INJECT_SHARE * len(test)))
    for kind in kinds:
        test = inject_corpus(test, kind, count, seed=sub_seed("inject", kind.value, seed))
    return test


class HttpVocabulary:
    """Request generator over a seeded, Zipf-weighted pool of path tokens."""

    def __init__(self, seed: int):
        rng = random.Random(sub_seed("http-pool", seed))
        tokens: dict[str, None] = {}
        while len(tokens) < HTTP_POOL_SIZE:
            length = rng.randint(3, 10)
            tokens["".join(rng.choice(_TOKEN_ALPHABET) for _ in range(length))] = None
        self.tokens = list(tokens)
        weights = [1.0 / (rank + 1) ** HTTP_ZIPF_EXPONENT for rank in range(len(self.tokens))]
        self.cum_weights = []
        total = 0.0
        for w in weights:
            total += w
            self.cum_weights.append(total)

    def request(self, rng: random.Random) -> bytes:
        depth = rng.choices((1, 2, 3), weights=(0.3, 0.45, 0.25))[0]
        path = "/".join(rng.choices(self.tokens, cum_weights=self.cum_weights, k=depth))
        target = "/" + path + rng.choice(_EXTENSIONS)
        if rng.random() < 0.2:
            target += "?id=%d" % rng.randrange(100000)
        method = rng.choices(("GET", "POST", "HEAD"), weights=(0.8, 0.15, 0.05))[0]
        version = "HTTP/1.1" if rng.random() < 0.85 else "HTTP/1.0"
        head = (
            f"{method} {target} {version}\r\n"
            f"Host: {rng.choice(_HOSTS)}\r\n"
            f"User-Agent: {rng.choice(_AGENTS)}\r\n"
            "Accept: */*\r\n\r\n"
        )
        return head.encode("ascii")

    def records(self, count: int, seed: int) -> list[PacketRecord]:
        rng = random.Random(seed)
        return [
            PacketRecord(id=i, dst_port=80, payload=self.request(rng), label="legit")
            for i in range(count)
        ]


def http_corpus(seed: int, train_count: int, test_count: int) -> Corpus:
    vocab = HttpVocabulary(seed)
    train = vocab.records(train_count, sub_seed("http-train", seed))
    test = vocab.records(test_count, sub_seed("http-test", seed))
    # location swaps need the synth "id...42" slots, which these targets lack
    kinds = (AnomalyKind.UNSEEN_GRAM, AnomalyKind.FREQ_SHIFT)
    return Corpus(train, _inject(test, kinds, seed))


# --- classic pcap -------------------------------------------------------------

_ETH = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x00"
_SRC_IP = bytes((10, 0, 0, 9))
_DST_IP = bytes((172, 16, 0, 5))


def _tcp_frame(payload: bytes, dst_port: int, src_port: int) -> bytes:
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, 40 + len(payload), 0, 0, 64, 6, 0, _SRC_IP, _DST_IP,
    )
    tcp = struct.pack(">HHIIBBHHH", src_port, dst_port, 1, 1, 5 << 4, 0x18, 65535, 0, 0)
    return _ETH + ip + tcp + payload


def write_pcap(records: list[PacketRecord], path, seed: int) -> int:
    """Write records as a little-endian classic pcap, linear in the output size.

    Between the records, a seeded share of TCP frames to another port is
    interleaved; the default ingest filter drops them, so ingest ids still
    equal the record positions. Returns the number of frames written.
    """
    rng = random.Random(seed)
    frames = 0
    with open(path, "wb") as f:
        f.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for rec in records:
            if rng.random() < HTTP_OTHER_SHARE:
                noise = rng.randbytes(rng.randint(20, 200))
                _write_frame(f, _tcp_frame(noise, HTTP_OTHER_PORT, 40000), frames)
                frames += 1
            _write_frame(f, _tcp_frame(rec.payload, rec.dst_port, 40000 + rec.id % 20000), frames)
            frames += 1
    return frames


def _write_frame(f, frame: bytes, ordinal: int) -> None:
    f.write(struct.pack("<IIII", 1_000_000_000 + ordinal // 1000, ordinal % 1000 * 1000,
                        len(frame), len(frame)))
    f.write(frame)


def write_labels_csv(records: list[PacketRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("id,label\n")
        for i, rec in enumerate(records):
            f.write(f"{i},{rec.label}\n")


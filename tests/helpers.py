"""Synthetic pcap fixtures and a reference frame decoder, small FTP models, a call spy and plain
reference counters."""

import struct


def ipv4(addr: str) -> bytes:
    return bytes(int(part) for part in addr.split("."))


def tcp_frame(
    payload: bytes,
    dst_port: int,
    src_port: int = 40000,
    dst_ip: str = "172.16.0.5",
    src_ip: str = "10.0.0.9",
    pad_to: int | None = None,
    ip_options: bytes = b"",
    tcp_options: bytes = b"",
) -> bytes:
    """An Ethernet/IPv4/TCP frame; each header's options are 32-bit words, 40 bytes at most."""
    assert len(ip_options) % 4 == 0 and len(ip_options) <= 40
    assert len(tcp_options) % 4 == 0 and len(tcp_options) <= 40
    eth = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x40 | (5 + len(ip_options) // 4), 0,
        20 + len(ip_options) + 20 + len(tcp_options) + len(payload), 0x1234, 0, 64, 6, 0,
        ipv4(src_ip), ipv4(dst_ip),
    ) + ip_options
    tcp = struct.pack(">HHIIBBHHH", src_port, dst_port, 1, 1, (5 + len(tcp_options) // 4) << 4,
                      0x18, 65535, 0, 0) + tcp_options
    frame = eth + ip + tcp + payload
    if pad_to is not None and len(frame) < pad_to:
        frame += b"\x00" * (pad_to - len(frame))
    return frame


def udp_frame(payload: bytes, dst_port: int, dst_ip: str = "172.16.0.5") -> bytes:
    eth = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, 20 + 8 + len(payload), 0x1234, 0, 64, 17, 0,
        ipv4("10.0.0.9"), ipv4(dst_ip),
    )
    udp = struct.pack(">HHHH", 40000, dst_port, 8 + len(payload), 0)
    return eth + ip + udp + payload


def reference_decode(frame: bytes):
    """What ingest makes of one frame: (dst_port, dst_addr, payload), "truncated" or "non_ipv4_tcp".

    A plain restatement by slices: each header is cut out of the frame and
    read field by field.
    """
    if len(frame) < 14:
        return "truncated"
    if frame[12:14] != b"\x08\x00":
        return "non_ipv4_tcp"
    ip = frame[14:]
    if len(ip) < 20:
        return "truncated"
    if ip[0] >> 4 != 4:
        return "non_ipv4_tcp"
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        return "truncated"
    if ip[9] != 6:
        return "non_ipv4_tcp"
    more_fragments = ip[6] & 0x20
    fragment_offset = int.from_bytes(ip[6:8], "big") & 0x1FFF
    if more_fragments or fragment_offset:
        return "non_ipv4_tcp"
    total_len = int.from_bytes(ip[2:4], "big")
    if total_len < ihl + 20 or len(ip) < total_len:
        return "truncated"
    datagram = ip[:total_len]  # what follows is link-layer padding
    tcp = datagram[ihl:]
    data_off = (tcp[12] >> 4) * 4
    if data_off < 20 or data_off > len(tcp):
        return "truncated"
    return int.from_bytes(tcp[2:4], "big"), ip[16:20], tcp[data_off:]


def pcap_bytes(
    frames: list[bytes],
    big_endian: bool = False,
    link_type: int = 1,
    ts: tuple[int, int] = (0, 0),
) -> bytes:
    endian = ">" if big_endian else "<"
    out = struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, link_type)
    for i, frame in enumerate(frames):
        out += struct.pack(endian + "IIII", ts[0] + i, ts[1], len(frame), len(frame))
        out += frame
    return out


def ftp_records(payloads, label="legit"):
    """One port-21 record per payload, with ids from 0."""
    from pckad import PacketRecord

    return [PacketRecord(id=i, dst_port=21, payload=p, label=label)
            for i, p in enumerate(payloads)]


def ftp_model(payloads, n=2, **settings):
    """An FTP model of ftp_records(payloads) at chunk_len 15; settings go to `train`."""
    from pckad import ChunkingConfig, Protocol, train

    return train(iter(ftp_records(payloads)), protocol=Protocol.FTP,
                 chunking=ChunkingConfig(n, 15), **settings)


def counting(monkeypatch, module, name):
    """Wrap module.name so that each call is counted: the list of each call's arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def chunk_pairs(payload, cfg):
    """A Counter of (n-gram, chunk index) over the windows that training and judge cut.

    The windows come from `slice_windows`, and `chunk_windows` gives each its chunk.
    """
    from collections import Counter

    from pckad.chunking import chunk_windows, slice_windows

    return Counter((gram, j)
                   for j, chunk in enumerate(chunk_windows(slice_windows(payload, cfg), cfg.chunk_len))
                   for gram in chunk)


def reference_counts(payload, cfg):
    """(totals, per_chunk, nck) of one payload, counted with sliding_window_oracle alone.

    totals maps n-gram -> occurrences; per_chunk maps n-gram -> {chunk index
    -> occurrences}. Both keep first-occurrence order. The payload holds
    ceil(len / chunk_len) chunks, and each window belongs to the chunk of its
    first byte.
    """
    from collections import Counter

    from pckad import sliding_window_oracle

    n, chunk_len = cfg.n, cfg.chunk_len
    per_chunk = {}
    for k, start in enumerate(range(0, len(payload), chunk_len)):
        # the windows starting in chunk k may run n - 1 bytes past its end
        for gram, x in sliding_window_oracle(payload[start:start + chunk_len + n - 1], n).items():
            per_chunk.setdefault(gram, Counter())[k] += x
    return sliding_window_oracle(payload, n), per_chunk, -(-len(payload) // chunk_len)


def reference_verdict(model, payload, cfg, th_s=None):
    """(kind, score, a_seqs, tot_seqs) of one on-port packet, from first principles.

    Judged at th_s, by default the model's own. Built from reference_counts
    and mahalanobis_term alone: no chunk layout, no extract_ngrams, no
    anomalous_occurrences.
    """
    from pckad import Malformed, extract_relevant, mahalanobis_term

    if not payload:
        return ("unclassifiable", None, None, None)
    relevant = extract_relevant(model.protocol, payload)
    if isinstance(relevant, Malformed):
        return ("malformed", None, None, None)
    (part,) = relevant.components
    totals, per_chunk, nck = reference_counts(part, model.chunking)
    tot = sum(totals.values())
    if tot == 0:
        return ("unclassifiable", None, None, None)
    cls = model.classes.get((model.port, nck))
    if cls is None:
        return ("no_model", None, None, None)
    if th_s is None:
        th_s = model.th_s
    a_seqs = 0
    for gram, x in totals.items():
        st = cls.stats.get(gram)
        if st is None or mahalanobis_term(st.mean, st.std, x, model.alpha) > th_s:
            a_seqs += x
        elif cfg.chunks_enabled:
            for j, xj in per_chunk[gram].items():
                mean, std = st.chunks.get(j, (0.0, 0.0))
                if mahalanobis_term(mean, std, xj, model.alpha) > th_s:
                    a_seqs += xj
    score = a_seqs / tot * 100.0
    return ("anomalous" if score > cfg.score_threshold else "legit", score, a_seqs, tot)


def unpruned_model(records, protocol, chunking):
    """The model `train` builds at its defaults, with every observed n-gram kept.

    Built from reference_counts and `statistics` alone. Records on another
    port, empty, malformed or with no n-gram are left out, as in training.
    Every mean and variance is the exact rational rounded once to a float,
    and each std is the square root of that float, so each value equals
    train's bit for bit.
    """
    import math
    from statistics import mean, pvariance

    from pckad import ClassKey, ClassModel, Malformed, NGramStats, TrafficModel, extract_relevant
    from pckad.model import DEFAULT_ALPHA, DEFAULT_TH_S

    port = protocol.default_port
    per_class = {}
    for rec in records:
        if rec.dst_port != port or not rec.payload:
            continue
        relevant = extract_relevant(protocol, rec.payload)
        if isinstance(relevant, Malformed):
            continue
        (part,) = relevant.components
        totals, per_chunk, nck = reference_counts(part, chunking)
        if totals:
            per_class.setdefault(nck, []).append((totals, per_chunk))

    def mean_std(xs):
        return float(mean(xs)), math.sqrt(pvariance(xs))

    classes = {}
    for nck, samples in per_class.items():
        stats = {}
        for gram in set().union(*(totals for totals, _ in samples)):
            chunk_counts = [per_chunk.get(gram, {}) for _, per_chunk in samples]
            chunks = {
                j: mean_std([counts.get(j, 0) for counts in chunk_counts])
                for j in sorted(set().union(*chunk_counts))
            }
            stats[gram] = NGramStats(
                *mean_std([totals.get(gram, 0) for totals, _ in samples]), chunks
            )
        classes[ClassKey(port, nck)] = ClassModel(len(samples), stats)
    return TrafficModel(protocol, port, chunking, DEFAULT_ALPHA, DEFAULT_TH_S, classes)

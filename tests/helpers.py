"""Synthetic pcap fixtures and plain reference counters used across the test suite."""

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
) -> bytes:
    eth = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00"
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, 20 + 20 + len(payload), 0x1234, 0, 64, 6, 0,
        ipv4(src_ip), ipv4(dst_ip),
    )
    tcp = struct.pack(">HHIIBBHHH", src_port, dst_port, 1, 1, 5 << 4, 0x18, 65535, 0, 0)
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


def window_loop_ngrams(relevant, layout, cfg):
    """Reference extract_ngrams: one window at a time, each into its first byte's chunk.

    The plain loop that extract_ngrams replaced; the differential test
    checks the fast path against it, key order included.
    """
    from collections import Counter

    from pckad.chunking import NGramCounts

    payload_counts = Counter()
    chunk_counts = {}
    tot = 0
    n = cfg.n
    for comp, base in zip(relevant.components, layout.component_base):
        windows = len(comp) - n + 1
        if windows <= 0:
            continue
        tot += windows
        for start in range(windows):
            gram = comp[start:start + n]
            payload_counts[gram] += 1
            j = base + start // cfg.chunk_len
            per_chunk = chunk_counts.get(gram)
            if per_chunk is None:
                per_chunk = chunk_counts[gram] = Counter()
            per_chunk[j] += 1
    return NGramCounts(
        payload_counts=dict(payload_counts),
        chunk_counts={g: dict(c) for g, c in chunk_counts.items()},
        tot_seqs=tot,
    )


def reference_counts(components, cfg):
    """(totals, per_chunk, nck) of the components, counted with sliding_window_oracle alone.

    totals maps n-gram -> occurrences over all components; per_chunk maps
    n-gram -> {global chunk index -> occurrences}. Chunk counts are
    ceil(len / chunk_len) per component, and each window belongs to the chunk
    of its first byte.
    """
    from collections import Counter

    from pckad import sliding_window_oracle

    n, chunk_len = cfg.n, cfg.chunk_len
    totals = Counter()
    per_chunk = {}
    nck = 0
    for comp in components:
        totals += sliding_window_oracle(comp, n)
        for k, start in enumerate(range(0, len(comp), chunk_len)):
            # the windows starting in chunk k may run n - 1 bytes past its end
            for gram, x in sliding_window_oracle(comp[start:start + chunk_len + n - 1], n).items():
                per_chunk.setdefault(gram, Counter())[nck + k] += x
        nck += -(-len(comp) // chunk_len)
    return totals, per_chunk, nck


def reference_verdict(model, payload, cfg):
    """(kind, score, a_seqs, tot_seqs) of one on-port packet, from first principles.

    Built from reference_counts and mahalanobis_term alone: no chunk layout,
    no extract_ngrams, no anomalous_occurrences.
    """
    from pckad import Malformed, extract_relevant, mahalanobis_term

    if not payload:
        return ("unclassifiable", None, None, None)
    relevant = extract_relevant(model.protocol, payload)
    if isinstance(relevant, Malformed):
        return ("malformed", None, None, None)
    totals, per_chunk, nck = reference_counts(relevant.components, model.chunking)
    tot = sum(totals.values())
    if tot == 0:
        return ("unclassifiable", None, None, None)
    cls = model.classes.get((model.port, nck))
    if cls is None:
        return ("no_model", None, None, None)
    a_seqs = 0
    for gram, x in totals.items():
        st = cls.stats.get(gram)
        if st is None or mahalanobis_term(st.mean, st.std, x, model.alpha) > model.th_s:
            a_seqs += x
        elif cfg.chunks_enabled:
            for j, xj in per_chunk[gram].items():
                mean, std = st.chunks.get(j, (0.0, 0.0))
                if mahalanobis_term(mean, std, xj, model.alpha) > model.th_s:
                    a_seqs += xj
    score = a_seqs / tot * 100.0
    return ("anomalous" if score > cfg.score_threshold else "legit", score, a_seqs, tot)

"""Chunk splitting and n-gram occurrence counting.

Each relevant component is cut into consecutive non-overlapping chunks of a
fixed byte length (the last chunk of a component may be shorter). N-grams
are every length-n window sliding by one byte within a component; windows
never span component boundaries. A window that straddles the border between
two consecutive chunks counts toward the chunk holding its first byte, so
every occurrence lands in exactly one chunk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class ChunkingConfig:
    n: int
    chunk_len: int
    chunks_enabled: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.chunk_len < 1:
            raise ValueError("chunk_len must be >= 1")
        if self.n > self.chunk_len:
            # keeps any window inside at most two consecutive chunks
            raise ValueError(f"n must be <= chunk_len (got n={self.n}, chunk_len={self.chunk_len})")


@dataclass(frozen=True)
class ChunkLayout:
    """Chunk byte-ranges per component plus global chunk numbering."""

    component_chunks: tuple[tuple[tuple[int, int], ...], ...]
    component_base: tuple[int, ...]  # global index of each component's first chunk
    nck_per_component: tuple[int, ...]
    nck_total: int


def split_chunks(relevant, cfg: ChunkingConfig) -> ChunkLayout:
    """Cut every component into ceil(len/chunk_len) chunks.

    Global chunk indices run in component order, then chunk order.
    """
    spans_per_component = []
    bases = []
    total = 0
    for comp in relevant.components:
        bases.append(total)
        spans = tuple(
            (start, min(start + cfg.chunk_len, len(comp)))
            for start in range(0, len(comp), cfg.chunk_len)
        )
        spans_per_component.append(spans)
        total += len(spans)
    return ChunkLayout(
        component_chunks=tuple(spans_per_component),
        component_base=tuple(bases),
        nck_per_component=tuple(len(s) for s in spans_per_component),
        nck_total=total,
    )


@dataclass(frozen=True)
class NGramCounts:
    """Occurrence counts for one payload.

    payload_counts maps n-gram -> occurrences over the whole relevant
    payload; chunk_counts maps n-gram -> {global chunk index -> occurrences}
    and is empty when chunking is disabled. Absent keys mean zero.
    """

    payload_counts: dict[bytes, int]
    chunk_counts: dict[bytes, dict[int, int]]
    tot_seqs: int


def extract_ngrams(relevant, layout: ChunkLayout, cfg: ChunkingConfig) -> NGramCounts:
    """Count every sliding-window occurrence, attributed to one chunk each.

    The windows starting inside one chunk are counted together by a single
    Counter over C-level slices; n-grams keep their first-occurrence order.
    """
    n, chunk_len = cfg.n, cfg.chunk_len
    payload_counts: dict[bytes, int] = {}
    chunk_counts: dict[bytes, dict[int, int]] = {}
    tot = 0
    for comp, base in zip(relevant.components, layout.component_base):
        windows = len(comp) - n + 1
        if windows <= 0:
            continue
        tot += windows
        # without chunks, the whole component is one span of window starts
        step = chunk_len if cfg.chunks_enabled else windows
        for j, start in enumerate(range(0, windows, step), base):
            stop = min(start + step, windows)
            slices = map(slice, range(start, stop), range(start + n, stop + n))
            grams = Counter(map(comp.__getitem__, slices))
            for gram, x in grams.items():
                payload_counts[gram] = payload_counts.get(gram, 0) + x
                if cfg.chunks_enabled:
                    per_chunk = chunk_counts.get(gram)
                    if per_chunk is None:
                        chunk_counts[gram] = {j: x}
                    else:
                        per_chunk[j] = x
    return NGramCounts(payload_counts=payload_counts, chunk_counts=chunk_counts, tot_seqs=tot)


def sliding_window_oracle(component: bytes, n: int) -> Counter:
    """Brute-force multiset of all length-n windows of one component.

    Independent reference for property tests; deliberately knows nothing
    about chunks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(component[i:i + n] for i in range(len(component) - n + 1))

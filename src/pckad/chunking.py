"""Chunk splitting and n-gram occurrence counting.

Each relevant component is cut into consecutive non-overlapping chunks of a
fixed byte length (the last chunk of a component may be shorter). N-grams
are every length-n window sliding by one byte within a component; windows
never span component boundaries. A window that straddles the border between
two consecutive chunks counts toward the chunk holding its first byte, so
every occurrence lands in exactly one chunk.

`count_windows` is the one counting pass, shared by training, scoring and
the sweep. `split_chunks` (chunk spans) and `extract_ngrams` (the same counts
grouped per n-gram) restate its result for the tests and the benchmark.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple


@dataclass(frozen=True)
class ChunkingConfig:
    n: int
    chunk_len: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.chunk_len < 1:
            raise ValueError("chunk_len must be >= 1")
        if self.n > self.chunk_len:
            # keeps any window inside at most two consecutive chunks
            raise ValueError(f"n must be <= chunk_len (got n={self.n}, chunk_len={self.chunk_len})")


DEFAULT_CHUNKING = ChunkingConfig(3, 15)


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
    payload; chunk_counts maps n-gram -> {global chunk index -> occurrences}.
    Absent keys mean zero.
    """

    payload_counts: dict[bytes, int]
    chunk_counts: dict[bytes, dict[int, int]]
    tot_seqs: int


class WindowCounts(NamedTuple):
    """Occurrence counts for one payload, as `count_windows` returns them.

    totals maps n-gram -> occurrences over the whole relevant payload; pairs
    maps (n-gram, global chunk index) -> occurrences in that chunk. Both keep
    first-occurrence order. nck_total is the class's chunk count.
    """

    totals: Counter
    pairs: Counter
    tot_seqs: int
    nck_total: int


def count_windows(relevant, cfg: ChunkingConfig) -> WindowCounts:
    """Count every sliding-window occurrence, attributed to one chunk each.

    Each component's windows are sliced once and counted by two C-level
    Counters; each window's chunk index comes from a stream that repeats
    every chunk index chunk_len times. Chunk indices run in component order,
    then chunk order, and each component holds ceil(len / chunk_len) chunks.
    """
    n, chunk_len = cfg.n, cfg.chunk_len
    totals: Counter = Counter()
    pairs: Counter = Counter()
    tot = 0
    base = 0
    for comp in relevant.components:
        size = len(comp)
        nck = -(-size // chunk_len)
        windows = size - n + 1
        if windows > 0:
            tot += windows
            grams = list(map(comp.__getitem__, map(slice, range(windows), range(n, windows + n))))
            totals.update(grams)
            chunk_ids = chain.from_iterable(map(repeat, range(base, base + nck), repeat(chunk_len)))
            pairs.update(zip(grams, chunk_ids))
        base += nck
    return WindowCounts(totals, pairs, tot, base)


def extract_ngrams(relevant, layout: ChunkLayout, cfg: ChunkingConfig) -> NGramCounts:
    """`count_windows`'s counts grouped per n-gram, for the tests and the benchmark.

    layout is not read: `count_windows` numbers the chunks as `split_chunks`
    does. n-grams and each n-gram's chunk indices keep first-occurrence order.
    """
    counts = count_windows(relevant, cfg)
    chunk_counts: dict[bytes, dict[int, int]] = {}
    for (gram, j), x in counts.pairs.items():
        per_chunk = chunk_counts.get(gram)
        if per_chunk is None:
            chunk_counts[gram] = {j: x}
        else:
            per_chunk[j] = x
    return NGramCounts(
        payload_counts=dict(counts.totals), chunk_counts=chunk_counts, tot_seqs=counts.tot_seqs
    )


def sliding_window_oracle(component: bytes, n: int) -> Counter:
    """Brute-force multiset of all length-n windows of one component.

    Independent reference for property tests; deliberately knows nothing
    about chunks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(component[i:i + n] for i in range(len(component) - n + 1))

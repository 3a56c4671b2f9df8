"""Chunk splitting and n-gram occurrence counting.

The relevant payload is cut into consecutive non-overlapping chunks of a
fixed byte length (the last chunk may be shorter). N-grams are every
length-n window sliding by one byte. A window that straddles the border
between two consecutive chunks counts toward the chunk holding its first
byte, so every occurrence lands in exactly one chunk.

`slice_windows` cuts a payload into its windows once, and `chunk_windows`
hands each chunk its windows. It is the one place that assigns a window to
a chunk: training and the detector both take each chunk's windows from it.
`count_windows` slices and counts the windows, over the payload and per
chunk. Training, scoring and the sweep all slice through `slice_windows`
(in `model.featurize`). Training counts every payload's window lists
itself (`model._ClassAccumulator.add`). The detector counts a payload only
when it repeats a window, and judges only the repeated n-grams at their
counts (see `detector.judge`). `split_chunks` (chunk spans) and
`extract_ngrams` (`count_windows`' counts grouped per n-gram) restate that
result, and nothing in the package calls them. They stay because the
benchmark's tracer (`bench/tracing.py`, `TRACED`) binds both by name,
though it never calls them: without either one, the first traced round of
`bench/run.py --trace 1` raises AttributeError, and the run exits 1 with no
result (`bench: no complete round`). The tests run such a round
(`bench/test_smoke.py`), and so does CI's full-scale benchmark step. They
can go once the tracer binds the stages that run instead (see ROADMAP.md).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
    """Byte range of each chunk of a payload; chunk j is chunks[j]."""

    chunks: tuple[tuple[int, int], ...]


def split_chunks(payload: bytes, cfg: ChunkingConfig) -> ChunkLayout:
    """Cut the payload into ceil(len/chunk_len) chunks."""
    size, chunk_len = len(payload), cfg.chunk_len
    return ChunkLayout(
        tuple((start, min(start + chunk_len, size)) for start in range(0, size, chunk_len))
    )


@dataclass(frozen=True)
class NGramCounts:
    """Occurrence counts for one payload.

    payload_counts maps n-gram -> occurrences over the whole relevant
    payload; chunk_counts maps n-gram -> {chunk index -> occurrences}.
    Absent keys mean zero.
    """

    payload_counts: dict[bytes, int]
    chunk_counts: dict[bytes, dict[int, int]]
    tot_seqs: int


class WindowCounts(NamedTuple):
    """Occurrence counts for one payload, as `count_windows` returns them.

    totals maps n-gram -> occurrences over the whole relevant payload;
    chunks[j] maps n-gram -> occurrences in chunk j. Each keeps
    first-occurrence order. A trailing chunk that no window starts in has
    no entry.
    """

    totals: Counter
    chunks: list[Counter]


def slice_windows(payload: bytes, cfg: ChunkingConfig) -> tuple[list[bytes], int]:
    """Every length-n window of the payload in order, and its chunk count.

    Window i starts at byte i. The payload holds ceil(len / chunk_len) chunks.
    """
    n = cfg.n
    nck = -(-len(payload) // cfg.chunk_len)
    return [payload[i:i + n] for i in range(len(payload) - n + 1)], nck


def chunk_windows(grams: list[bytes], chunk_len: int) -> list[list[bytes]]:
    """Each chunk's windows, in order: chunk j's are grams[j * chunk_len:(j + 1) * chunk_len].

    Window i starts at byte i, so it lands in the chunk of its first byte.
    """
    return [grams[start:start + chunk_len] for start in range(0, len(grams), chunk_len)]


def count_windows(payload: bytes, cfg: ChunkingConfig) -> WindowCounts:
    """Count every window, whole-payload and in the `chunk_windows` chunk of its first byte."""
    grams = slice_windows(payload, cfg)[0]
    return WindowCounts(Counter(grams), list(map(Counter, chunk_windows(grams, cfg.chunk_len))))


def extract_ngrams(payload: bytes, layout: ChunkLayout, cfg: ChunkingConfig) -> NGramCounts:
    """`count_windows`'s counts grouped per n-gram, for the tests and the benchmark.

    layout is not read: `count_windows` numbers the chunks as `split_chunks`
    does. n-grams and each n-gram's chunk indices keep first-occurrence order.
    """
    counts = count_windows(payload, cfg)
    chunk_counts: dict[bytes, dict[int, int]] = {}
    for j, chunk in enumerate(counts.chunks):
        for gram, x in chunk.items():
            chunk_counts.setdefault(gram, {})[j] = x
    return NGramCounts(dict(counts.totals), chunk_counts, counts.totals.total())


def sliding_window_oracle(payload: bytes, n: int) -> Counter:
    """Brute-force multiset of all length-n windows of one payload.

    Independent reference for property tests; deliberately knows nothing
    about chunks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(payload[i:i + n] for i in range(len(payload) - n + 1))

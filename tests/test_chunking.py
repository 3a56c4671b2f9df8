import random
from collections import Counter

import pytest

from pckad import ChunkingConfig, count_windows, sliding_window_oracle
from pckad.chunking import (
    NGramCounts,
    chunk_windows,
    extract_ngrams,
    slice_windows,
    split_chunks,
)

from helpers import reference_counts

GET_LINE = b"GET /people/svalente/gif/poker.dogs.jpg HTTP/1.0\r\n"


def chunks_of(payload: bytes, layout) -> list[bytes]:
    return [payload[a:b] for a, b in layout.chunks]


class TestConfig:
    @pytest.mark.parametrize("n,chunk_len", [(0, 5), (3, 0), (-1, 4), (8, 7)])
    def test_invalid_configs(self, n, chunk_len):
        with pytest.raises(ValueError):
            ChunkingConfig(n=n, chunk_len=chunk_len)

    def test_n_equal_chunk_len_ok(self):
        ChunkingConfig(n=5, chunk_len=5)


class TestSplitChunks:
    def test_fifteen_byte_chunks_of_get_line(self):
        assert len(GET_LINE) == 50
        layout = split_chunks(GET_LINE, ChunkingConfig(3, 15))
        assert chunks_of(GET_LINE, layout) == [
            b"GET /people/sva",
            b"lente/gif/poker",
            b".dogs.jpg HTTP/",
            b"1.0\r\n",
        ]

    def test_exact_fit_is_one_chunk(self):
        layout = split_chunks(bytes(30), ChunkingConfig(3, 30))
        assert layout.chunks == ((0, 30),)

    def test_ceiling_rule_randomized(self):
        rng = random.Random(5)
        for _ in range(300):
            payload_len = rng.randrange(1, 200)
            chunk_len = rng.randrange(1, 50)
            payload = bytes(rng.randrange(256) for _ in range(payload_len))
            layout = split_chunks(payload, ChunkingConfig(1, chunk_len))
            assert len(layout.chunks) == -(-payload_len // chunk_len)
            # chunks are contiguous, non-overlapping, and cover the payload
            assert b"".join(chunks_of(payload, layout)) == payload
            sizes = [b - a for a, b in layout.chunks]
            assert all(s == chunk_len for s in sizes[:-1])
            assert 1 <= sizes[-1] <= chunk_len


class TestCountWindows:
    def test_ooddod_bigrams(self):
        counts = count_windows(b"ooddod", ChunkingConfig(2, 6))
        assert counts.totals == {b"oo": 1, b"od": 2, b"dd": 1, b"do": 1}
        # six bytes in one chunk of 6: all five windows count in chunk 0
        assert counts.chunks == [counts.totals]
        assert sum(counts.chunks[0].values()) == 5

    def test_payload_shorter_than_n(self):
        counts = count_windows(b"xy", ChunkingConfig(3, 15))
        assert counts == (Counter(), [])


class TestChunkWindows:
    def test_no_chunk_for_a_tail_no_window_starts_in(self):
        # 16 bytes hold two chunks of 15, but the 14 windows all start in the first
        grams, nck = slice_windows(b"x" * 16, ChunkingConfig(3, 15))
        assert nck == 2
        assert chunk_windows(grams, 15) == [grams]


class TestOracle:
    def test_ooddod(self):
        assert sliding_window_oracle(b"ooddod", 2) == Counter(
            {b"oo": 1, b"od": 2, b"dd": 1, b"do": 1}
        )

    def test_single_window(self):
        assert sliding_window_oracle(b"abc", 3) == Counter({b"abc": 1})

    def test_window_longer_than_input(self):
        assert sliding_window_oracle(b"abc", 4) == Counter()


def random_payload(rng: random.Random) -> bytes:
    return bytes(rng.choices(range(256), k=rng.randrange(1, 120)))


class TestProperties:
    def test_oracle_equivalence_and_chunk_sums(self):
        rng = random.Random(12)
        for _ in range(250):
            payload = random_payload(rng)
            n = rng.randrange(1, 9)
            cfg = ChunkingConfig(n, rng.randrange(n, 45))
            counts = extract_ngrams(payload, split_chunks(payload, cfg), cfg)
            assert Counter(counts.payload_counts) == sliding_window_oracle(payload, n)
            for gram, per_chunk in counts.chunk_counts.items():
                assert sum(per_chunk.values()) == counts.payload_counts[gram]
            assert counts.tot_seqs == sum(counts.payload_counts.values())

    def test_matches_reference_counts(self):
        rng = random.Random(14)
        alphabet = b"ab\x00\xff"  # few symbols, so n-grams repeat within and across chunks
        for chunk_len in range(1, 10):
            for n in range(1, chunk_len + 1):
                for _ in range(12):
                    # payload lengths from below n to several chunks
                    payload = bytes(rng.choices(alphabet, k=rng.randrange(1, 8 * chunk_len + 2)))
                    cfg = ChunkingConfig(n, chunk_len)
                    got = extract_ngrams(payload, split_chunks(payload, cfg), cfg)
                    totals, per_chunk, _ = reference_counts(payload, cfg)
                    assert got.payload_counts == totals, (payload, cfg)
                    assert got.chunk_counts == per_chunk, (payload, cfg)
                    assert got.tot_seqs == sum(totals.values())
                    # first-occurrence order too, which model building iterates in
                    assert list(got.payload_counts) == list(totals)
                    assert list(got.chunk_counts) == list(per_chunk)
                    for gram, xs in got.chunk_counts.items():
                        assert list(xs) == list(per_chunk[gram])

    def test_layout_depends_only_on_length(self):
        rng = random.Random(13)
        for _ in range(50):
            payload = random_payload(rng)
            cfg = ChunkingConfig(2, rng.randrange(2, 20))
            assert split_chunks(payload, cfg) == split_chunks(bytes(len(payload)), cfg)

    def test_counts_dataclass_absent_means_zero(self):
        counts = NGramCounts(payload_counts={}, chunk_counts={}, tot_seqs=0)
        assert counts.payload_counts.get(b"xy", 0) == 0

import random
from collections import Counter

import pytest

from pckad import ChunkingConfig, RelevantPayload, count_windows, sliding_window_oracle
from pckad.chunking import NGramCounts, extract_ngrams, split_chunks

from helpers import window_loop_ngrams

GET_LINE = b"GET /people/svalente/gif/poker.dogs.jpg HTTP/1.0\r\n"


def chunks_of(component: bytes, layout, comp_index: int = 0) -> list[bytes]:
    return [component[a:b] for a, b in layout.component_chunks[comp_index]]


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
        layout = split_chunks(RelevantPayload((GET_LINE,)), ChunkingConfig(3, 15))
        assert chunks_of(GET_LINE, layout) == [
            b"GET /people/sva",
            b"lente/gif/poker",
            b".dogs.jpg HTTP/",
            b"1.0\r\n",
        ]
        assert layout.nck_total == 4

    def test_exact_fit_is_one_chunk(self):
        comp = bytes(30)
        layout = split_chunks(RelevantPayload((comp,)), ChunkingConfig(3, 30))
        assert layout.nck_per_component == (1,)
        assert layout.nck_total == 1

    def test_two_components(self):
        rel = RelevantPayload((b"a" * 20, b"b" * 5))
        layout = split_chunks(rel, ChunkingConfig(3, 15))
        assert layout.nck_per_component == (2, 1)
        assert layout.nck_total == 3
        assert layout.component_base == (0, 2)

    def test_ceiling_rule_randomized(self):
        rng = random.Random(5)
        for _ in range(300):
            comp_len = rng.randrange(1, 200)
            chunk_len = rng.randrange(1, 50)
            comp = bytes(rng.randrange(256) for _ in range(comp_len))
            layout = split_chunks(RelevantPayload((comp,)), ChunkingConfig(1, chunk_len))
            assert layout.nck_per_component[0] == -(-comp_len // chunk_len)
            # chunks are contiguous, non-overlapping, and cover the component
            assert b"".join(chunks_of(comp, layout)) == comp
            sizes = [b - a for a, b in layout.component_chunks[0]]
            assert all(s == chunk_len for s in sizes[:-1])
            assert 1 <= sizes[-1] <= chunk_len


class TestCountWindows:
    def test_ooddod_bigrams(self):
        counts = count_windows(RelevantPayload((b"ooddod",)), ChunkingConfig(2, 6))
        assert counts.totals == {b"oo": 1, b"od": 2, b"dd": 1, b"do": 1}
        assert counts.tot_seqs == 5

    def test_border_window_counts_toward_first_byte_chunk(self):
        counts = count_windows(RelevantPayload((GET_LINE,)), ChunkingConfig(3, 15))
        # "val" starts at offset 13, inside chunk 0, and spills into chunk 1
        assert GET_LINE[13:16] == b"val"
        assert {j: x for (gram, j), x in counts.pairs.items() if gram == b"val"} == {0: 1}

    def test_component_shorter_than_n(self):
        counts = count_windows(RelevantPayload((b"x", b"longenough")), ChunkingConfig(3, 15))
        assert counts.tot_seqs == len(b"longenough") - 2

    def test_windows_do_not_span_components(self):
        counts = count_windows(RelevantPayload((b"ab", b"cd")), ChunkingConfig(2, 10))
        assert counts.totals == {b"ab": 1, b"cd": 1}
        assert b"bc" not in counts.totals


class TestOracle:
    def test_ooddod(self):
        assert sliding_window_oracle(b"ooddod", 2) == Counter(
            {b"oo": 1, b"od": 2, b"dd": 1, b"do": 1}
        )

    def test_single_window(self):
        assert sliding_window_oracle(b"abc", 3) == Counter({b"abc": 1})

    def test_window_longer_than_input(self):
        assert sliding_window_oracle(b"abc", 4) == Counter()


def random_relevant(rng: random.Random) -> RelevantPayload:
    comps = tuple(
        bytes(rng.randrange(256) for _ in range(rng.randrange(1, 120)))
        for _ in range(rng.randrange(1, 4))
    )
    return RelevantPayload(comps)


class TestProperties:
    def test_oracle_equivalence_and_chunk_sums(self):
        rng = random.Random(12)
        for _ in range(250):
            rel = random_relevant(rng)
            n = rng.randrange(1, 9)
            cfg = ChunkingConfig(n, rng.randrange(n, 45))
            counts = extract_ngrams(rel, split_chunks(rel, cfg), cfg)
            expected = Counter()
            for comp in rel.components:
                expected += sliding_window_oracle(comp, n)
            assert Counter(counts.payload_counts) == expected
            for gram, per_chunk in counts.chunk_counts.items():
                assert sum(per_chunk.values()) == counts.payload_counts[gram]
            assert counts.tot_seqs == sum(counts.payload_counts.values())

    def test_matches_window_loop_reference(self):
        rng = random.Random(14)
        alphabet = b"ab\x00\xff"  # few symbols, so n-grams repeat within and across chunks
        for chunk_len in range(1, 10):
            for n in range(1, chunk_len + 1):
                for _ in range(12):
                    # component lengths from below n to several chunks
                    lengths = [rng.randrange(1, 4 * chunk_len + 2) for _ in range(rng.randrange(1, 5))]
                    rel = RelevantPayload(tuple(bytes(rng.choices(alphabet, k=k)) for k in lengths))
                    cfg = ChunkingConfig(n, chunk_len)
                    layout = split_chunks(rel, cfg)
                    got = extract_ngrams(rel, layout, cfg)
                    want = window_loop_ngrams(rel, layout, cfg)
                    assert got == want, (rel, cfg)
                    # first-occurrence order too, which model building iterates in
                    assert list(got.payload_counts) == list(want.payload_counts)
                    assert list(got.chunk_counts) == list(want.chunk_counts)
                    for gram, per_chunk in got.chunk_counts.items():
                        assert list(per_chunk) == list(want.chunk_counts[gram])

    def test_layout_depends_only_on_lengths(self):
        rng = random.Random(13)
        for _ in range(50):
            lengths = [rng.randrange(1, 80) for _ in range(rng.randrange(1, 4))]
            cfg = ChunkingConfig(2, rng.randrange(2, 20))
            rel_a = RelevantPayload(tuple(bytes(n) for n in lengths))
            rel_b = RelevantPayload(tuple(bytes(rng.randrange(256) for _ in range(n)) for n in lengths))
            la, lb = split_chunks(rel_a, cfg), split_chunks(rel_b, cfg)
            assert la == lb

    def test_counts_dataclass_absent_means_zero(self):
        counts = NGramCounts(payload_counts={}, chunk_counts={}, tot_seqs=0)
        assert counts.payload_counts.get(b"xy", 0) == 0

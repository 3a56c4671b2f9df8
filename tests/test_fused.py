"""The one counting pass and the inlined rules, checked against plain references.

`count_windows` is checked against `tests/helpers.py:reference_counts`,
which counts with `sliding_window_oracle` alone. The fused
`judge` is checked against a test-local copy of the per-gram judge it
replaced (per-chunk Counters into a dict of dicts, then one
`anomalous_occurrences` call per n-gram) and against
`tests/helpers.py:reference_verdict`, on randomized models whose means sit
at and next to the rule edges.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pckad
from pckad import (
    ChunkingConfig,
    ClassKey,
    ClassModel,
    DetectorConfig,
    NGramStats,
    PacketRecord,
    Protocol,
    RelevantPayload,
    TrafficModel,
    anomalous_occurrences,
    count_windows,
    score_packet,
)
from pckad.chunking import NGramCounts, split_chunks
from pckad.detector import MALFORMED, NO_MODEL, UNCLASSIFIABLE, Outcome, judge
from pckad.protocols import Malformed

from helpers import reference_counts, reference_verdict

ALPHABET = b"ab\x00"  # few symbols, so n-grams repeat within and across chunks
SEP = b"|"  # splits a test payload into relevant components


# --- count_windows ------------------------------------------------------------

_COMPONENTS = st.lists(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=60).map(bytes),
    min_size=1, max_size=3,
)


@st.composite
def _chunking(draw):
    n = draw(st.integers(1, 6))
    return ChunkingConfig(n, draw(st.integers(n, 20)))


@given(components=_COMPONENTS, cfg=_chunking())
def test_count_windows_matches_oracle(components, cfg):
    counts = count_windows(RelevantPayload(tuple(components)), cfg)
    totals, per_chunk, nck = reference_counts(components, cfg)
    pairs = {(gram, j): x for gram, xs in per_chunk.items() for j, x in xs.items()}
    assert counts.totals == totals
    assert counts.pairs == pairs
    per_gram = Counter()
    for (gram, _), x in counts.pairs.items():
        per_gram[gram] += x
    assert per_gram == counts.totals
    assert counts.nck_total == nck
    assert counts.tot_seqs == sum(totals.values())


# --- the per-gram judge that the fused pass replaced ------------------------------


def _split(payload: bytes) -> RelevantPayload:
    return RelevantPayload(tuple(c for c in payload.split(SEP) if c))


def _per_gram_counts(relevant, layout, cfg) -> NGramCounts:
    """extract_ngrams as it was: one Counter per chunk, folded into a dict of dicts."""
    n, chunk_len = cfg.n, cfg.chunk_len
    payload_counts = {}
    chunk_counts = {}
    tot = 0
    for comp, base in zip(relevant.components, layout.component_base):
        windows = len(comp) - n + 1
        if windows <= 0:
            continue
        tot += windows
        for j, start in enumerate(range(0, windows, chunk_len), base):
            stop = min(start + chunk_len, windows)
            grams = Counter(comp[i:i + n] for i in range(start, stop))
            for gram, x in grams.items():
                payload_counts[gram] = payload_counts.get(gram, 0) + x
                chunk_counts.setdefault(gram, {})[j] = x
    return NGramCounts(payload_counts, chunk_counts, tot)


def per_gram_judge(model, record, cfg):
    """judge as it was: featurize into NGramCounts, then anomalous_occurrences per n-gram."""
    payload = record.payload
    if not payload:
        return Outcome(UNCLASSIFIABLE, reason="empty payload")
    relevant = pckad.model.extract_relevant(model.protocol, payload)
    if isinstance(relevant, Malformed):
        return Outcome(MALFORMED, reason=relevant.reason)
    n = model.chunking.n
    layout = split_chunks(relevant, model.chunking)
    counts = _per_gram_counts(relevant, layout, model.chunking)
    if counts.tot_seqs == 0:
        return Outcome(UNCLASSIFIABLE, reason=f"no component fits an n={n} window")
    key = ClassKey(model.port, layout.nck_total)
    cls = model.classes.get(key)
    if cls is None:
        return Outcome(NO_MODEL, class_key=key)
    a_on = a_off = 0
    for gram, x in counts.payload_counts.items():
        on, off = anomalous_occurrences(
            cls.stats.get(gram), x, counts.chunk_counts[gram],
            model.alpha, model.th_s, cfg.chunks_enabled,
        )
        a_on += on
        a_off += off
    return Outcome(None, counts.tot_seqs, a_on, a_off, class_key=key)


# --- randomized models with means on the rule edges --------------------------------

# dyadic settings make th_s * (std + alpha) exact, so a mean can sit exactly on an edge
SETTINGS = [(0.5, 2.0), (0.25, 4.0), (0.5, 1.0), (0.1, 5.0), (0.3, 0.7)]
STDS = [0.0, 0.0, 0.25, 0.5, 1.5]


def _edge_stat(rng, alpha, th_s, sample_count):
    """(mean, std) with the mean at, or one float step from, an edge of an integer count."""
    kind = rng.randrange(4)
    if kind == 0:  # as trained on sample_count packets
        xs = [rng.randrange(3) for _ in range(sample_count)]
        mean = sum(xs) / sample_count
        return mean, math.sqrt(sum((x - mean) ** 2 for x in xs) / sample_count)
    std = rng.choice(STDS)
    if kind == 1:
        return float(rng.randrange(4)), std
    mean = rng.randrange(1, 4) + rng.choice((-1, 1)) * th_s * (std + alpha)
    if kind == 3:
        mean = math.nextafter(mean, rng.choice((-math.inf, math.inf)))
    return max(mean, 0.0), std


def random_model(rng, cfg, nck_values):
    """A model over ALPHABET's n-grams: some unseen, some chunk positions absent."""
    alpha, th_s = rng.choice(SETTINGS)
    vocab = sorted({bytes(rng.choices(ALPHABET, k=cfg.n)) for _ in range(12)})
    classes = {}
    for nck in nck_values:
        sample_count = rng.randrange(1, 4)
        stats = {}
        for gram in vocab:
            if rng.random() < 0.2:
                continue  # rule 1: never seen in this class
            mean, std = _edge_stat(rng, alpha, th_s, sample_count)
            chunks = {
                j: _edge_stat(rng, alpha, th_s, sample_count)
                for j in range(nck) if rng.random() < 0.6
            }
            stats[gram] = NGramStats(mean, std, chunks)
        classes[ClassKey(21, nck)] = ClassModel(sample_count, stats)
    return TrafficModel(Protocol.FTP, 21, cfg, alpha, th_s, classes)


def random_payload(rng, cfg) -> bytes:
    lengths = [rng.randrange(1, 3 * cfg.chunk_len + 2) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.05:
        return b""
    return SEP.join(bytes(rng.choices(ALPHABET, k=k)) for k in lengths)


@pytest.fixture
def components(monkeypatch):
    """FTP payloads split on SEP into 1-3 relevant components, for the package and the reference."""
    monkeypatch.setattr(pckad.model, "extract_relevant", lambda protocol, payload: _split(payload))
    monkeypatch.setattr(pckad, "extract_relevant", lambda protocol, payload: _split(payload))


def _cases(seed, count=150):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 4)
        cfg = ChunkingConfig(n, rng.randrange(n, 8))
        # most packets land in a modelled class; the rest are no_model
        model = random_model(rng, cfg, [k for k in range(1, 9) if rng.random() < 0.8])
        payloads = [random_payload(rng, cfg) for _ in range(8)]
        yield model, [PacketRecord(id=i, dst_port=21, payload=p) for i, p in enumerate(payloads)]


def _cfgs(model, threshold):
    return [DetectorConfig(threshold, chunks_enabled=chunks) for chunks in (True, False)]


@pytest.mark.usefixtures("components")
class TestFusedJudge:
    def test_judge_matches_per_gram_judge(self):
        kinds = Counter()
        for model, records in _cases(71):
            for cfg in _cfgs(model, 0.0):
                for rec in records:
                    outcome = judge(model, rec, cfg.chunks_enabled)
                    assert outcome == per_gram_judge(model, rec, cfg), (rec, cfg)
                    kinds[outcome.kind] += 1
                    if outcome.kind is None:
                        kinds["rule 3", bool(outcome.a_on - outcome.a_off)] += 1
        assert kinds[NO_MODEL] and kinds[UNCLASSIFIABLE]
        assert kinds["rule 3", True] and kinds["rule 3", False]

    def test_verdicts_match_per_gram_judge_and_reference(self):
        alerts = Counter()
        for i, (model, records) in enumerate(_cases(72)):
            for cfg in _cfgs(model, (0.0, 20.0, 50.0)[i % 3]):
                for rec in records:
                    got = score_packet(model, rec, cfg)
                    assert got == per_gram_judge(model, rec, cfg).verdict(cfg), (rec, cfg)
                    assert (got.kind, got.score, got.a_seqs, got.tot_seqs) == \
                        reference_verdict(model, rec.payload, cfg), (rec, cfg)
                    alerts[got.kind] += 1
        assert alerts["anomalous"] and alerts["legit"]

    def test_all_rules_judgement_serves_chunks_off(self):
        """One judgement with every rule on gives the chunks-off verdict."""
        differ = 0
        for model, records in _cases(73):
            on, off = _cfgs(model, 0.0)
            for rec in records:
                outcome = judge(model, rec, on.chunks_enabled)
                assert outcome.verdict(off) == score_packet(model, rec, off), rec
                assert outcome.verdict(on) == score_packet(model, rec, on), rec
                differ += outcome.a_on != outcome.a_off
        assert differ

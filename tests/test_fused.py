"""The one counting pass and the inlined rules, checked against plain references.

`count_windows` is checked against `tests/helpers.py:reference_counts`,
which counts with `sliding_window_oracle` alone. The fused `judge` is
checked against a test-local copy of the per-gram judge it replaced
(`reference_counts`, then one `anomalous_occurrences` call per n-gram) and
against `tests/helpers.py:reference_verdict`, on randomized models whose
means sit at and next to the rule edges. Half the cases hold payloads with
no repeated window, which `judge` decides from its per-class sets alone;
the rest mostly repeat windows, whose repeated n-grams it judges at their
counts and whose other n-grams it decides from the sets. `deviates`, the
one deviation test of the rules, is checked against `mahalanobis_term`.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pckad import (
    ChunkingConfig,
    ClassKey,
    ClassModel,
    DetectorConfig,
    NGramStats,
    PacketRecord,
    Protocol,
    Scorer,
    TrafficModel,
    anomalous_occurrences,
    count_windows,
    extract_relevant,
    mahalanobis_term,
    score_packet,
)
from pckad.chunking import slice_windows
from pckad.detector import MALFORMED, NO_MODEL, UNCLASSIFIABLE, Outcome, judge
from pckad.model import deviates
from pckad.protocols import Malformed

from helpers import chunk_pairs, reference_counts, reference_verdict

ALPHABET = b"ab\x00"  # few symbols, so n-grams repeat within and across chunks
DISTINCT_ALPHABET = bytes(range(0x21, 0x21 + 48))  # drawn without replacement


# --- count_windows ------------------------------------------------------------

_PAYLOADS = st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=120).map(bytes)


@st.composite
def _chunking(draw):
    n = draw(st.integers(1, 6))
    return ChunkingConfig(n, draw(st.integers(n, 20)))


@given(payload=_PAYLOADS, cfg=_chunking())
def test_count_windows_matches_oracle(payload, cfg):
    counts = count_windows(payload, cfg)
    totals, per_chunk, nck = reference_counts(payload, cfg)
    pairs = {(gram, j): x for gram, xs in per_chunk.items() for j, x in xs.items()}
    counted = chunk_pairs(counts)
    assert counts.totals == totals
    assert counted == pairs
    per_gram = Counter()
    for (gram, _), x in counted.items():
        per_gram[gram] += x
    assert per_gram == counts.totals
    # featurize takes the class's chunk count from slice_windows
    grams, sliced_nck = slice_windows(payload, cfg)
    assert sliced_nck == nck
    assert len(grams) == sum(totals.values())


# --- the per-gram judge that the fused pass replaced ------------------------------


def per_gram_judge(model, payload):
    """judge as it was: per-n-gram counts, then one anomalous_occurrences call per n-gram."""
    if not payload:
        return Outcome(UNCLASSIFIABLE)
    relevant = extract_relevant(model.protocol, payload)
    if isinstance(relevant, Malformed):
        return Outcome(MALFORMED)
    (part,) = relevant.components
    totals, per_chunk, nck = reference_counts(part, model.chunking)
    tot_seqs = sum(totals.values())
    if tot_seqs == 0:
        return Outcome(UNCLASSIFIABLE)
    cls = model.classes.get(ClassKey(model.port, nck))
    if cls is None:
        return Outcome(NO_MODEL)
    a_on = a_off = 0
    for gram, x in totals.items():
        on, off = anomalous_occurrences(
            cls.stats.get(gram), x, per_chunk[gram], model.alpha, model.th_s
        )
        a_on += on
        a_off += off
    return Outcome(None, tot_seqs, a_on, a_off)


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


def random_model(rng, cfg, nck_values, vocab=None):
    """A model over vocab (by default ALPHABET's n-grams): some unseen, some chunks absent."""
    alpha, th_s = rng.choice(SETTINGS)
    if vocab is None:
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


def random_payload(rng, cfg, distinct=False) -> bytes:
    """A payload over ALPHABET, or one whose bytes, and so its windows, all differ."""
    if rng.random() < 0.05:
        return b""
    size = rng.randrange(1, 6 * cfg.chunk_len + 2)
    if distinct:
        return bytes(rng.sample(DISTINCT_ALPHABET, min(size, len(DISTINCT_ALPHABET))))
    return bytes(rng.choices(ALPHABET, k=size))


def _cases(seed, count=150):
    """Random models and payloads; in half the cases no payload repeats a window.

    There the model's vocabulary is the payloads' own windows, so that rules
    2 and 3 judge them rather than rule 1 alone.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 4)
        cfg = ChunkingConfig(n, rng.randrange(n, 8))
        distinct = rng.random() < 0.5
        payloads = [random_payload(rng, cfg, distinct) for _ in range(8)]
        vocab = sorted({p[i:i + n] for p in payloads for i in range(len(p) - n + 1)}) \
            if distinct else None
        # most packets land in a modelled class; the rest are no_model
        model = random_model(rng, cfg, [k for k in range(1, 9) if rng.random() < 0.8], vocab)
        yield model, [PacketRecord(id=i, dst_port=21, payload=p) for i, p in enumerate(payloads)]


def repeats_a_window(model, payload):
    """Whether a scored payload has an n-gram that `judge` decides at its count."""
    totals, _, _ = reference_counts(payload, model.chunking)
    return max(totals.values()) > 1


def mixed(model, payload):
    """Whether a scored payload asks both parts of `judge`, at an n-gram no set holds.

    It holds n-grams that occur once, which the class's sets decide, beside a
    repeated n-gram that rules 1-2 leave alone at its count x, though one
    occurrence would deviate, so that the sets leave it out.
    """
    totals, _, nck = reference_counts(payload, model.chunking)
    stats = model.classes[ClassKey(model.port, nck)].stats

    def usual_at(gram, x):
        return not mahalanobis_term(stats[gram].mean, stats[gram].std, x, model.alpha) > model.th_s

    return 1 in totals.values() and any(
        x > 1 and gram in stats and usual_at(gram, x) and not usual_at(gram, 1)
        for gram, x in totals.items())


def absent_chunk_usual(model):
    """Whether rule 3 leaves one occurrence alone in a chunk the n-gram has no entry for."""
    return not mahalanobis_term(0.0, 0.0, 1, model.alpha) > model.th_s


def _cfgs(model, threshold):
    return [DetectorConfig(threshold, chunks_enabled=chunks) for chunks in (True, False)]


class TestFusedJudge:
    def test_judge_matches_per_gram_judge(self):
        kinds = Counter()
        mixed_fired = Counter()
        for model, records in _cases(71):
            scorer = Scorer(model)
            for rec in records:
                outcome = judge(scorer, rec.payload)
                assert outcome == per_gram_judge(model, rec.payload), rec
                kinds[outcome.kind] += 1
                if outcome.kind is None:
                    fired = outcome.a_on > outcome.a_off
                    kinds[repeats_a_window(model, rec.payload), absent_chunk_usual(model),
                          fired] += 1
                    mixed_fired[fired] += mixed(model, rec.payload)
        assert kinds[NO_MODEL] and kinds[UNCLASSIFIABLE]
        # payloads with and without a repeated window were judged where rule 3 fired and
        # where it did not, in both regimes: an absent chunk usual at one occurrence
        # (1 / alpha == th_s) or not
        for repeats in (True, False):
            for absent_usual in (True, False):
                for fired in (True, False):
                    assert kinds[repeats, absent_usual, fired], (repeats, absent_usual, fired)
        assert mixed_fired[True] and mixed_fired[False], mixed_fired

    def test_verdicts_match_per_gram_judge_and_reference(self):
        alerts = Counter()
        for i, (model, records) in enumerate(_cases(72)):
            scorer = Scorer(model)
            for cfg in _cfgs(model, (0.0, 20.0, 50.0)[i % 3]):
                for rec in records:
                    got = score_packet(scorer, rec, cfg)
                    assert got == per_gram_judge(model, rec.payload).verdict(cfg), (rec, cfg)
                    assert (got.kind, got.score, got.a_seqs, got.tot_seqs) == \
                        reference_verdict(model, rec.payload, cfg), (rec, cfg)
                    alerts[got.kind] += 1
        assert alerts["anomalous"] and alerts["legit"]

    def test_all_rules_judgement_serves_chunks_off(self):
        """One judgement with every rule on gives the chunks-off verdict."""
        differ = 0
        for model, records in _cases(73):
            on, off = _cfgs(model, 0.0)
            scorer = Scorer(model)
            for rec in records:
                outcome = judge(scorer, rec.payload)
                assert outcome.verdict(off) == score_packet(scorer, rec, off), rec
                assert outcome.verdict(on) == score_packet(scorer, rec, on), rec
                differ += outcome.a_on != outcome.a_off
        assert differ


# --- the deviation test ----------------------------------------------------------

_FINITE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


class TestDeviates:
    @given(mean=_FINITE, std=_FINITE, x=st.integers(1, 10**6), alpha=_POSITIVE, th_s=_POSITIVE)
    def test_matches_mahalanobis_term(self, mean, std, x, alpha, th_s):
        assert deviates(mean, std, x, alpha, th_s) == \
            (mahalanobis_term(mean, std, x, alpha) > th_s)

    @pytest.mark.parametrize("alpha, th_s", SETTINGS)
    @pytest.mark.parametrize("x", [1, 2])
    def test_exact_ties(self, alpha, th_s, x):
        """A deviation of exactly th_s does not deviate; one float step from it, as the term says."""
        ties = 0
        for std in STDS:
            for mean in (x - th_s * (std + alpha), x + th_s * (std + alpha)):
                if mean < 0:
                    continue
                if mahalanobis_term(mean, std, x, alpha) == th_s:
                    ties += 1
                    assert not deviates(mean, std, x, alpha, th_s)
                for m in (math.nextafter(mean, -math.inf), math.nextafter(mean, math.inf)):
                    if m >= 0:
                        assert deviates(m, std, x, alpha, th_s) == \
                            (mahalanobis_term(m, std, x, alpha) > th_s)
        assert ties

"""The one counting pass and the inlined rules, checked against plain references.

`count_windows` is checked against `tests/helpers.py:reference_counts`,
which counts with `sliding_window_oracle` alone. The fused `judge` is
checked against a test-local copy of the per-gram judge it replaced
(`reference_counts`, then one `anomalous_occurrences` call per n-gram) and
against `tests/helpers.py:reference_verdict`, on randomized models whose
means sit at and next to the rule edges. Half the cases hold payloads with
no repeated window, which `judge` decides from its per-class sets; the
rest mostly repeat windows, which it counts.
"""

import dataclasses
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
    GenSpec,
    NGramStats,
    PacketRecord,
    Protocol,
    TrafficModel,
    anomalous_occurrences,
    count_windows,
    extract_relevant,
    gen_legit,
    inject_corpus,
    load_model,
    mahalanobis_term,
    save_model,
    score_packet,
    train,
)
from pckad.detector import MALFORMED, NO_MODEL, UNCLASSIFIABLE, Outcome, judge
from pckad.protocols import Malformed
from pckad.synth import AnomalyKind

from helpers import reference_counts, reference_verdict

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
    assert counts.totals == totals
    assert counts.pairs == pairs
    per_gram = Counter()
    for (gram, _), x in counts.pairs.items():
        per_gram[gram] += x
    assert per_gram == counts.totals
    assert counts.nck_total == nck
    assert counts.tot_seqs == sum(totals.values())


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


def judged_form(model, payload):
    """The form `judge` takes on a scored payload: "sets" when no window repeats."""
    totals, _, _ = reference_counts(payload, model.chunking)
    return "sets" if max(totals.values()) == 1 else "counts"


def absent_chunk_usual(model):
    """Whether rule 3 leaves one occurrence alone in a chunk the n-gram has no entry for."""
    return not mahalanobis_term(0.0, 0.0, 1, model.alpha) > model.th_s


def _cfgs(model, threshold):
    return [DetectorConfig(threshold, chunks_enabled=chunks) for chunks in (True, False)]


class TestFusedJudge:
    def test_judge_matches_per_gram_judge(self):
        kinds = Counter()
        for model, records in _cases(71):
            for rec in records:
                outcome = judge(model, rec.payload)
                assert outcome == per_gram_judge(model, rec.payload), rec
                kinds[outcome.kind] += 1
                if outcome.kind is None:
                    kinds[judged_form(model, rec.payload), absent_chunk_usual(model),
                          outcome.a_on > outcome.a_off] += 1
        assert kinds[NO_MODEL] and kinds[UNCLASSIFIABLE]
        # each form judged packets where rule 3 fired and where it did not, in both
        # regimes: an absent chunk usual at one occurrence (1 / alpha == th_s) or not
        for form in ("sets", "counts"):
            for absent_usual in (True, False):
                for fired in (True, False):
                    assert kinds[form, absent_usual, fired], (form, absent_usual, fired)

    def test_verdicts_match_per_gram_judge_and_reference(self):
        alerts = Counter()
        for i, (model, records) in enumerate(_cases(72)):
            for cfg in _cfgs(model, (0.0, 20.0, 50.0)[i % 3]):
                for rec in records:
                    got = score_packet(model, rec, cfg)
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
            for rec in records:
                outcome = judge(model, rec.payload)
                assert outcome.verdict(off) == score_packet(model, rec, off), rec
                assert outcome.verdict(on) == score_packet(model, rec, on), rec
                differ += outcome.a_on != outcome.a_off
        assert differ


class TestUsualSets:
    def test_sets_never_outlive_their_settings(self, tmp_path):
        """A model judges at its own th_s, after the model it was replaced from has judged."""
        model = train(iter(gen_legit(GenSpec(Protocol.FTP, 400, seed=41))),
                      protocol=Protocol.FTP, chunking=ChunkingConfig(3, 15))
        save_model(model, tmp_path / "model")
        test = gen_legit(GenSpec(Protocol.FTP, 200, seed=42))
        for i, kind in enumerate(AnomalyKind):
            test = inject_corpus(test, kind, 20, seed=43 + i)

        def judged(judging):
            """Every verdict as reference_verdict gives it at judging.th_s; the outcomes."""
            for cfg in (DetectorConfig(40), DetectorConfig(40, chunks_enabled=False)):
                for rec in test:
                    got = score_packet(judging, rec, cfg)
                    assert (got.kind, got.score, got.a_seqs, got.tot_seqs) == \
                        reference_verdict(judging, rec.payload, cfg), (judging.th_s, rec, cfg)
            return [judge(judging, rec.payload) for rec in test]

        at_model = judged(model)
        lower = dataclasses.replace(model, th_s=1.0)  # made after model built its sets
        at_lower = judged(lower)
        assert model.usual_at_one and lower.usual_at_one
        # the lower th_s judges some payloads of the set form otherwise
        assert any(high != low and judged_form(model, rec.payload) == "sets"
                   for rec, high, low in zip(test, at_model, at_lower))
        # the sets are neither compared nor saved
        assert load_model(tmp_path / "model") == model
        # nor can a setting change under them
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.th_s = 1.0

"""The entries that training leaves out change no verdict, checked against plain references.

`train` keeps no entry for an n-gram with mean <= 1 whose deviation at one
occurrence exceeds th_s: rule 2 flags it at any count, as rule 1 flags an
n-gram never seen. `tests/helpers.py:unpruned_model` keeps every entry; both
models must give equal outcomes at the trained th_s and at any lower th_s.
"""

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pckad import (
    AnomalyKind,
    ChunkingConfig,
    ClassKey,
    ClassModel,
    DetectorConfig,
    GenSpec,
    PacketRecord,
    Protocol,
    Scorer,
    gen_legit,
    inject_corpus,
    load_model,
    mahalanobis_term,
    save_model,
    score_packet,
    train,
)
from pckad.detector import ANOMALOUS, LEGIT, judge
from pckad.model import featurize

from helpers import ftp_model, ftp_records, reference_verdict, unpruned_model

# corpus name -> its protocol; see `corpora`
CORPORA = {"FTP": Protocol.FTP, "HTTP": Protocol.HTTP, "FTP-repeats": Protocol.FTP}
CHUNKINGS = [ChunkingConfig(3, 15), ChunkingConfig(2, 7)]
INJECTED = {Protocol.FTP: list(AnomalyKind),
            Protocol.HTTP: [AnomalyKind.UNSEEN_GRAM, AnomalyKind.LOCATION_SHIFT]}


def _repeats(seed, count):
    """FTP records of random payloads over 3 symbols, each repeated 1-4 times, shuffled.

    Windows repeat within a chunk, and a repeated payload trains as one
    sample of weight above 1.
    """
    rng = random.Random(seed)
    payloads = [bytes(rng.choices(b"ab\x00", k=rng.randint(1, 40))) for _ in range(count)]
    repeated = [p for p in payloads for _ in range(rng.randint(1, 4))]
    rng.shuffle(repeated)
    return ftp_records(repeated)


@functools.cache
def corpora(corpus, chunking):
    """(protocol, training records, scored records, the unpruned model of the training records).

    The scored records lead with training packets, which hold every n-gram
    that training can leave out, and go on with fresh ones: generated and
    injected ones for "FTP" and "HTTP", more repeated random payloads for
    "FTP-repeats".
    """
    protocol = CORPORA[corpus]
    if corpus == "FTP-repeats":
        training, fresh = _repeats(5, 120), _repeats(6, 40)
    else:
        training = gen_legit(GenSpec(protocol, 300, seed=5))
        fresh = gen_legit(GenSpec(protocol, 120, seed=6))
        for offset, kind in enumerate(INJECTED[protocol]):
            fresh = inject_corpus(fresh, kind, 8, seed=7 + offset, cfg=chunking)
    full = unpruned_model(training, protocol, chunking)
    return protocol, training, training[:150] + fresh, full


def prunable(st_, alpha, th_s):
    """Whether rule 2 flags an entry at every count x >= 1, from its one-occurrence deviation."""
    return st_.mean <= 1 and mahalanobis_term(st_.mean, st_.std, 1, alpha) > th_s


class TestAgainstUnprunedModel:
    @pytest.mark.parametrize("chunking", CHUNKINGS, ids=str)
    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("th_s", [5.0, 2.5, 1.0])
    def test_kept_entries_are_exact_and_the_rest_prunable(self, corpus, chunking, th_s):
        protocol, training, _, full = corpora(corpus, chunking)
        model = train(training, protocol=protocol, chunking=chunking, th_s=th_s)
        assert model.classes.keys() == full.classes.keys()
        for key, cls in model.classes.items():
            ref = full.classes[key]
            assert cls.sample_count == ref.sample_count
            left_out = ref.stats.keys() - cls.stats.keys()
            assert cls.pruned == len(left_out)
            assert {g: ref.stats[g] for g in cls.stats} == cls.stats
            for gram, st_ in ref.stats.items():
                assert prunable(st_, model.alpha, th_s) == (gram in left_out), gram

    @settings(max_examples=40)
    @given(
        corpus=st.sampled_from(list(CORPORA)),
        chunking=st.sampled_from(CHUNKINGS),
        alpha=st.sampled_from([0.1, 0.05, 0.5]),
        th_s=st.floats(0.2, 6.0),
        lower=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    )
    def test_equal_outcomes_at_or_below_the_trained_th_s(
        self, corpus, chunking, alpha, th_s, lower
    ):
        protocol, training, scored, full = corpora(corpus, chunking)
        model = train(training, protocol=protocol, chunking=chunking, alpha=alpha, th_s=th_s)
        judged_at = th_s * lower
        pruned = Scorer(model, judged_at)
        unpruned = Scorer(dataclasses.replace(full, alpha=alpha, th_s=th_s), judged_at)
        for rec in scored:
            assert judge(pruned, rec.payload) == judge(unpruned, rec.payload)

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_scored_packets_hold_left_out_ngrams(self, corpus):
        """The corpora reach what the property is about: packets whose n-grams were left out."""
        protocol, training, scored, full = corpora(corpus, CHUNKINGS[0])
        model = train(training, protocol=protocol, chunking=CHUNKINGS[0], th_s=1.0)
        left_out = {
            gram for key, cls in model.classes.items()
            for gram in full.classes[key].stats.keys() - cls.stats.keys()
        }
        features = [featurize(rec.payload, protocol, model.port, model.chunking)
                    for rec in scored]
        hits = sum(not left_out.isdisjoint(f.grams) for f in features
                   if not isinstance(f, str))
        assert hits >= 10, corpus


@pytest.mark.parametrize("chunks_enabled", [True, False], ids=["chunks-on", "chunks-off"])
@pytest.mark.parametrize("threshold", [None, 10.0], ids=["default-threshold", "threshold-10"])
@pytest.mark.parametrize("corpus", CORPORA)
def test_judge_on_pruned_model_matches_reference_verdict(corpus, threshold, chunks_enabled):
    chunking = CHUNKINGS[0]
    protocol, training, scored, _ = corpora(corpus, chunking)
    model = train(training, protocol=protocol, chunking=chunking, th_s=1.5)
    assert sum(cls.pruned for cls in model.classes.values()) > 0
    if threshold is None:
        threshold = protocol.default_score_threshold
    cfg = DetectorConfig(threshold, chunks_enabled=chunks_enabled)
    scorer = Scorer(model)
    for rec in scored:
        got = score_packet(scorer, rec, cfg)
        assert (got.kind, got.score, got.a_seqs, got.tot_seqs) == \
            reference_verdict(model, rec.payload, cfg), rec


# every 2-gram of these payloads occurs once, in one of two packets: mean 0.5, std 0.5
FULLY_PRUNED = [b"abc", b"xyz"]


def fully_pruned_model():
    """A model whose one class has every entry left out: deviation 0.5 / 0.6 > th_s 0.5."""
    return ftp_model(FULLY_PRUNED, th_s=0.5)


class TestFullyPrunedClass:
    def test_class_keeps_its_sample_count_and_no_entry(self):
        assert fully_pruned_model().classes == {ClassKey(21, 1): ClassModel(2, {}, pruned=4)}

    def test_loads_with_empty_ngrams(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(fully_pruned_model(), path)
        assert b'"pruned":4,"ngrams":[]' in path.read_bytes()
        assert load_model(path) == fully_pruned_model()

    @pytest.mark.parametrize("payload", FULLY_PRUNED + [b"ab!"])
    def test_every_ngram_is_rule_1(self, payload):
        scorer = Scorer(fully_pruned_model())
        rec = PacketRecord(id=0, dst_port=21, payload=payload)
        assert judge(scorer, payload) == (None, 2, 2, 2)
        assert score_packet(scorer, rec, DetectorConfig(40.0)).kind == ANOMALOUS


def tie_model():
    """A model whose 2-grams each occur once, in one of two packets: mean 0.5, std 0.5.

    At alpha 0.5 one occurrence deviates by 0.5 / 1.0, exactly th_s 0.5,
    which no rule marks, so training keeps every entry.
    """
    return ftp_model([b"ab", b"cd"], alpha=0.5, th_s=0.5)


class TestPruningTie:
    def test_class_keeps_both_entries(self):
        cls = tie_model().classes[ClassKey(21, 1)]
        assert cls.pruned == 0
        assert cls.stats == {gram: (0.5, 0.5, {0: (0.5, 0.5)}) for gram in (b"ab", b"cd")}

    def test_tie_ngram_is_legit(self):
        rec = PacketRecord(id=0, dst_port=21, payload=b"ab")
        got = score_packet(Scorer(tie_model()), rec, DetectorConfig(40.0))
        assert (got.kind, got.score, got.a_seqs) == (LEGIT, 0.0, 0)

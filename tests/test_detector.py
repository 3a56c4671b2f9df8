import dataclasses
import importlib
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pckad import (
    ALERT_KINDS,
    ChunkingConfig,
    ClassKey,
    ClassModel,
    DetectionSummary,
    DetectorConfig,
    GenSpec,
    GridSpec,
    LabelSet,
    NGramStats,
    PacketRecord,
    Protocol,
    Scorer,
    TrafficModel,
    Verdict,
    anomalous_occurrences,
    detect_stream,
    evaluate,
    gen_legit,
    mahalanobis_term,
    score_packet,
    sweep,
    train,
    verdict_line,
)
from pckad.corpus import COMPACT_JSON
from pckad.detector import Outcome, judge
from pckad.model import featurize
from pckad.synth import AnomalyKind, inject_corpus

from helpers import ftp_model, reference_verdict

evaluate_module = importlib.import_module("pckad.evaluate")


def ftp_record(payload, rec_id=0):
    return PacketRecord(id=rec_id, dst_port=21, payload=payload)


class TestMahalanobisTerm:
    # test_acceptance.py's MAHALANOBIS_CASES hold the hand-computed values
    def test_sign_symmetric(self):
        rng = random.Random(3)
        for _ in range(100):
            mu = rng.uniform(0, 50)
            delta = rng.uniform(0, 20)
            sigma = rng.uniform(0, 5)
            alpha = rng.uniform(0.01, 2)
            low = mahalanobis_term(mu, sigma, mu - delta, alpha)
            high = mahalanobis_term(mu, sigma, mu + delta, alpha)
            assert low == pytest.approx(high, rel=1e-12)

    def test_always_finite_with_positive_alpha(self):
        assert mahalanobis_term(1e12, 0, 0, 1e-6) < float("inf")


class TestAnomalousOccurrences:
    SETTINGS = dict(alpha=0.1, th_s=5.0)

    def test_never_seen_counts_everything(self):
        assert anomalous_occurrences(None, 7, {}, **self.SETTINGS) == (7, 7)

    def test_usual_everywhere_counts_nothing(self):
        stats = NGramStats(mean=2.0, std=0.0, chunks={0: (2.0, 0.0)})
        assert anomalous_occurrences(stats, 2, {0: 2}, **self.SETTINGS) == (0, 0)

    def test_payload_term_fires_for_all_occurrences(self):
        stats = NGramStats(mean=2.0, std=0.0, chunks={0: (2.0, 0.0)})
        # |2 - 6| / 0.1 = 40 > 5
        assert anomalous_occurrences(stats, 6, {0: 6}, **self.SETTINGS) == (6, 6)

    def test_location_shift_signature_case(self):
        # usual in the payload, but the occurrences moved to a chunk where
        # the n-gram was never seen: |0 - 2| / (0 + 0.1) = 20 > 5
        stats = NGramStats(mean=2.0, std=0.0, chunks={0: (2.0, 0.0), 1: (0.0, 0.0)})
        got = anomalous_occurrences(stats, 2, {0: 0, 1: 2}, **self.SETTINGS)
        assert got == (2, 0)

    def test_partial_chunk_anomaly_counts_only_those_occurrences(self):
        stats = NGramStats(mean=3.0, std=0.0, chunks={0: (2.0, 0.0), 1: (1.0, 0.0)})
        # chunk 0 usual (x=2), chunk 2 never seen (x=1): only that occurrence counts
        got = anomalous_occurrences(stats, 3, {0: 2, 2: 1}, **self.SETTINGS)
        assert got == (1, 0)

    def test_th_s_monotonicity(self):
        rng = random.Random(8)
        for _ in range(200):
            chunk_count = rng.randrange(1, 5)
            stats = NGramStats(
                mean=rng.uniform(0, 4),
                std=rng.uniform(0, 2),
                chunks={j: (rng.uniform(0, 2), rng.uniform(0, 1)) for j in range(chunk_count)},
            )
            x_chunks = {j: rng.randrange(0, 4) for j in range(chunk_count)}
            x_chunks = {j: x for j, x in x_chunks.items() if x}
            x_total = sum(x_chunks.values())
            if x_total == 0:
                continue
            previous = None
            for th_s in (0.5, 1, 2, 5, 10, 50):
                a_on, a_off = anomalous_occurrences(stats, x_total, x_chunks, alpha=0.1, th_s=th_s)
                assert a_off <= a_on
                if previous is not None:
                    assert a_on <= previous[0] and a_off <= previous[1]
                previous = a_on, a_off


class TestScorePacket:
    def test_off_port_refusal_names_both_ports(self):
        model = ftp_model([b"USER alice\r\n"])
        record = PacketRecord(id=7, dst_port=80, payload=b"USER bob\r\n")
        with pytest.raises(ValueError, match="^record 7 is for port 80, model is for 21$"):
            score_packet(Scorer(model), record, DetectorConfig(40))
        # train skips the same record: test_model.py's test_featurize_cause[ftp-other-port]

    def test_empty_payload_unclassifiable(self):
        model = ftp_model([b"USER alice\r\n"])
        verdict = score_packet(Scorer(model), ftp_record(b""), DetectorConfig(40))
        assert verdict.kind == "unclassifiable"
        assert verdict.kind not in ALERT_KINDS

    def test_empty_http_payload_unclassifiable(self):
        # the request-line grammar alone would call b"" malformed, which alerts
        records = [PacketRecord(id=0, dst_port=80, payload=b"GET /x HTTP/1.0\r\n")]
        model = train(iter(records), protocol=Protocol.HTTP, chunking=ChunkingConfig(3, 15))
        empty = PacketRecord(id=1, dst_port=80, payload=b"")
        assert score_packet(Scorer(model), empty, DetectorConfig(30)).kind == "unclassifiable"

    def test_payload_shorter_than_n_unclassifiable(self):
        model = ftp_model([b"USER alice\r\n"], n=3)
        verdict = score_packet(Scorer(model), ftp_record(b"a"), DetectorConfig(40))
        assert verdict.kind == "unclassifiable"

    def test_malformed_http_alerts(self):
        records = [PacketRecord(id=0, dst_port=80, payload=b"GET /x HTTP/1.0\r\n")]
        model = train(iter(records), protocol=Protocol.HTTP, chunking=ChunkingConfig(3, 15))
        bad = PacketRecord(id=1, dst_port=80, payload=b"GET ../..")
        verdict = score_packet(Scorer(model), bad, DetectorConfig(30))
        assert verdict.kind == "malformed"
        assert verdict.kind in ALERT_KINDS

    def test_unknown_class_is_no_model_alert(self):
        model = ftp_model([b"USER alice\r\n"])  # one chunk
        long_payload = b"A" * 40  # three chunks at chunk_len=15
        features = featurize(long_payload, Protocol.FTP, 21, model.chunking)
        assert features.key == ClassKey(21, 3)
        assert ClassKey(21, 3) not in model.classes
        verdict = score_packet(Scorer(model), ftp_record(long_payload), DetectorConfig(40))
        assert verdict.kind == "no_model"
        assert verdict.kind in ALERT_KINDS

    def test_alert_threshold_is_strict(self):
        model = ftp_model([b"abcdef"])
        # ab bc cd seen; dz zz never seen: 2 of 5 occurrences => 40.0, not above 40
        at_threshold = score_packet(Scorer(model), ftp_record(b"abcdzz"), DetectorConfig(40))
        assert (at_threshold.kind, at_threshold.score, at_threshold.a_seqs,
                at_threshold.tot_seqs) == ("legit", 40.0, 2, 5)
        above = score_packet(Scorer(model), ftp_record(b"abcdzz"), DetectorConfig(39.9))
        assert above.kind == "anomalous"

    # |mean - x| / (std + alpha) = 1 / 0.5 = 2.0 = th_s exactly: a tie is usual, not anomalous.
    # b"ab" has one window, which judge decides from its sets; b"aaa" repeats its window
    # (x = 2), which judge decides at its count.
    @pytest.mark.parametrize("payload, stats", [
        (b"ab", NGramStats(2.0, 0.0, {0: (1.0, 0.0)})),  # rule 2 ties
        (b"ab", NGramStats(1.0, 0.0, {0: (2.0, 0.0)})),  # only rule 3's chunk deviation ties
        (b"aaa", NGramStats(3.0, 0.0, {0: (2.0, 0.0)})),
        (b"aaa", NGramStats(2.0, 0.0, {0: (3.0, 0.0)})),
    ], ids=["payload-tie", "chunk-tie", "payload-tie-repeated", "chunk-tie-repeated"])
    def test_deviation_equal_to_th_s_is_not_anomalous(self, payload, stats):
        gram, x = payload[:2], len(payload) - 1
        classes = {ClassKey(21, 1): ClassModel(1, {gram: stats})}
        model = TrafficModel(Protocol.FTP, 21, ChunkingConfig(2, 15), 0.5, 2.0, classes)
        assert judge(Scorer(model), payload) == Outcome(None, x, 0, 0)
        assert anomalous_occurrences(stats, x, {0: x}, model.alpha, model.th_s) == (0, 0)

    # an n-gram with no entry for chunk 1 deviates there by x / alpha, here 2.0 = th_s:
    # b"abcd" (x = 1 at alpha 0.5: cd) and b"aaaaa" (x = 2 at alpha 1: aa twice)
    @pytest.mark.parametrize("payload, alpha, stats", [
        (b"abcd", 0.5, {b"ab": NGramStats(1.0, 0.0, {0: (1.0, 0.0)}),
                        b"bc": NGramStats(1.0, 0.0, {0: (1.0, 0.0)}),
                        b"cd": NGramStats(1.0, 0.0, {})}),
        (b"aaaaa", 1.0, {b"aa": NGramStats(4.0, 0.0, {0: (2.0, 0.0)})}),
    ], ids=["once", "repeated"])
    def test_absent_chunk_at_th_s_is_usual(self, payload, alpha, stats):
        # chunk_len 2: windows 0-1 in chunk 0, windows 2-3 in chunk 1
        nck, windows = -(-len(payload) // 2), len(payload) - 1
        classes = {ClassKey(21, nck): ClassModel(1, stats)}
        model = TrafficModel(Protocol.FTP, 21, ChunkingConfig(2, 2), alpha, 2.0, classes)
        assert judge(Scorer(model), payload) == Outcome(None, windows, 0, 0)
        # one float step lower, the occurrences in chunk 1 are anomalous under rule 3 only
        below = Scorer(model, math.nextafter(2.0, 0.0))
        assert judge(below, payload) == Outcome(None, windows, windows - 2, 0)

    def test_all_unseen_scores_exactly_100(self):
        model = ftp_model([b"abcdef"])
        verdict = score_packet(Scorer(model), ftp_record(b"zzzzzz"), DetectorConfig(40))
        assert verdict.kind == "anomalous"
        assert verdict.score == 100.0

    def test_training_payload_scores_zero(self):
        model = ftp_model([b"USER alice\r\n"] * 5)
        verdict = score_packet(Scorer(model), ftp_record(b"USER alice\r\n"), DetectorConfig(40))
        assert verdict.kind == "legit"
        assert verdict.score == 0.0

    def test_score_bounds_on_random_traffic(self):
        model = train(
            iter(gen_legit(GenSpec(Protocol.FTP, 300, seed=17))),
            protocol=Protocol.FTP,
            chunking=ChunkingConfig(3, 15),
        )
        rng = random.Random(18)
        cfg = DetectorConfig(40)
        scorer = Scorer(model)
        for i in range(300):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(3, 60)))
            verdict = score_packet(scorer, ftp_record(payload, i), cfg)
            if verdict.score is not None:
                assert 0.0 <= verdict.score <= 100.0
                assert verdict.a_seqs <= verdict.tot_seqs


class TestHttpLocationShift:
    def test_detected_only_with_chunks(self):
        model = train(
            iter(gen_legit(GenSpec(Protocol.HTTP, 2000, seed=27))),
            protocol=Protocol.HTTP,
            chunking=ChunkingConfig(3, 15),
        )
        packets = gen_legit(GenSpec(Protocol.HTTP, 500, seed=28))
        packets = inject_corpus(packets, AnomalyKind.LOCATION_SHIFT, 20, seed=29)
        on = DetectorConfig(30, chunks_enabled=True)
        off = DetectorConfig(30, chunks_enabled=False)
        hits_on = hits_off = 0
        scorer = Scorer(model)
        for rec in packets:
            if not rec.is_attack:
                continue
            hits_on += (score_packet(scorer, rec, on).kind in ALERT_KINDS)
            hits_off += (score_packet(scorer, rec, off).kind in ALERT_KINDS)
        assert hits_on == 20
        assert hits_off == 0


class TestReferenceScorer:
    @pytest.mark.parametrize("n, chunk_len", [(3, 15), (2, 7)])
    @pytest.mark.parametrize("protocol", [Protocol.FTP, Protocol.HTTP])
    def test_score_packet_matches_reference(self, protocol, n, chunk_len):
        port = protocol.default_port
        test = gen_legit(GenSpec(protocol, 300, seed=33))
        for i, kind in enumerate(AnomalyKind):
            test = inject_corpus(test, kind, 20, seed=34 + i)
        test += [
            PacketRecord(id=len(test), dst_port=port, payload=b""),
            PacketRecord(id=len(test) + 1, dst_port=port,
                         payload=b"GET /" + b"a" * 200 + b" HTTP/1.0\r\n"),
            PacketRecord(id=len(test) + 2, dst_port=port, payload=b"GET ../.."),
        ]
        model = train(
            iter(gen_legit(GenSpec(protocol, 600, seed=32))),
            protocol=protocol,
            chunking=ChunkingConfig(n, chunk_len),
            th_s=3.0,
        )
        # the sweep's path: one judgement serves every cell
        scorer = Scorer(model)
        judged = [judge(scorer, rec.payload) for rec in test]
        for threshold in (0, 40, 100):
            for chunks_enabled in (True, False):
                cfg = DetectorConfig(threshold, chunks_enabled=chunks_enabled)
                kinds = set()
                for rec, outcome in zip(test, judged):
                    want = reference_verdict(model, rec.payload, cfg)
                    for got in (score_packet(scorer, rec, cfg), outcome.verdict(cfg)):
                        assert (got.kind, got.score, got.a_seqs, got.tot_seqs) == want, (rec, cfg)
                    assert outcome.is_alert(cfg) == (got.kind in ALERT_KINDS)
                    kinds.add(got.kind)
                assert "no_model" in kinds and "unclassifiable" in kinds
                if threshold < 100:
                    assert {"legit", "anomalous"} <= kinds


class TestScorer:
    """One Scorer holds all that judge reads, for one model at one th_s."""

    @pytest.mark.parametrize("th_s, message", [
        (0, "th_s must be > 0"),
        (-1, "th_s must be > 0"),
        (math.nan, "th_s must be > 0"),
        (math.inf, "th_s must be > 0"),
        (True, "th_s must be > 0"),
        (5.5, "th_s 5.5 is above the model's th_s 5.0; "
              "retrain the model at th_s 5.5 to judge at it"),
    ], ids=["zero", "negative", "nan", "inf", "bool", "above-model"])
    def test_refused_th_s(self, th_s, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scorer(ftp_model([b"USER alice\r\n"]), th_s)

    @pytest.mark.parametrize("th_s", [None, 5.0, 0.5, 1e-9])
    def test_judges_at_or_below_the_models_th_s(self, th_s):
        model = ftp_model([b"USER alice\r\n"])
        scorer = Scorer(model, th_s)
        assert scorer.th_s == (model.th_s if th_s is None else th_s)
        assert (scorer.protocol, scorer.port, scorer.chunking, scorer.alpha) == \
            (model.protocol, model.port, model.chunking, model.alpha)
        assert scorer.classes.keys() == model.classes.keys()

    def test_lower_th_s_judges_as_the_reference(self):
        """The sets and the repeated n-grams are both judged at the Scorer's th_s."""
        model = train(iter(gen_legit(GenSpec(Protocol.FTP, 400, seed=41))),
                      protocol=Protocol.FTP, chunking=ChunkingConfig(3, 15))
        test = gen_legit(GenSpec(Protocol.FTP, 200, seed=42))
        for i, kind in enumerate(AnomalyKind):
            test = inject_corpus(test, kind, 20, seed=43 + i)

        def judged(th_s):
            """Every verdict as reference_verdict gives it at th_s; the outcomes."""
            scorer = Scorer(model, th_s)
            for cfg in (DetectorConfig(40), DetectorConfig(40, chunks_enabled=False)):
                for rec in test:
                    got = score_packet(scorer, rec, cfg)
                    assert (got.kind, got.score, got.a_seqs, got.tot_seqs) == \
                        reference_verdict(model, rec.payload, cfg, th_s), (th_s, rec, cfg)
            return [judge(scorer, rec.payload) for rec in test]

        def repeats_no_window(payload):
            features = featurize(payload, model.protocol, model.port, model.chunking)
            return not isinstance(features, str) and len(set(features.grams)) == len(features.grams)

        # the lower th_s judges otherwise some payloads that the sets alone decide
        assert any(high != low and repeats_no_window(rec.payload)
                   for rec, high, low in zip(test, judged(model.th_s), judged(1.0)))

    def test_judging_leaves_the_model_as_built(self, monkeypatch):
        """detect_stream, evaluate and sweep write nothing to the model they judge.

        A value cached on the model's instance dict would slow every later
        attribute load on it.
        """
        training = gen_legit(GenSpec(Protocol.FTP, 200, seed=44))
        test = inject_corpus(gen_legit(GenSpec(Protocol.FTP, 100, seed=45)),
                             AnomalyKind.UNSEEN_GRAM, 10, seed=46)
        labels = LabelSet.from_records(test)
        cfg = DetectorConfig(40)
        model = train(iter(training), protocol=Protocol.FTP, chunking=ChunkingConfig(3, 15))
        list(detect_stream(model, test, cfg, DetectionSummary()))
        list(detect_stream(Scorer(model), test, cfg, DetectionSummary()))
        evaluate(Scorer(model), test, labels, cfg)
        swept = []

        def recording_train(*args, **kwargs):
            swept.append(train(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(evaluate_module, "train", recording_train)
        sweep(training, test, labels, GridSpec((3,), (15,), (40.0,)), protocol=Protocol.FTP)
        assert len(swept) == 1
        for judged in (model, *swept):
            assert vars(judged).keys() == {f.name for f in dataclasses.fields(TrafficModel)}


class TestDetectStream:
    def test_empty_corpus(self):
        model = ftp_model([b"USER alice\r\n"])
        summary = DetectionSummary()
        assert list(detect_stream(model, [], DetectorConfig(40), summary)) == []
        assert summary.scored == 0 and summary.alerts == 0

    def test_other_ports_are_skipped(self):
        model = ftp_model([b"USER alice\r\n"])
        records = [
            PacketRecord(id=0, dst_port=80, payload=b"GET / HTTP/1.0\r\n"),
            PacketRecord(id=1, dst_port=21, payload=b"USER alice\r\n"),
            PacketRecord(id=2, dst_port=443, payload=b"x"),
        ]
        summary = DetectionSummary()
        results = list(detect_stream(model, records, DetectorConfig(40), summary))
        assert [rec_id for rec_id, _ in results] == [1]
        assert summary.skipped_other_port == 2
        assert summary.legit == 1

    def test_self_detection_with_generous_threshold(self):
        records = gen_legit(GenSpec(Protocol.FTP, 500, seed=23))
        model = train(iter(records), protocol=Protocol.FTP, chunking=ChunkingConfig(3, 15),
                      th_s=20.0)
        summary = DetectionSummary()
        cfg = DetectorConfig(score_threshold=40.0)
        list(detect_stream(model, records, cfg, summary))
        assert summary.anomalous == 0
        assert summary.alerts == 0

    def test_order_preserved(self):
        model = ftp_model([b"USER alice\r\n"])
        records = [ftp_record(b"USER alice\r\n", i) for i in range(20)]
        stream = detect_stream(model, records, DetectorConfig(40), DetectionSummary())
        ids = [rec_id for rec_id, _ in stream]
        assert ids == list(range(20))


def _compact(record_id, verdict):
    return COMPACT_JSON.encode({
        "id": record_id, "verdict": verdict.kind,
        "score": verdict.score, "a_seqs": verdict.a_seqs, "tot_seqs": verdict.tot_seqs,
    })


_SCORED = [(0.0, 0, 5), (40.0, 2, 5), (100.0, 5, 5), (100 / 3, 1, 3)]


class TestVerdictLine:
    """verdict_line writes the bytes of the compact encoder, whatever the kind."""

    @pytest.mark.parametrize("verdict", [
        *(Verdict(kind) for kind in ("malformed", "no_model", "unclassifiable")),
        *(Verdict(kind, *counts) for kind in ("legit", "anomalous") for counts in _SCORED),
    ], ids=lambda v: f"{v.kind}-{v.score}")
    @pytest.mark.parametrize("record_id", [0, 2**63])
    def test_line_is_compact_json(self, record_id, verdict):
        assert verdict_line(record_id, verdict) == _compact(record_id, verdict)

    @given(
        record_id=st.integers(min_value=0),
        kind=st.sampled_from(["legit", "anomalous"]),
        score=st.floats(0, 100),
        a_seqs=st.integers(0, 10**6),
        tot_seqs=st.integers(1, 10**6),
    )
    def test_any_scored_line_is_compact_json(self, record_id, kind, score, a_seqs, tot_seqs):
        verdict = Verdict(kind, score, a_seqs, tot_seqs)
        assert verdict_line(record_id, verdict) == _compact(record_id, verdict)


class TestDetectorConfig:
    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            DetectorConfig(101)
        with pytest.raises(ValueError):
            DetectorConfig(-1)
        # th_s belongs to the model, which checks its own range
        with pytest.raises(ValueError):
            dataclasses.replace(ftp_model([b"USER alice\r\n"]), th_s=0)

    @pytest.mark.parametrize("th_s", [math.nan, math.inf])
    def test_non_finite_th_s_rejected(self, th_s):
        with pytest.raises(ValueError, match="th_s must be > 0"):
            dataclasses.replace(ftp_model([b"USER alice\r\n"]), th_s=th_s)

    def test_for_model_defaults(self):
        model = ftp_model([b"USER alice\r\n"], th_s=7.5)
        cfg = DetectorConfig.for_model(model)
        assert cfg.score_threshold == 40.0
        assert cfg.chunks_enabled
        override = DetectorConfig.for_model(model, score_threshold=10, chunks_enabled=False)
        assert (override.score_threshold, override.chunks_enabled) == (10, False)
        # the chunk mode is keyword-only here too: a stale positional th_s is refused
        with pytest.raises(TypeError):
            DetectorConfig.for_model(model, 10, 3.0)

    def test_holds_only_the_verdict_settings(self):
        assert [f.name for f in dataclasses.fields(DetectorConfig)] == [
            "score_threshold", "chunks_enabled",
        ]

    def test_stale_positional_call_rejected(self):
        # a stale (score_threshold, th_s) call must not set chunks_enabled to a truthy th_s
        with pytest.raises(TypeError):
            DetectorConfig(0.0, 3.0)

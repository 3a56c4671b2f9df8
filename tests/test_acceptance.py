"""Acceptance gate: one test per release criterion.

Each test wraps its assertions in the `criterion` recorder so the terminal
summary prints one PASS/FAIL/SKIP line per criterion.
"""

import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from pckad import (
    ALERT_KINDS,
    ChunkingConfig,
    DetectorConfig,
    GenSpec,
    GridSpec,
    LabelSet,
    Protocol,
    Scorer,
    TrafficFilter,
    evaluate,
    gen_legit,
    inject_corpus,
    load_model,
    mahalanobis_term,
    read_pcap,
    save_model,
    score_packet,
    sliding_window_oracle,
    sweep,
    train,
)
from pckad.chunking import slice_windows
from pckad.cli import run
from pckad.corpus import attack_instance_of
from pckad.model import featurize
from pckad.synth import AnomalyKind

from helpers import chunk_pairs

GET_LINE = b"GET /people/svalente/gif/poker.dogs.jpg HTTP/1.0\r\n"

TRAIN_SEED = 1001
HELDOUT_SEED = 2002
FTP_DEFAULTS = dict(alpha=0.1, th_s=5.0)


@pytest.fixture(scope="module")
def ftp_train_corpus():
    return gen_legit(GenSpec(Protocol.FTP, 5000, seed=TRAIN_SEED))


@pytest.fixture(scope="module")
def ftp_model(ftp_train_corpus):
    return train(
        iter(ftp_train_corpus),
        protocol=Protocol.FTP,
        chunking=ChunkingConfig(n=3, chunk_len=15),
        **FTP_DEFAULTS,
    )


@pytest.fixture(scope="module")
def ftp_heldout_corpus():
    return gen_legit(GenSpec(Protocol.FTP, 5000, seed=HELDOUT_SEED))


def test_criterion_1_oracle_equivalence(criterion):
    with criterion("1", "oracle equivalence on 1000 randomized (payload, n, chunk_len) triples"):
        rng = random.Random(90125)
        started = time.monotonic()
        for _ in range(1000):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 150)))
            n = rng.randrange(1, 9)
            cfg = ChunkingConfig(n=n, chunk_len=rng.randrange(n, 48))
            # training and judge cut windows as slice_windows and chunk_pairs do;
            # featurize gives the class
            assert Counter(slice_windows(payload, cfg)) == sliding_window_oracle(payload, n)
            assert chunk_pairs(payload, cfg) == Counter(
                (payload[start:start + n], start // cfg.chunk_len)
                for start in range(len(payload) - n + 1)
            )
            features = featurize(payload, Protocol.FTP, cfg)
            if len(payload) < n:
                assert features == "short"
            else:
                assert features[0] == -(-len(payload) // cfg.chunk_len)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_layout_properties(criterion):
    with criterion("2", "ceiling chunk counts, each window in its first byte's chunk, "
                        "worked 50-byte split"):
        # chunks of 15: "GET /people/sva", "lente/gif/poker", ".dogs.jpg HTTP/", "1.0\r\n"
        pairs = chunk_pairs(GET_LINE, ChunkingConfig(3, 15))
        assert featurize(GET_LINE, Protocol.HTTP, ChunkingConfig(3, 15))[0] == 4
        # "val" starts at byte 13 and straddles the first border: it counts in chunk 0
        assert {j: x for (gram, j), x in pairs.items() if gram == b"val"} == {0: 1}
        assert pairs[b"0\r\n", 3] == 1
        rng = random.Random(2)
        for _ in range(500):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
            chunk_len = rng.randrange(1, 40)
            n = rng.randrange(1, chunk_len + 1)
            cfg = ChunkingConfig(n, chunk_len)
            features = featurize(payload, Protocol.FTP, cfg)
            if len(payload) < n:
                assert features == "short"
            else:
                assert features[0] == -(-len(payload) // chunk_len)
            assert chunk_pairs(payload, cfg) == Counter(
                (payload[start:start + n], start // chunk_len)
                for start in range(len(payload) - n + 1)
            )


# (mean, std, count, alpha, expected) with expected worked out by hand
MAHALANOBIS_CASES = [
    (3.0, 12.5, 3.0, 0.1, 0.0),
    (2.0, 0.0, 4.0, 0.1, 20.0),
    (0.0, 0.0, 1.0, 0.1, 10.0),
    (5.0, 0.0, 5.0, 0.1, 0.0),
    (1.0, 0.0, 0.0, 0.1, 10.0),
    (6.0, 0.0, 2.0, 0.1, 40.0),
    (0.0, 0.0, 12.0, 0.1, 120.0),
    (100.0, 0.0, 90.0, 0.1, 100.0),
    (1.5, 0.5, 3.5, 0.5, 2.0),
    (10.0, 1.0, 7.0, 0.5, 2.0),
    (0.0, 0.0, 3.0, 0.5, 6.0),
    (4.0, 2.0, 1.0, 1.0, 1.0),
    (2.0, 3.0, 2.0, 0.25, 0.0),
    (7.0, 0.9, 7.0, 0.1, 0.0),
    (3.0, 1.0, 6.0, 1.0, 1.5),
    (8.0, 1.5, 2.0, 0.5, 3.0),
    (0.5, 0.0, 1.0, 0.5, 1.0),
    (9.0, 0.0, 9.0, 0.25, 0.0),
    (2.5, 0.5, 4.5, 0.5, 2.0),
    (1.0, 0.4, 5.0, 0.1, 8.0),
    (0.0, 0.9, 3.0, 0.1, 3.0),
    (12.0, 2.0, 12.0, 3.0, 0.0),
    (0.0, 0.0, 7.0, 0.25, 28.0),
    (16.0, 3.0, 4.0, 1.0, 3.0),
]


@pytest.mark.parametrize("mean, std, count, alpha, expected", MAHALANOBIS_CASES)
def test_criterion_3_deviation_arithmetic(criterion, mean, std, count, alpha, expected):
    with criterion("3", f"deviation term matches {len(MAHALANOBIS_CASES)} hand-computed cases"):
        assert len(MAHALANOBIS_CASES) >= 20
        got = mahalanobis_term(mean, std, count, alpha)
        assert abs(got - expected) <= 1e-12, (mean, std, count, alpha, got, expected)


def test_criterion_4_chunk_monotonicity(criterion, ftp_model):
    with criterion("4", "chunks-on a_seqs/DR/FPR never below the chunks-off baseline"):
        packets = gen_legit(GenSpec(Protocol.FTP, 500, seed=4004))
        for kind in AnomalyKind:
            packets = inject_corpus(packets, kind, 40, seed=44)
        on = DetectorConfig(score_threshold=40.0, chunks_enabled=True)
        off = DetectorConfig(score_threshold=40.0, chunks_enabled=False)
        compared = 0
        scorer = Scorer(ftp_model)
        for rec in packets:
            v_on = score_packet(scorer, rec, on)
            v_off = score_packet(scorer, rec, off)
            assert v_on.kind in ("legit", "anomalous") and v_off.kind in ("legit", "anomalous")
            assert v_on.a_seqs >= v_off.a_seqs and v_on.score >= v_off.score
            compared += 1
        assert compared >= 500

        train_records = gen_legit(GenSpec(Protocol.FTP, 800, seed=4444))
        test_records = gen_legit(GenSpec(Protocol.FTP, 400, seed=4445))
        for kind in AnomalyKind:
            test_records = inject_corpus(test_records, kind, 20, seed=45)
        labels = LabelSet.from_records(test_records)
        grid = GridSpec(ns=(2, 3), chunk_lens=(7, 15), score_thresholds=(30.0, 40.0))
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)
        by_key = {(r.n, r.chunk_len, r.score_threshold, r.chunks_enabled): r.report for r in rows}
        for (n, chunk_len, threshold, chunks_on), report in by_key.items():
            if not chunks_on:
                continue
            baseline = by_key[(n, chunk_len, threshold, False)]
            assert report.dr >= baseline.dr, (n, chunk_len, threshold)
            assert report.fpr >= baseline.fpr, (n, chunk_len, threshold)


def test_criterion_5_rule_targeting(criterion):
    with criterion(
        "5",
        "unseen 100% with/without chunks; location 0% without chunks, >=90% with chunks",
    ):
        started = time.monotonic()
        model = train(
            iter(gen_legit(GenSpec(Protocol.FTP, 5000, seed=TRAIN_SEED))),
            protocol=Protocol.FTP,
            chunking=ChunkingConfig(n=3, chunk_len=15),
            **FTP_DEFAULTS,
        )
        packets = gen_legit(GenSpec(Protocol.FTP, 5000, seed=HELDOUT_SEED))
        packets = inject_corpus(packets, AnomalyKind.UNSEEN_GRAM, 100, seed=501)
        packets = inject_corpus(packets, AnomalyKind.FREQ_SHIFT, 100, seed=502)
        packets = inject_corpus(packets, AnomalyKind.LOCATION_SHIFT, 100, seed=503)

        rates = {}
        scorer = Scorer(model)
        for chunks_enabled in (True, False):
            cfg = DetectorConfig(score_threshold=40.0, chunks_enabled=chunks_enabled)
            hits = Counter()
            totals = Counter()
            for rec in packets:
                if not rec.is_attack:
                    continue
                kind = attack_instance_of(rec.label).split("-")[0]
                totals[kind] += 1
                hits[kind] += score_packet(scorer, rec, cfg).kind in ALERT_KINDS
            assert sorted(totals.items()) == [("freq", 100), ("location", 100), ("unseen", 100)]
            rates[chunks_enabled] = {
                kind: hits[kind] / totals[kind] * 100.0 for kind in totals
            }
        assert rates[True]["unseen"] == 100.0
        assert rates[False]["unseen"] == 100.0
        assert rates[False]["location"] == 0.0
        assert rates[True]["location"] >= 90.0
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_false_positive_control(criterion, ftp_model, ftp_heldout_corpus):
    with criterion("6", "FPR <= 1% on a held-out in-distribution corpus at protocol defaults"):
        labels = LabelSet(by_id={rec.id: "legit" for rec in ftp_heldout_corpus})
        cfg = DetectorConfig(score_threshold=40.0, chunks_enabled=True)
        report = evaluate(Scorer(ftp_model), ftp_heldout_corpus, labels, cfg)
        assert report.legit_packets > 0
        assert report.fpr is not None and report.fpr <= 1.0, f"FPR {report.fpr}"


def test_criterion_7_determinism_and_persistence(criterion, tmp_path, capsys):
    with criterion("7", "same seed twice: byte-identical model files and alert streams"):
        artifacts = []
        for tag in ("first", "second"):
            base = tmp_path / tag
            base.mkdir()
            legit = str(base / "legit.jsonl")
            test = str(base / "test.jsonl")
            model = str(base / "ftp.model")
            alerts = str(base / "alerts.jsonl")
            assert run(["gen", "--protocol", "ftp", "--count", "1500", "--seed", "77",
                        "--out", legit]) == 0
            assert run(["gen", "--protocol", "ftp", "--count", "500", "--seed", "78",
                        "--inject", "unseen:0.02", "--inject", "freq:0.02",
                        "--inject", "location:0.02", "--out", test]) == 0
            assert run(["train", "--in", legit, "--protocol", "ftp", "--n", "3",
                        "--chunk-len", "15", "--alpha", "0.1", "--th-s", "5",
                        "--out", model]) == 0
            assert run(["detect", "--model", model, "--in", test,
                        "--score-threshold", "40", "--alerts", alerts]) == 3
            artifacts.append({name: Path(p).read_bytes() for name, p in
                              [("legit", legit), ("test", test), ("model", model), ("alerts", alerts)]})
        assert artifacts[0] == artifacts[1]
        # persistence round trip preserves the model exactly
        reloaded = load_model(tmp_path / "first" / "ftp.model")
        resaved = tmp_path / "resaved.model"
        save_model(reloaded, resaved)
        assert resaved.read_bytes() == artifacts[0]["model"]
        capsys.readouterr()


def test_criterion_8_darpa_reproduction(criterion):
    with criterion("8", "DARPA 1999 FTP weeks 1+3 / 4+5 reproduction (conditional)"):
        darpa_dir = os.environ.get("PCKAD_DARPA_DIR")
        if not darpa_dir:
            pytest.skip(
                "set PCKAD_DARPA_DIR to a directory containing train.pcap, test.pcap "
                "and labels.csv built from the DARPA 1999 inside captures"
            )
        base = Path(darpa_dir)
        train_pcap = base / "train.pcap"
        test_pcap = base / "test.pcap"
        labels_csv = base / "labels.csv"
        for required in (train_pcap, test_pcap, labels_csv):
            if not required.exists():
                pytest.skip(f"{required} is missing")
        flt = TrafficFilter(ports=frozenset({21}), dst_prefix=None)
        model = train(
            read_pcap(train_pcap, flt),
            protocol=Protocol.FTP,
            chunking=ChunkingConfig(n=3, chunk_len=15),
            **FTP_DEFAULTS,
        )
        labels = LabelSet.from_csv(labels_csv)
        cfg = DetectorConfig(score_threshold=40.0, chunks_enabled=True)
        report = evaluate(Scorer(model), read_pcap(test_pcap, flt), labels, cfg)
        assert report.dr == 100.0, f"DR {report.dr}"
        assert report.fpr < 1.0, f"FPR {report.fpr}"
        assert abs(report.fpr - 0.588) <= 0.4, f"FPR {report.fpr} outside 0.588 +/- 0.4"

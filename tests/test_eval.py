import csv
import hashlib

import pytest

from pckad import (
    ChunkingConfig,
    DetectorConfig,
    EvaluationError,
    GenSpec,
    GridSpec,
    LabelSet,
    PacketRecord,
    Protocol,
    evaluate,
    gen_legit,
    inject_corpus,
    score_packet,
    sweep,
    train,
    write_sweep_csv,
)
from pckad.synth import AnomalyKind

CFG = DetectorConfig(score_threshold=40.0, th_s=5.0)


def ftp_model(payloads, n=2):
    records = [PacketRecord(id=i, dst_port=21, payload=p) for i, p in enumerate(payloads)]
    return train(iter(records), protocol=Protocol.FTP, chunking=ChunkingConfig(n, 15))


def labeled(recs_and_labels, start_id=0):
    return [
        PacketRecord(id=start_id + i, dst_port=21, payload=p, label=label)
        for i, (p, label) in enumerate(recs_and_labels)
    ]


class TestEvaluate:
    def test_instance_detected_by_any_packet(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([
            (b"USER alice\r\n", "attack:a1"),   # scores 0, no alert
            (b"USER alice\r\n", "attack:a1"),
            (b"\xde\xad\xbe\xef\xde\xad", "attack:a1"),  # all grams unseen
        ])
        report = evaluate(model, corpus, LabelSet.from_records(corpus), CFG)
        assert report.instances_total == 1
        assert report.instances_detected == 1
        assert report.dr == 100.0

    def test_undetected_instance(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "attack:a1")])
        report = evaluate(model, corpus, LabelSet.from_records(corpus), CFG)
        assert report.dr == 0.0

    def test_fpr_is_packet_level(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled(
            [(b"USER alice\r\n", "legit")] * 995 + [(b"\xde\xad\xbe\xef\xde\xad", "legit")] * 5
        )
        report = evaluate(model, corpus, LabelSet.from_records(corpus), CFG)
        assert report.legit_packets == 1000
        assert report.false_alerts == 5
        assert report.fpr == 0.5

    def test_all_legit_no_alerts(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "legit")] * 10)
        report = evaluate(model, corpus, LabelSet.from_records(corpus), CFG)
        assert report.dr is None
        assert report.fpr == 0.0
        assert report.instances_total == 0

    def test_config_echo(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "legit")])
        report = evaluate(model, corpus, LabelSet.from_records(corpus), CFG)
        assert report.config == {
            "n": 2, "chunk_len": 15, "th_s": 5.0,
            "score_threshold": 40.0, "chunks_enabled": True,
        }

    def test_unclassifiable_excluded_from_fpr(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "legit"), (b"x", "legit"), (b"", "legit")])
        report = evaluate(model, corpus, LabelSet.from_records(corpus), CFG)
        assert report.legit_packets == 1
        assert report.unclassifiable == 2
        assert report.fpr == 0.0

    def test_malformed_and_no_model_count_as_detections(self):
        records = [PacketRecord(id=0, dst_port=80, payload=b"GET /x HTTP/1.0\r\n")] * 3
        records = [PacketRecord(id=i, dst_port=80, payload=r.payload) for i, r in enumerate(records)]
        model = train(iter(records), protocol=Protocol.HTTP, chunking=ChunkingConfig(3, 15))
        corpus = [
            PacketRecord(id=0, dst_port=80, payload=b"GET ../..", label="attack:crash"),
            PacketRecord(
                id=1, dst_port=80,
                payload=b"GET /" + b"a" * 200 + b" HTTP/1.0\r\n", label="attack:flood",
            ),
        ]
        report = evaluate(model, corpus, LabelSet.from_records(corpus), DetectorConfig(30))
        assert report.instances_total == 2
        assert report.instances_detected == 2

    def test_missing_label_is_fatal(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = [PacketRecord(id=0, dst_port=21, payload=b"USER alice\r\n")]
        with pytest.raises(EvaluationError, match="no label"):
            evaluate(model, corpus, LabelSet.from_records(corpus), CFG)

    def test_other_port_records_ignored(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "legit")]) + [
            PacketRecord(id=99, dst_port=80, payload=b"GET / HTTP/1.0\r\n")  # unlabeled
        ]
        report = evaluate(model, corpus, LabelSet.from_records(corpus), CFG)
        assert report.legit_packets == 1


class TestLabelSetCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        return path

    def test_valid_file(self, tmp_path):
        labels = LabelSet.from_csv(self.write(tmp_path, "id,label\n0,legit\n1,attack:x1\n"))
        assert labels.by_id == {0: "legit", 1: "attack:x1"}

    def test_bad_header(self, tmp_path):
        with pytest.raises(EvaluationError, match="header"):
            LabelSet.from_csv(self.write(tmp_path, "record,tag\n0,legit\n"))

    def test_bad_label(self, tmp_path):
        with pytest.raises(EvaluationError, match="bad label"):
            LabelSet.from_csv(self.write(tmp_path, "id,label\n0,benign\n"))

    def test_bad_id(self, tmp_path):
        with pytest.raises(EvaluationError, match="bad id"):
            LabelSet.from_csv(self.write(tmp_path, "id,label\nzero,legit\n"))

    def test_duplicate_id(self, tmp_path):
        with pytest.raises(EvaluationError, match="duplicate"):
            LabelSet.from_csv(self.write(tmp_path, "id,label\n0,legit\n0,legit\n"))


@pytest.fixture(scope="module")
def sweep_setup():
    train_records = gen_legit(GenSpec(Protocol.FTP, 800, seed=100))
    test_records = gen_legit(GenSpec(Protocol.FTP, 400, seed=101))
    for kind in AnomalyKind:
        test_records = inject_corpus(test_records, kind, 20, seed=hash(kind.value) % 2**32)
    labels = LabelSet.from_records(test_records)
    return train_records, test_records, labels


class TestSweep:
    def test_row_grid_order_and_count(self, sweep_setup):
        train_records, test_records, labels = sweep_setup
        grid = GridSpec(ns=(2, 3), chunk_lens=(7, 15), score_thresholds=(30.0, 40.0))
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)
        assert len(rows) == 2 * 2 * 2 * 2
        assert [(r.n, r.chunk_len, r.score_threshold, r.chunks_enabled) for r in rows[:4]] == [
            (2, 7, 30.0, True), (2, 7, 30.0, False), (2, 7, 40.0, True), (2, 7, 40.0, False),
        ]
        assert all(r.report is not None for r in rows)

    def test_chunk_monotonicity_per_paired_row(self, sweep_setup):
        train_records, test_records, labels = sweep_setup
        grid = GridSpec(ns=(3,), chunk_lens=(7, 15), score_thresholds=(30.0, 40.0))
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)
        by_key = {(r.n, r.chunk_len, r.score_threshold, r.chunks_enabled): r.report for r in rows}
        for (n, ck, thr, on), report in by_key.items():
            if not on:
                continue
            baseline = by_key[(n, ck, thr, False)]
            assert report.dr >= baseline.dr
            assert report.fpr >= baseline.fpr

    def test_five_chunk_lengths_two_modes_is_ten_rows(self, sweep_setup):
        train_records, test_records, labels = sweep_setup
        grid = GridSpec(ns=(3,), chunk_lens=(7, 15, 20, 25, 39), score_thresholds=(40.0,))
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)
        assert len(rows) == 10
        assert all(r.report is not None for r in rows)

    def test_threshold_monotonicity(self, sweep_setup):
        train_records, test_records, labels = sweep_setup
        grid = GridSpec(
            ns=(3,), chunk_lens=(15,), score_thresholds=(20.0, 40.0, 60.0), chunk_modes=(True,)
        )
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)
        drs = [r.report.dr for r in rows]
        fprs = [r.report.fpr for r in rows]
        assert drs == sorted(drs, reverse=True)
        assert fprs == sorted(fprs, reverse=True)

    def test_invalid_cell_becomes_warning_row(self, sweep_setup, tmp_path, capsys):
        train_records, test_records, labels = sweep_setup
        grid = GridSpec(ns=(8,), chunk_lens=(7,), score_thresholds=(40.0,))
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)
        assert all(r.report is None for r in rows)
        assert "invalid cell" in capsys.readouterr().err
        path = tmp_path / "report.csv"
        write_sweep_csv(rows, path)
        data = list(csv.reader(path.open()))
        assert data[1][0] == "8"
        assert data[1][5] == "" and data[1][6] == ""

    def test_empty_grid_writes_header_only(self, tmp_path):
        path = tmp_path / "report.csv"
        write_sweep_csv([], path)
        data = list(csv.reader(path.open()))
        assert data == [[
            "n", "len_ck", "th_s", "score_threshold", "chunks", "dr", "fpr",
            "instances", "detected", "legit_packets", "false_alerts", "unclassifiable",
        ]]

    def test_csv_round_trip_values(self, sweep_setup, tmp_path):
        train_records, test_records, labels = sweep_setup
        grid = GridSpec(ns=(3,), chunk_lens=(15,), score_thresholds=(40.0,), chunk_modes=(True,))
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)
        path = tmp_path / "report.csv"
        write_sweep_csv(rows, path)
        data = list(csv.reader(path.open()))
        assert len(data) == 2
        header, row = data
        record = dict(zip(header, row))
        assert record["chunks"] == "on"
        assert float(record["dr"]) == rows[0].report.dr
        assert float(record["fpr"]) == rows[0].report.fpr
        assert int(record["instances"]) == 60


# sha256 of the CSV written for GOLDEN_GRID over golden_setup, pinned from the
# implementation that re-scored the test corpus with `evaluate` for every cell
GOLDEN_CSV_SHA256 = "411c4d5b3d7a067cb972596eabe1d6d3b8add2d0cef4e782dc3fc9d41eed9899"
# n=8 > chunk_len=7 is an invalid cell; thresholds 0 and 100 are the extremes
GOLDEN_GRID = GridSpec(ns=(1, 3, 8), chunk_lens=(7, 15), score_thresholds=(0.0, 40.0, 100.0))
# below the default 5.0, so that legit packets of a small training set raise false alerts
GOLDEN_TH_S = 2.0


@pytest.fixture(scope="module")
def golden_setup():
    train_records = gen_legit(GenSpec(Protocol.FTP, 120, seed=200))
    test_records = gen_legit(GenSpec(Protocol.FTP, 150, seed=201))
    for i, kind in enumerate(AnomalyKind):
        test_records = inject_corpus(test_records, kind, 8, seed=210 + i)
    extras = [
        (21, b"", "legit"),                  # empty: unclassifiable
        (21, b"Q", "legit"),                 # shorter than n=3, not than n=1
        (21, b"", "attack:blank"),           # attack instance with no classifiable packet
        (21, b"\xfe\xed" * 60, "attack:long"),  # chunk count never seen in training
        (21, b"USER anonymous\r\n", "attack:long"),
        (80, b"GET / HTTP/1.0\r\n", None),   # other port, unlabeled: ignored
    ]
    test_records += [
        PacketRecord(id=len(test_records) + i, dst_port=port, payload=payload, label=label)
        for i, (port, payload, label) in enumerate(extras)
    ]
    return train_records, test_records, LabelSet.from_records(test_records)


def fold_verdicts(verdicts_and_labels):
    """Test-local DR/FPR fold of score_packet verdicts, per the README's semantics."""
    detected, legit, false_alerts, unclassifiable = {}, 0, 0, 0
    for verdict, label in verdicts_and_labels:
        if label.startswith("attack:"):
            detected[label] = detected.get(label, False) or verdict.is_alert
        elif verdict.kind == "unclassifiable":
            unclassifiable += 1
        else:
            legit += 1
            false_alerts += verdict.is_alert
    return {
        "dr": sum(detected.values()) / len(detected) * 100.0 if detected else None,
        "fpr": false_alerts / legit * 100.0 if legit else None,
        "instances_total": len(detected),
        "instances_detected": sum(detected.values()),
        "legit_packets": legit,
        "false_alerts": false_alerts,
        "unclassifiable": unclassifiable,
    }


class TestSweepGolden:
    def test_csv_bytes_are_pinned(self, golden_setup, tmp_path):
        rows = sweep(*golden_setup, GOLDEN_GRID, protocol=Protocol.FTP, th_s=GOLDEN_TH_S)
        path = tmp_path / "report.csv"
        write_sweep_csv(rows, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256

    def test_every_row_is_a_fold_of_score_packet_verdicts(self, golden_setup):
        train_records, test_records, labels = golden_setup
        rows = sweep(train_records, test_records, labels, GOLDEN_GRID, protocol=Protocol.FTP,
                     th_s=GOLDEN_TH_S)
        assert len(rows) == 3 * 2 * 3 * 2
        models = {}
        for row in rows:
            if row.n > row.chunk_len:
                assert row.report is None
                continue
            key = (row.n, row.chunk_len)
            if key not in models:
                models[key] = train(iter(train_records), protocol=Protocol.FTP,
                                    chunking=ChunkingConfig(*key), th_s=GOLDEN_TH_S)
            cfg = DetectorConfig(row.score_threshold, row.th_s, row.chunks_enabled)
            want = fold_verdicts(
                (score_packet(models[key], rec, cfg), labels.by_id[rec.id])
                for rec in test_records if rec.dst_port == 21
            )
            got = {name: getattr(row.report, name) for name in want}
            assert got == want, row

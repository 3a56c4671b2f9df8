import csv
import dataclasses
import hashlib
import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pckad import (
    ChunkingConfig,
    DetectorConfig,
    EvalReport,
    EvaluationError,
    GenSpec,
    GridSpec,
    LabelSet,
    PacketRecord,
    Protocol,
    Scorer,
    evaluate,
    gen_legit,
    inject_corpus,
    score_packet,
    sweep,
    train,
    write_sweep_csv,
)
from pckad.synth import AnomalyKind

from helpers import counting, fold_verdicts, ftp_model, reference_report

CFG = DetectorConfig(score_threshold=40.0)
# the package's `evaluate` attribute is the function of that name
evaluate_module = importlib.import_module("pckad.evaluate")


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
        report = evaluate(Scorer(model), corpus, LabelSet.from_records(corpus), CFG)
        assert report.instances_total == 1
        assert report.instances_detected == 1
        assert report.dr == 100.0

    def test_undetected_instance(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "attack:a1")])
        report = evaluate(Scorer(model), corpus, LabelSet.from_records(corpus), CFG)
        assert report.dr == 0.0

    def test_scores_at_the_models_th_s(self):
        # a library DetectorConfig and the CLI's for_model path judge at the same th_s
        model = train(iter(gen_legit(GenSpec(Protocol.FTP, 300, seed=1))),
                      protocol=Protocol.FTP, chunking=ChunkingConfig(3, 15), th_s=1.0)
        test = inject_corpus(gen_legit(GenSpec(Protocol.FTP, 300, seed=2)),
                             AnomalyKind.FREQ_SHIFT, 30, seed=3)
        labels = LabelSet.from_records(test)
        direct = evaluate(Scorer(model), test, labels, DetectorConfig(40))
        assert direct == evaluate(Scorer(model), test, labels, DetectorConfig.for_model(model, 40))
        assert direct.fpr > 50

    def test_fpr_is_packet_level(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled(
            [(b"USER alice\r\n", "legit")] * 995 + [(b"\xde\xad\xbe\xef\xde\xad", "legit")] * 5
        )
        report = evaluate(Scorer(model), corpus, LabelSet.from_records(corpus), CFG)
        assert report.legit_packets == 1000
        assert report.false_alerts == 5
        assert report.fpr == 0.5

    def test_all_legit_no_alerts(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "legit")] * 10)
        report = evaluate(Scorer(model), corpus, LabelSet.from_records(corpus), CFG)
        assert report.dr is None
        assert report.fpr == 0.0
        assert report.instances_total == 0

    def test_unclassifiable_excluded_from_fpr(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "legit"), (b"x", "legit"), (b"", "legit")])
        report = evaluate(Scorer(model), corpus, LabelSet.from_records(corpus), CFG)
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
        report = evaluate(Scorer(model), corpus, LabelSet.from_records(corpus), DetectorConfig(30))
        assert report.instances_total == 2
        assert report.instances_detected == 2

    def test_missing_label_is_fatal(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = [PacketRecord(id=0, dst_port=21, payload=b"USER alice\r\n")]
        with pytest.raises(EvaluationError, match="no label"):
            evaluate(Scorer(model), corpus, LabelSet.from_records(corpus), CFG)

    def test_other_port_records_ignored(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        corpus = labeled([(b"USER alice\r\n", "legit")]) + [
            PacketRecord(id=99, dst_port=80, payload=b"GET / HTTP/1.0\r\n")  # unlabeled
        ]
        report = evaluate(Scorer(model), corpus, LabelSet.from_records(corpus), CFG)
        assert report.legit_packets == 1


def judged_by_cell(judged):
    """(n, chunk_len) -> the payloads judged for it, in order, from a spy's (scorer, payload) calls."""
    cells = {}
    for scorer, payload in judged:
        cells.setdefault((scorer.chunking.n, scorer.chunking.chunk_len), []).append(payload)
    return cells


# the hypothesis corpus's pool: usual, unseen, empty (unclassifiable), short and no-model payloads
_PAYLOADS = [b"USER alice\r\n", b"\xde\xad\xbe\xef\xde\xad", b"", b"x",
             b"RETR " + b"z" * 40 + b"\r\n"]
_LABELS = ["legit", "attack:a1", "attack:a2"]
_SCORER = Scorer(ftp_model([b"USER alice\r\n", b"USER bob\r\n"] * 2))


class TestGroups:
    """evaluate and sweep judge each distinct (instance, payload) group once and weight it by
    its packets; every report equals the per-record fold."""

    def test_groups_are_weighted_by_their_packets(self):
        model = ftp_model([b"USER alice\r\n"] * 4)
        usual, unseen = b"USER alice\r\n", b"\xde\xad\xbe\xef\xde\xad"
        corpus = labeled(
            [(usual, "legit")] * 5 + [(unseen, "legit")] * 3
            + [(b"", "legit")] * 4 + [(b"x", "legit")] * 2
            # one of a1's five packets alerts, and it repeats; none of a2's does
            + [(usual, "attack:a1"), (usual, "attack:a1"), (unseen, "attack:a1"),
               (usual, "attack:a1"), (unseen, "attack:a1")]
            + [(usual, "attack:a2")] * 3
            + [(usual, "legit")] * 2
        )
        scorer = Scorer(model)
        report = evaluate(scorer, corpus, LabelSet.from_records(corpus), CFG)
        assert report == reference_report(scorer, corpus, CFG)
        assert report == EvalReport(dr=50.0, fpr=30.0, instances_total=2, instances_detected=1,
                                    legit_packets=10, false_alerts=3, unclassifiable=6)

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(_LABELS), st.booleans()),
                          max_size=40),
           threshold=st.sampled_from([0.0, 40.0, 100.0]), chunks_enabled=st.booleans())
    def test_evaluate_equals_the_per_record_fold(self, picks, threshold, chunks_enabled):
        # any mix of repeats, labels and off-port records, in any order
        corpus = [PacketRecord(id=i, dst_port=21 if on_port else 80, payload=_PAYLOADS[p],
                               label=label)
                  for i, (p, label, on_port) in enumerate(picks)]
        cfg = DetectorConfig(threshold, chunks_enabled=chunks_enabled)
        report = evaluate(_SCORER, corpus, LabelSet.from_records(corpus), cfg)
        assert report == reference_report(_SCORER, corpus, cfg)

    def test_sweep_without_on_port_records(self, sweep_setup):
        train_records, _, _ = sweep_setup
        test_records = [PacketRecord(id=0, dst_port=80, payload=b"GET / HTTP/1.0\r\n")]
        grid = GridSpec(ns=(3,), chunk_lens=(15,), score_thresholds=(40.0,))
        rows = sweep(train_records, test_records, LabelSet({}), grid, protocol=Protocol.FTP)
        assert [row.report for row in rows] == [EvalReport(None, None, 0, 0, 0, 0, 0)] * 2

    def test_evaluate_judges_each_distinct_payload_once(self, sweep_setup, monkeypatch):
        train_records, test_records, labels = sweep_setup
        scorer = Scorer(train(iter(train_records), protocol=Protocol.FTP,
                              chunking=ChunkingConfig(3, 15)))
        judged = counting(monkeypatch, evaluate_module, "judge")
        # records may come from a one-pass iterator, as a capture's do
        report = evaluate(scorer, iter(test_records), labels, CFG)

        on_port = [rec.payload for rec in test_records if rec.dst_port == scorer.port]
        assert len(set(on_port)) < len(on_port)
        # in first-seen order, so no set order reaches the judging
        assert judged_by_cell(judged) == {(3, 15): list(dict.fromkeys(on_port))}
        assert report == reference_report(scorer, test_records, CFG)

    def test_sweep_judges_each_distinct_payload_once_per_cell(self, sweep_setup, monkeypatch):
        train_records, test_records, labels = sweep_setup
        # n=8 > chunk_len=7 is skipped: it trains and judges nothing
        grid = GridSpec(ns=(2, 8), chunk_lens=(7, 15), score_thresholds=(30.0, 40.0))
        judged = counting(monkeypatch, evaluate_module, "judge")
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)

        distinct = list(dict.fromkeys(rec.payload for rec in test_records if rec.dst_port == 21))
        assert judged_by_cell(judged) == {cell: distinct for cell in [(2, 7), (2, 15), (8, 15)]}
        assert len(rows) == 4 * 2 * 2
        assert sum(row.report is None for row in rows) == 2 * 2

    # with n=8 first, the label is read at the second (n, chunk_len), the first that judges
    @pytest.mark.parametrize("ns", [(3,), (8, 3)])
    def test_sweep_missing_label_is_fatal(self, sweep_setup, ns):
        train_records, test_records, labels = sweep_setup
        unlabeled = PacketRecord(id=len(test_records), dst_port=21, payload=b"NOOP\r\n")
        grid = GridSpec(ns=ns, chunk_lens=(7,), score_thresholds=(40.0,))
        with pytest.raises(EvaluationError,
                           match=rf"^record {unlabeled.id} on port 21 has no label$"):
            sweep(train_records, [*test_records, unlabeled], labels, grid, protocol=Protocol.FTP)

    def test_grid_of_skipped_cells_reads_no_label(self, sweep_setup, capsys):
        train_records, test_records, _ = sweep_setup
        grid = GridSpec(ns=(8,), chunk_lens=(7,), score_thresholds=(40.0,))
        # no record has a label, and no cell judges, so none is asked for
        rows = sweep(train_records, test_records, LabelSet({}), grid, protocol=Protocol.FTP)
        assert [row.report for row in rows] == [None, None]
        assert "invalid cell n=8 chunk_len=7" in capsys.readouterr().err


class TestLabelSetCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text, encoding="utf-8")
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

    @pytest.mark.parametrize("rec_id", ["zero", "1_0", "\u0663", " +4 ", "-1"])
    def test_bad_id(self, tmp_path, rec_id):
        with pytest.raises(EvaluationError, match="bad id"):
            LabelSet.from_csv(self.write(tmp_path, f"id,label\n{rec_id},legit\n"))

    def test_duplicate_id(self, tmp_path):
        with pytest.raises(EvaluationError, match="duplicate"):
            LabelSet.from_csv(self.write(tmp_path, "id,label\n0,legit\n0,legit\n"))

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"id,label\n0,legit\xff\n")
        with pytest.raises(EvaluationError, match=r"labels\.csv: invalid UTF-8"):
            LabelSet.from_csv(path)

    def test_field_over_csv_limit(self, tmp_path):
        path = self.write(tmp_path, "id,label\n0," + "a" * 200_000 + "\n")
        with pytest.raises(EvaluationError, match=r"labels\.csv: line 2: field larger than"):
            LabelSet.from_csv(path)

    def test_row_error_names_the_file_line(self, tmp_path):
        # the header is line 1, so the second data row is line 3
        path = self.write(tmp_path, "id,label\n0,legit\nzz,legit\n")
        with pytest.raises(EvaluationError, match=r"labels\.csv: line 3: bad id 'zz'"):
            LabelSet.from_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\n0,legit\n1,attack:x1\n", encoding="utf-8-sig")
        assert LabelSet.from_csv(path).by_id == {0: "legit", 1: "attack:x1"}


# well-formed rows, near misses and raw bytes, so that parsing gets past the header
_CSV_PIECES = st.one_of(
    st.sampled_from([b"id,label\n", b"0,legit\n", b"1,attack:x\n", b"2,legit\r\n", b",",
                     b'"', b'"a""b"', b"\n", b"\r", b"\x00", b"\xff", b"-7", b"attack:"]),
    st.binary(max_size=12),
)


@settings(max_examples=200)
@given(pieces=st.lists(_CSV_PIECES, max_size=12), header=st.booleans())
def test_label_csv_bytes_raise_only_evaluation_error(tmp_path_factory, pieces, header):
    path = tmp_path_factory.getbasetemp() / "fuzz-labels.csv"
    path.write_bytes((b"id,label\n" if header else b"") + b"".join(pieces))
    try:
        labels = LabelSet.from_csv(path)
    except EvaluationError:
        return
    assert all(isinstance(k, int) and isinstance(v, str) for k, v in labels.by_id.items())


def with_off_port_records(records):
    """records with a port-2121 copy after every 7th one, and first a legit port-2121 payload
    that no other record has; renumbered in order, each copy keeping its label."""
    mixed = [PacketRecord(0, 2121, b"SITE off-port only\r\n", "legit")]
    for i, rec in enumerate(records):
        mixed.append(rec)
        if i % 7 == 0:
            mixed.append(dataclasses.replace(rec, dst_port=2121))
    return [dataclasses.replace(rec, id=i) for i, rec in enumerate(mixed)]


@pytest.fixture(scope="module")
def sweep_setup():
    """FTP train and test corpora, with off-port records that sweep and evaluate must set aside."""
    train_records = gen_legit(GenSpec(Protocol.FTP, 800, seed=100))
    test_records = gen_legit(GenSpec(Protocol.FTP, 400, seed=101))
    for i, kind in enumerate(AnomalyKind):
        test_records = inject_corpus(test_records, kind, 20, seed=102 + i)
    test_records = with_off_port_records(test_records)
    labels = LabelSet.from_records(test_records)
    return with_off_port_records(train_records), test_records, labels


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

    def test_off_port_records_change_no_row(self, sweep_setup):
        train_records, test_records, labels = sweep_setup
        on_port = [[rec for rec in records if rec.dst_port == 21]
                   for records in (train_records, test_records)]
        assert all(len(kept) < len(records)
                   for kept, records in zip(on_port, (train_records, test_records)))
        grid = GridSpec(ns=(2, 3), chunk_lens=(7, 15), score_thresholds=(30.0, 40.0))
        assert sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP) == \
            sweep(*on_port, labels, grid, protocol=Protocol.FTP)

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

    def test_chunks_off_only_grid_matches_both_mode_grid(self, sweep_setup):
        # a chunks=off grid reads the rules 1-2 sum of the same judgement as a both-mode grid
        train_records, test_records, labels = sweep_setup
        axes = dict(ns=(2, 3), chunk_lens=(7, 15), score_thresholds=(0.0, 30.0, 40.0))
        off = sweep(train_records, test_records, labels,
                    GridSpec(**axes, chunk_modes=(False,)), protocol=Protocol.FTP)
        both = sweep(train_records, test_records, labels,
                     GridSpec(**axes, chunk_modes=(True, False)), protocol=Protocol.FTP)
        assert len(off) == 2 * 2 * 3
        assert off == [row for row in both if not row.chunks_enabled]

    def test_invalid_cell_becomes_warning_row(self, sweep_setup, tmp_path, capsys):
        train_records, test_records, labels = sweep_setup
        grid = GridSpec(ns=(8,), chunk_lens=(7,), score_thresholds=(40.0,))
        rows = sweep(train_records, test_records, labels, grid, protocol=Protocol.FTP)
        assert all(r.report is None for r in rows)
        assert "invalid cell" in capsys.readouterr().err
        path = tmp_path / "report.csv"
        write_sweep_csv(rows, path)
        data = list(csv.reader(path.read_text().splitlines()))
        assert data[1][0] == "8"
        assert data[1][5] == "" and data[1][6] == ""

    @pytest.mark.parametrize("setting", ["alpha", "th_s"])
    def test_bad_setting_rejected_before_the_first_cell(self, sweep_setup, setting):
        # every cell is invalid, so no model is trained that could check the setting
        grid = GridSpec(ns=(5,), chunk_lens=(3,), score_thresholds=(40.0,))
        with pytest.raises(ValueError, match=f"{setting} must be > 0"):
            sweep(*sweep_setup, grid, protocol=Protocol.FTP, **{setting: math.nan})

    @pytest.mark.parametrize("axes", [
        dict(ns=(3, 3), chunk_lens=(15,), score_thresholds=(40.0,)),
        dict(ns=(3,), chunk_lens=(15, 7, 15), score_thresholds=(40.0,)),
        dict(ns=(3,), chunk_lens=(15,), score_thresholds=(40, 40.0)),
        dict(ns=(3,), chunk_lens=(15,), score_thresholds=(40.0,), chunk_modes=(True, True)),
    ], ids=["n", "chunk_len", "score", "chunks"])
    def test_repeated_axis_value_is_refused(self, axes):
        # a repeated value would only repeat rows
        with pytest.raises(ValueError, match="repeats a value"):
            GridSpec(**axes)

    @pytest.mark.parametrize("axes, message", [
        (dict(ns=(True,), chunk_lens=(15,), score_thresholds=(40.0,)), "n must be >= 1"),
        (dict(ns=(1,), chunk_lens=(True,), score_thresholds=(40.0,)), "chunk_len must be >= 1"),
        (dict(ns=(3,), chunk_lens=(15,), score_thresholds=(True,)),
         r"score_threshold must be within \[0, 100\]"),
    ], ids=["n", "chunk_len", "score"])
    def test_bool_axis_value_is_refused(self, axes, message):
        # a bool would reach the sweep's rows, and the CSV would read True
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridSpec(**axes)

    def test_empty_grid_writes_header_only(self, tmp_path):
        path = tmp_path / "report.csv"
        write_sweep_csv([], path)
        data = list(csv.reader(path.read_text().splitlines()))
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
        data = list(csv.reader(path.read_text().splitlines()))
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
                models[key] = Scorer(train(iter(train_records), protocol=Protocol.FTP,
                                           chunking=ChunkingConfig(*key), th_s=GOLDEN_TH_S))
            cfg = DetectorConfig(row.score_threshold, chunks_enabled=row.chunks_enabled)
            want = fold_verdicts(
                (score_packet(models[key], rec, cfg), labels.by_id[rec.id])
                for rec in test_records if rec.dst_port == 21
            )
            got = {name: getattr(row.report, name) for name in want}
            assert got == want, row

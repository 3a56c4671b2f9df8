import json

import pytest

from pckad import read_jsonl
from pckad.cli import run

from helpers import pcap_bytes, tcp_frame


@pytest.fixture
def paths(tmp_path):
    class Paths:
        legit = str(tmp_path / "legit.jsonl")
        test = str(tmp_path / "test.jsonl")
        model = str(tmp_path / "ftp.model")
        alerts = str(tmp_path / "alerts.jsonl")
        report = str(tmp_path / "report.csv")

    return Paths


def gen_and_train(paths, count=600, seed=7):
    assert run(["gen", "--protocol", "ftp", "--count", str(count), "--seed", str(seed),
                "--out", paths.legit]) == 0
    assert run(["train", "--in", paths.legit, "--protocol", "ftp", "--n", "3",
                "--chunk-len", "15", "--alpha", "0.1", "--th-s", "5",
                "--out", paths.model]) == 0


class TestExitCodes:
    def test_happy_path_train(self, paths, capsys):
        gen_and_train(paths)
        out = capsys.readouterr().out
        assert "trained on 600/600" in out

    def test_detect_exits_three_on_alerts(self, paths):
        gen_and_train(paths)
        assert run(["gen", "--protocol", "ftp", "--count", "200", "--seed", "8",
                    "--inject", "unseen:0.1", "--out", paths.test]) == 0
        code = run(["detect", "--model", paths.model, "--in", paths.test,
                    "--score-threshold", "40", "--alerts", paths.alerts])
        assert code == 3

    def test_detect_exits_zero_without_alerts(self, paths):
        gen_and_train(paths)
        assert run(["gen", "--protocol", "ftp", "--count", "200", "--seed", "8",
                    "--out", paths.test]) == 0
        code = run(["detect", "--model", paths.model, "--in", paths.test,
                    "--alerts", paths.alerts])
        assert code == 0

    def test_config_invariant_is_usage_error(self, paths, capsys):
        assert run(["train", "--in", paths.legit, "--protocol", "ftp",
                    "--n", "20", "--chunk-len", "15", "--out", paths.model]) == 2
        assert "n must be <= chunk_len" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_missing_input_file_is_runtime_error(self, paths, capsys):
        assert run(["train", "--in", paths.legit, "--protocol", "ftp",
                    "--out", paths.model]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pckad: ")
        assert "Traceback" not in err

    def test_invalid_utf8_corpus_is_runtime_error(self, tmp_path, paths, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_bytes(b'{"port":21,"payload_hex":"55534552"}\n\xff\xfe\n')
        assert run(["train", "--in", str(corpus), "--protocol", "ftp",
                    "--out", paths.model]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pckad: ") and "line 1: invalid UTF-8" in err
        assert "Traceback" not in err

    def test_unsupported_extension_is_usage_error(self, tmp_path, paths):
        bad = tmp_path / "corpus.txt"
        bad.write_text("")
        assert run(["train", "--in", str(bad), "--protocol", "ftp",
                    "--out", paths.model]) == 2

    def test_bad_inject_spec_is_usage_error(self, paths):
        assert run(["gen", "--protocol", "ftp", "--count", "10",
                    "--inject", "weird:0.5", "--out", paths.legit]) == 2
        assert run(["gen", "--protocol", "ftp", "--count", "10",
                    "--inject", "unseen:1.5", "--out", paths.legit]) == 2

    def test_detector_flags_validated_before_io(self, paths):
        # the model file does not even exist: flag validation must fire first
        assert run(["detect", "--model", paths.model, "--in", paths.test,
                    "--score-threshold", "130"]) == 2
        assert run(["detect", "--model", paths.model, "--in", paths.test,
                    "--th-s", "0"]) == 2
        assert run(["eval", "--model", paths.model, "--in", paths.test,
                    "--score-threshold", "-3"]) == 2

    def test_port_override(self, tmp_path, capsys):
        from pckad import PacketRecord, write_jsonl

        corpus = str(tmp_path / "alt.jsonl")
        write_jsonl(
            [PacketRecord(id=i, dst_port=2121, payload=b"USER alice\r\n") for i in range(5)],
            corpus,
        )
        model = str(tmp_path / "alt.model")
        assert run(["train", "--in", corpus, "--protocol", "ftp", "--port", "2121",
                    "--out", model]) == 0
        assert "trained on 5/5" in capsys.readouterr().out
        assert run(["detect", "--model", model, "--in", corpus,
                    "--alerts", str(tmp_path / "a.jsonl")]) == 0
        assert run(["train", "--in", corpus, "--protocol", "ftp", "--port", "99999",
                    "--out", model]) == 2

    def test_attack_labels_fatal_unless_ignored(self, paths):
        assert run(["gen", "--protocol", "ftp", "--count", "100", "--seed", "3",
                    "--inject", "unseen:0.05", "--out", paths.legit]) == 0
        assert run(["train", "--in", paths.legit, "--protocol", "ftp",
                    "--out", paths.model]) == 1
        assert run(["train", "--in", paths.legit, "--protocol", "ftp",
                    "--ignore-labels", "--out", paths.model]) == 0


class TestDetectOutput:
    def test_one_line_per_on_port_record(self, paths):
        gen_and_train(paths, count=300)
        assert run(["gen", "--protocol", "ftp", "--count", "50", "--seed", "9",
                    "--out", paths.test]) == 0
        run(["detect", "--model", paths.model, "--in", paths.test, "--alerts", paths.alerts])
        lines = [json.loads(line) for line in open(paths.alerts)]
        assert len(lines) == 50
        assert {line["verdict"] for line in lines} <= {
            "legit", "anomalous", "malformed", "no_model", "unclassifiable"
        }
        assert [line["id"] for line in lines] == list(range(50))

    def test_stdout_when_no_alerts_file(self, paths, capsys):
        gen_and_train(paths, count=300)
        assert run(["gen", "--protocol", "ftp", "--count", "5", "--seed", "9",
                    "--out", paths.test]) == 0
        run(["detect", "--model", paths.model, "--in", paths.test])
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines() if line.startswith("{")]) == 5


class TestReproducibility:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            legit = str(tmp_path / f"legit-{tag}.jsonl")
            test = str(tmp_path / f"test-{tag}.jsonl")
            model = str(tmp_path / f"model-{tag}.json")
            alerts = str(tmp_path / f"alerts-{tag}.jsonl")
            assert run(["gen", "--protocol", "ftp", "--count", "400", "--seed", "11",
                        "--out", legit]) == 0
            assert run(["gen", "--protocol", "ftp", "--count", "100", "--seed", "12",
                        "--inject", "unseen:0.1", "--inject", "location:0.1",
                        "--out", test]) == 0
            assert run(["train", "--in", legit, "--protocol", "ftp", "--out", model]) == 0
            run(["detect", "--model", model, "--in", test, "--alerts", alerts])
            outputs.append(tuple(open(p, "rb").read() for p in (legit, test, model, alerts)))
        assert outputs[0] == outputs[1]


class TestEvalCommand:
    def test_eval_prints_report(self, paths, capsys):
        gen_and_train(paths)
        assert run(["gen", "--protocol", "ftp", "--count", "200", "--seed", "13",
                    "--inject", "unseen:0.05", "--out", paths.test]) == 0
        assert run(["eval", "--model", paths.model, "--in", paths.test]) == 0
        out = capsys.readouterr().out
        assert "detection rate: 100.000% (10/10 instances)" in out
        assert "false-positive rate: 0.000%" in out

    def test_eval_with_sidecar_labels(self, paths, tmp_path, capsys):
        gen_and_train(paths)
        assert run(["gen", "--protocol", "ftp", "--count", "50", "--seed", "14",
                    "--out", paths.test]) == 0
        records = list(read_jsonl(paths.test))
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n" + "\n".join(f"{r.id},legit" for r in records) + "\n")
        assert run(["eval", "--model", paths.model, "--in", paths.test,
                    "--labels", str(labels)]) == 0
        assert "detection rate: undefined" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_writes_csv(self, paths, capsys):
        gen_and_train(paths, count=400)
        assert run(["gen", "--protocol", "ftp", "--count", "150", "--seed", "15",
                    "--inject", "unseen:0.1", "--out", paths.test]) == 0
        assert run(["sweep", "--train-in", paths.legit, "--test-in", paths.test,
                    "--protocol", "ftp", "--grid", "n=2,3;chunk=15;score=30,40",
                    "--out", paths.report]) == 0
        lines = open(paths.report).read().splitlines()
        assert lines[0].startswith("n,len_ck,th_s,score_threshold,chunks,dr,fpr")
        assert len(lines) == 1 + 2 * 1 * 2 * 2

    def test_bad_grid_is_usage_error(self, paths):
        assert run(["sweep", "--train-in", paths.legit, "--test-in", paths.test,
                    "--protocol", "ftp", "--grid", "n=2;bogus=1;score=30",
                    "--out", paths.report]) == 2
        assert run(["sweep", "--train-in", paths.legit, "--test-in", paths.test,
                    "--protocol", "ftp", "--grid", "n=2;score=30",
                    "--out", paths.report]) == 2


class TestPcapPath:
    def test_train_and_detect_from_pcap(self, tmp_path, capsys):
        payloads = [b"USER idcamelia42\r\nPASS idsunspot42\r\n"] * 30 + [b"QUIT\r\n"] * 10
        capture = tmp_path / "traffic.pcap"
        capture.write_bytes(pcap_bytes(
            [tcp_frame(p, 21) for p in payloads] + [tcp_frame(b"GET / HTTP/1.0\r\n", 80)]
        ))
        model = str(tmp_path / "ftp.model")
        assert run(["train", "--in", str(capture), "--protocol", "ftp",
                    "--pcap-filter", "ports=21;prefix=172.16.0.0/16",
                    "--out", model]) == 0
        assert "trained on 40/40" in capsys.readouterr().out
        code = run(["detect", "--model", model, "--in", str(capture),
                    "--alerts", str(tmp_path / "alerts.jsonl")])
        assert code == 0

    def test_bad_pcap_filter_is_usage_error(self, tmp_path):
        capture = tmp_path / "traffic.pcap"
        capture.write_bytes(pcap_bytes([]))
        assert run(["train", "--in", str(capture), "--protocol", "ftp",
                    "--pcap-filter", "ports=abc", "--out", str(tmp_path / "m")]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()

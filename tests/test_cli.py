import json
import sys
from pathlib import Path

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
    def test_detect_exits_zero_without_alerts(self, paths):
        gen_and_train(paths)
        assert run(["gen", "--protocol", "ftp", "--count", "200", "--seed", "8",
                    "--out", paths.test]) == 0
        code = run(["detect", "--model", paths.model, "--in", paths.test,
                    "--alerts", paths.alerts])
        assert code == 0

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
        assert err.startswith("pckad: ") and "line 2: invalid UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, message", [
        ("gen", "cannot write corpus"),
        ("train", "cannot write model"),
        ("sweep", "cannot write report"),
    ])
    def test_unwritable_output_is_runtime_error(self, tmp_path, paths, capsys,
                                                command, message):
        assert run(["gen", "--protocol", "ftp", "--count", "50", "--out", paths.legit]) == 0
        capsys.readouterr()
        out = str(tmp_path)  # a directory cannot be opened for writing
        argv = {
            "gen": ["gen", "--protocol", "ftp", "--count", "5"],
            "train": ["train", "--protocol", "ftp", "--in", paths.legit],
            "sweep": ["sweep", "--protocol", "ftp", "--train-in", paths.legit,
                      "--test-in", paths.legit, "--grid", "n=3;chunk=15;score=30"],
        }[command]
        assert run(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pckad: {message} {out}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--alpha", "0"], "alpha must be > 0"),
        ("train", ["--th-s", "0"], "th_s must be > 0"),
        ("train", ["--port", "70000"], "port must be within [0, 65535]"),
        ("sweep", ["--alpha", "0"], "alpha must be > 0"),
        ("sweep", ["--th-s", "0"], "th_s must be > 0"),
        ("sweep", ["--port", "70000"], "port must be within [0, 65535]"),
        ("gen", ["--count", "-1"], "count must be >= 0"),
        ("detect", ["--th-s", "0"], "th_s must be > 0"),
        ("eval", ["--th-s", "0"], "th_s must be > 0"),
        ("detect", ["--score-threshold", "130"], "score_threshold must be within [0, 100]"),
        ("eval", ["--score-threshold", "-3"], "score_threshold must be within [0, 100]"),
        # NaN and infinity parse as floats; the range checks must refuse them
        *[(command, [flag, value], message)
          for command in ("train", "sweep")
          for flag, message in (("--alpha", "alpha must be > 0"), ("--th-s", "th_s must be > 0"))
          for value in ("nan", "inf")],
        *[(command, ["--th-s", value], "th_s must be > 0")
          for command in ("detect", "eval") for value in ("nan", "inf")],
    ])
    def test_out_of_range_flag_is_usage_error_before_io(self, tmp_path, paths, capsys,
                                                        command, flags, message):
        # no input exists and gen's output directory is missing: any I/O would exit 1
        argv = {
            "train": ["train", "--in", paths.legit, "--protocol", "ftp", "--out", paths.model],
            "sweep": ["sweep", "--train-in", paths.legit, "--test-in", paths.test,
                      "--protocol", "ftp", "--grid", "n=3;chunk=15;score=30",
                      "--out", paths.report],
            "gen": ["gen", "--protocol", "ftp", "--out", str(tmp_path / "missing" / "out.jsonl")],
            "detect": ["detect", "--model", paths.model, "--in", paths.test],
            "eval": ["eval", "--model", paths.model, "--in", paths.test],
        }[command]
        assert run(argv + flags) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["detect", "--model", "m", "--in", "x.jsonl", "--th-s", "nan"], "th_s must be > 0"),
        (["train", "--protocol", "ftp", "--in", "x.jsonl", "--out", "m", "--n", "5",
          "--chunk-len", "3"], "n must be <= chunk_len (got n=5, chunk_len=3)"),
        (["sweep", "--protocol", "ftp", "--train-in", "a.jsonl", "--test-in", "b.jsonl",
          "--out", "r.csv", "--grid", "n=3;chunk=15"], "--grid: missing axis 'score='"),
        (["detect", "--model", "m", "--in", "x.pcap", "--pcap-filter", "color=red"],
         "--pcap-filter: unknown key 'color'"),
        (["gen", "--protocol", "ftp", "--count", "10", "--out", "x.jsonl", "--inject", "weird:0.5"],
         "--inject: expected 'unseen|freq|location:<fraction>', got 'weird:0.5'"),
        (["gen", "--protocol", "ftp", "--count", "10", "--out", "x.jsonl",
          "--inject", "unseen:1.5"], "--inject: fraction must be in (0, 1], got 1.5"),
        (["detect", "--model", "m", "--in", "x.txt"],
         "--in: unsupported corpus extension '.txt' (want .pcap or .jsonl)"),
        (["train", "--protocol", "ftp", "--in", "x.txt", "--out", "m"],
         "--in: unsupported corpus extension '.txt' (want .pcap or .jsonl)"),
        (["train", "--protocol", "ftp", "--in", "x.pcap", "--out", "m",
          "--pcap-filter", "ports=abc"], "--pcap-filter: bad ports 'abc'"),
        (["train", "--protocol", "ftp", "--in", "x.pcap", "--out", "m",
          "--pcap-filter", "ports=21,99999"], "port must be within [0, 65535]"),
        # a repeated key used to replace the earlier one silently
        (["sweep", "--protocol", "ftp", "--train-in", "a.jsonl", "--test-in", "b.jsonl",
          "--out", "r.csv", "--grid", "n=2;chunk=15;score=30;n=3"], "--grid: repeated axis 'n'"),
        (["detect", "--model", "m", "--in", "x.pcap", "--pcap-filter", "ports=21;ports=80"],
         "--pcap-filter: repeated key 'ports'"),
        # a repeated value used to train and write the same rows twice
        (["sweep", "--protocol", "ftp", "--train-in", "a.jsonl", "--test-in", "b.jsonl",
          "--out", "r.csv", "--grid", "n=3,3;chunk=15;score=40;chunks=on,on"],
         "grid axis ns repeats a value: (3, 3)"),
        # round(0.01 * 10) is 0: the corpus used to be written without an attack
        (["gen", "--protocol", "ftp", "--count", "10", "--out", "x.jsonl",
          "--inject", "unseen:0.01"], "--inject: fraction 0.01 of --count 10 selects no record"),
        (["gen", "--protocol", "ftp", "--count", "10", "--out", "x.jsonl",
          "--inject", "unseen:abc"], "--inject: bad fraction in 'unseen:abc'"),
        # the alerts file would be created empty before the corpus is opened
        (["detect", "--model", "m", "--in", "x.jsonl", "--alerts", "x.jsonl"],
         "--alerts names the same file as --in"),
        # the model or the CSV used to be written over the corpus, exit 0
        (["train", "--protocol", "ftp", "--in", "x.jsonl", "--out", "x.jsonl"],
         "--out names the same file as --in"),
        (["sweep", "--protocol", "ftp", "--train-in", "a.jsonl", "--test-in", "b.jsonl",
          "--out", "b.jsonl", "--grid", "n=3;chunk=15;score=30"],
         "--out names the same file as --test-in"),
    ], ids=["range-check", "chunking", "grid", "pcap-filter", "inject", "inject-fraction-range",
            "extension", "train-extension", "train-pcap-filter-ports",
            "train-pcap-filter-port-range", "repeated-grid-axis", "repeated-pcap-filter-key",
            "repeated-grid-value", "inject-selects-none", "inject-bad-fraction", "alerts-is-input",
            "train-out-is-input", "sweep-out-is-input"])
    def test_usage_error_names_the_subcommand(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        err = capsys.readouterr().err
        command = argv[0]
        assert err.startswith(f"usage: pckad {command} ")
        assert f"pckad {command}: error: {message}" in err.splitlines()
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

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
        lines = [json.loads(line) for line in Path(paths.alerts).read_text().splitlines()]
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

    def test_closed_stdout_ends_quietly(self, paths, monkeypatch, capsys):
        gen_and_train(paths, count=300)
        assert run(["gen", "--protocol", "ftp", "--count", "50", "--seed", "9",
                    "--out", paths.test]) == 0
        capsys.readouterr()

        class ClosedPipe:  # stdout after its reader has gone, as under `pckad detect | head`
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["detect", "--model", paths.model, "--in", paths.test]) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("aliased", [False, True], ids=["same-name", "symlink"])
    @pytest.mark.parametrize("flag", ["--in", "--model"])
    def test_alerts_naming_an_input_is_usage_error(self, paths, tmp_path, capsys, flag, aliased):
        gen_and_train(paths, count=300)
        assert run(["gen", "--protocol", "ftp", "--count", "50", "--seed", "9",
                    "--out", paths.test]) == 0
        target = Path(paths.test if flag == "--in" else paths.model)
        before = target.read_bytes()
        alerts = target
        if aliased:
            alerts = tmp_path / "alias"  # another name for the same file
            alerts.symlink_to(target)
        code = run(["detect", "--model", paths.model, "--in", paths.test,
                    "--alerts", str(alerts)])
        assert code == 2
        assert f"--alerts names the same file as {flag}" in capsys.readouterr().err
        assert target.read_bytes() == before


    @pytest.mark.parametrize("aliased", [False, True], ids=["same-name", "symlink"])
    @pytest.mark.parametrize("flag", ["--in", "--train-in", "--test-in", "--labels"])
    def test_out_naming_an_input_is_usage_error(self, paths, tmp_path, capsys, flag, aliased):
        for seed, out in ((7, paths.legit), (9, paths.test)):
            assert run(["gen", "--protocol", "ftp", "--count", "50", "--seed", str(seed),
                        "--out", out]) == 0
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n" + "".join(f"{i},legit\n" for i in range(50)))
        target = Path({"--in": paths.legit, "--train-in": paths.legit,
                       "--test-in": paths.test, "--labels": str(labels)}[flag])
        before = target.read_bytes()
        out = target
        if aliased:
            out = tmp_path / "alias"  # another name for the same file
            out.symlink_to(target)
        if flag == "--in":
            argv = ["train", "--protocol", "ftp", "--in", paths.legit, "--out", str(out)]
        else:
            argv = ["sweep", "--protocol", "ftp", "--train-in", paths.legit,
                    "--test-in", paths.test, "--labels", str(labels),
                    "--grid", "n=3;chunk=15;score=30", "--out", str(out)]
        assert run(argv) == 2
        assert f"--out names the same file as {flag}" in capsys.readouterr().err
        assert target.read_bytes() == before


class TestThSOverride:
    def test_th_s_flag_replaces_the_models_th_s(self, paths, tmp_path, capsys):
        assert run(["gen", "--protocol", "ftp", "--count", "300", "--seed", "7",
                    "--out", paths.legit]) == 0
        assert run(["gen", "--protocol", "ftp", "--count", "100", "--seed", "9",
                    "--inject", "freq:0.1", "--out", paths.test]) == 0
        low_model = str(tmp_path / "low.model")
        assert run(["train", "--in", paths.legit, "--protocol", "ftp", "--out", paths.model]) == 0
        assert run(["train", "--in", paths.legit, "--protocol", "ftp", "--th-s", "1.5",
                    "--out", low_model]) == 0

        def alerts(model, *flags):
            out = tmp_path / "alerts.jsonl"
            run(["detect", "--model", model, "--in", paths.test, "--alerts", str(out), *flags])
            return out.read_bytes()

        overridden = alerts(paths.model, "--th-s", "1.5")
        assert overridden == alerts(low_model)
        assert overridden != alerts(paths.model)
        capsys.readouterr()
        assert run(["eval", "--model", paths.model, "--in", paths.test, "--th-s", "1.5"]) == 0
        assert " th_s=1.5 " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_th_s_above_the_models_is_usage_error(self, paths, capsys, command):
        gen_and_train(paths, count=300)
        capsys.readouterr()
        extra = ["--alerts", paths.alerts] if command == "detect" else []
        assert run([command, "--model", paths.model, "--in", paths.legit, "--th-s", "5.5",
                    *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"pckad {command}: error: th_s 5.5 is above the model's th_s 5.0; "
            "retrain the model at th_s 5.5 to judge at it"
        )
        assert captured.out == ""
        assert not Path(paths.alerts).exists()


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

    @pytest.mark.parametrize("body, message", [
        (b"id,label\n0,legit\xff\n", "labels.csv: invalid UTF-8"),
        (b"id,label\n0," + b"a" * 200_000 + b"\n", "labels.csv: line 2: field larger than"),
        (None, "cannot open labels"),
    ], ids=["invalid-utf8", "field-over-limit", "missing"])
    def test_unreadable_sidecar_labels_is_runtime_error(self, paths, tmp_path, capsys,
                                                         body, message):
        gen_and_train(paths, count=50)
        labels = tmp_path / "labels.csv"
        if body is not None:
            labels.write_bytes(body)
        assert run(["eval", "--model", paths.model, "--in", paths.legit,
                    "--labels", str(labels)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pckad: ") and message in err
        assert "Traceback" not in err


class TestSweepCommand:
    @pytest.mark.parametrize("modes, chunks", [
        ("off", ["off"]),
        ("on,off", ["on", "off"]),
        ("off,on", ["off", "on"]),
    ], ids=["off", "on-off", "off-on"])
    def test_chunk_modes_axis(self, paths, modes, chunks):
        gen_and_train(paths, count=200)
        assert run(["gen", "--protocol", "ftp", "--count", "60", "--seed", "16",
                    "--inject", "location:0.1", "--out", paths.test]) == 0
        assert run(["sweep", "--train-in", paths.legit, "--test-in", paths.test,
                    "--protocol", "ftp", "--grid", f"n=3;chunk=15,20;score=30;chunks={modes}",
                    "--out", paths.report]) == 0
        rows = [line.split(",") for line in Path(paths.report).read_text().splitlines()[1:]]
        # one row per (chunk_len, chunk mode) cell, in grid order
        assert [(row[1], row[4]) for row in rows] == [
            (chunk_len, mode) for chunk_len in ("15", "20") for mode in chunks
        ]

    def test_bad_grid_is_usage_error(self, paths, capsys):
        cases = [
            ("n=2;bogus=1;score=30", "unknown axis"),
            ("n=3;chunk=15;score=150", "score_threshold must be within [0, 100]"),
            ("n=3;chunk=15;score=-1", "score_threshold must be within [0, 100]"),
            ("n=0;chunk=15;score=30", "n must be >= 1"),
            ("n=3;chunk=0;score=30", "chunk_len must be >= 1"),
            ("n=3;chunk=15;score=30;chunks=maybe", "--grid: bad values in 'chunks=maybe'"),
        ]
        for grid, message in cases:
            assert run(["sweep", "--train-in", paths.legit, "--test-in", paths.test,
                        "--protocol", "ftp", "--grid", grid, "--out", paths.report]) == 2, grid
            err = capsys.readouterr().err
            assert message in err, grid
            assert "Traceback" not in err


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

    @pytest.mark.parametrize("spec, message", [
        ("garbage;ports=abc", "--pcap-filter: unknown key 'garbage'"),
        ("ports=99999", "port must be within [0, 65535]"),
    ], ids=["unknown-key", "port-range"])
    def test_bad_pcap_filter_on_jsonl_is_usage_error(self, paths, capsys, spec, message):
        assert run(["gen", "--protocol", "ftp", "--count", "20", "--out", paths.legit]) == 0
        capsys.readouterr()
        assert run(["train", "--protocol", "ftp", "--in", paths.legit, "--pcap-filter", spec,
                    "--out", paths.model]) == 2
        err = capsys.readouterr().err
        assert f"pckad train: error: {message}" in err.splitlines()
        assert "Traceback" not in err
        assert not Path(paths.model).exists()

    def test_valid_pcap_filter_on_jsonl_is_accepted(self, paths, capsys):
        # the filter narrows pcap input only: a JSONL corpus is read whole
        assert run(["gen", "--protocol", "ftp", "--count", "20", "--out", paths.legit]) == 0
        assert run(["train", "--protocol", "ftp", "--in", paths.legit, "--pcap-filter", "ports=21",
                    "--out", paths.model]) == 0
        assert "trained on 20/20" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["detect", "eval"])
    @pytest.mark.parametrize("infile, flags, message", [
        ("x.pcap", ["--pcap-filter", "ports=abc"], "--pcap-filter: bad ports 'abc'"),
        ("x.pcap", ["--pcap-filter", "ports=99999"], "port must be within [0, 65535]"),
        ("x.pcap", ["--pcap-filter", "color=red"], "--pcap-filter: unknown key 'color'"),
        ("x.txt", [], "--in: unsupported corpus extension '.txt'"),
    ])
    def test_corpus_usage_error_before_model_load(self, tmp_path, capsys,
                                                  command, infile, flags, message):
        # the model does not exist: reading it first would exit 1
        argv = [command, "--model", str(tmp_path / "missing.model"),
                "--in", str(tmp_path / infile)] + flags
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestHostileJson:
    def test_deeply_nested_model_is_runtime_error(self, tmp_path, capsys):
        model = tmp_path / "deep.model"
        model.write_text("[" * 200_000 + "]" * 200_000)
        assert run(["detect", "--model", str(model), "--in", str(tmp_path / "x.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pckad: ") and "nested too deeply" in err
        assert "Traceback" not in err

    def test_model_number_beyond_float_range_is_runtime_error(self, paths, capsys):
        gen_and_train(paths, count=100)
        text = Path(paths.model).read_text()
        Path(paths.model).write_text(text.replace('"alpha":0.1', '"alpha":' + "9" * 400, 1))
        assert run(["eval", "--model", paths.model, "--in", paths.legit]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pckad: ") and "alpha must be > 0" in err
        assert "Traceback" not in err

    def test_deeply_nested_corpus_line_is_runtime_error(self, tmp_path, paths, capsys):
        corpus = tmp_path / "deep.jsonl"
        corpus.write_text('{"port":21,"payload_hex":"55534552"}\n' + "[" * 200_000 + "\n")
        assert run(["train", "--in", str(corpus), "--protocol", "ftp",
                    "--out", paths.model]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pckad: ") and "line 2: invalid JSON (nested too deeply)" in err
        assert "Traceback" not in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()

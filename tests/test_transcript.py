"""A pinned CLI transcript: every output of a fixed, seeded command set.

Each step runs `cli.run` in a scratch directory with relative paths. Its
digest covers the exit code, stdout, stderr and every file the step writes.
A usage error keeps only its last stderr line, `pckad <cmd>: error: ...`,
because argparse lays out the usage text above it differently across Python
versions. A change that alters an output edits that step's row and says why.
"""

import hashlib
from pathlib import Path

from pckad import read_jsonl
from pckad.cli import run

from helpers import pcap_bytes, tcp_frame

FTP_GRID = "n=2,8;chunk=7,15;score=10,40;chunks=on,off"  # n=8 > chunk=7: skipped cells

# (name, argv, files the step writes)
STEPS = [
    ("gen-ftp-train", "gen --protocol ftp --count 400 --seed 11 --out ftp-train.jsonl",
     ["ftp-train.jsonl"]),
    ("gen-ftp-test", "gen --protocol ftp --count 150 --seed 12 --inject unseen:0.05 "
                     "--inject freq:0.05 --inject location:0.05 --out ftp-test.jsonl",
     ["ftp-test.jsonl"]),
    ("train-ftp", "train --protocol ftp --in ftp-train.jsonl --th-s 3 --out ftp.model",
     ["ftp.model"]),
    ("detect-ftp", "detect --model ftp.model --in ftp-test.jsonl", []),
    ("detect-ftp-no-chunks", "detect --model ftp.model --in ftp-test.jsonl --no-chunks "
                             "--alerts ftp-alerts-off.jsonl", ["ftp-alerts-off.jsonl"]),
    ("detect-ftp-th-s", "detect --model ftp.model --in ftp-test.jsonl --th-s 1.5 "
                        "--score-threshold 20 --alerts ftp-alerts-th.jsonl",
     ["ftp-alerts-th.jsonl"]),
    ("eval-ftp", "eval --model ftp.model --in ftp-test.jsonl", []),
    ("eval-ftp-no-chunks", "eval --model ftp.model --in ftp-test.jsonl --no-chunks", []),
    ("sweep-ftp", f"sweep --protocol ftp --train-in ftp-train.jsonl --test-in ftp-test.jsonl "
                  f"--th-s 3 --grid {FTP_GRID} --out ftp-sweep.csv", ["ftp-sweep.csv"]),
    ("gen-http-train", "gen --protocol http --count 300 --seed 21 --out http-train.jsonl",
     ["http-train.jsonl"]),
    ("gen-http-test", "gen --protocol http --count 120 --seed 22 --inject unseen:0.05 "
                      "--inject location:0.05 --out http-test.jsonl", ["http-test.jsonl"]),
    ("train-http", "train --protocol http --in http-train.jsonl --out http.model",
     ["http.model"]),
    ("train-http-pcap", "train --protocol http --in http-train.pcap "
                        "--pcap-filter ports=80;prefix=172.16.0.0/16 --out http-pcap.model",
     ["http-pcap.model"]),
    ("detect-http", "detect --model http.model --in http-test.jsonl", []),
    ("detect-http-pcap", "detect --model http-pcap.model --in http-test.pcap "
                         "--alerts http-alerts.jsonl", ["http-alerts.jsonl"]),
    ("detect-http-pcap-no-chunks", "detect --model http-pcap.model --in http-test.pcap "
                                   "--no-chunks", []),
    ("detect-http-th-s", "detect --model http.model --in http-test.jsonl --th-s 2", []),
    ("eval-http", "eval --model http.model --in http-test.jsonl", []),
    ("eval-http-pcap", "eval --model http-pcap.model --in http-test.pcap "
                       "--pcap-filter prefix=172.16.0.0/16 --labels http-test-labels.csv", []),
    ("sweep-http-off", "sweep --protocol http --train-in http-train.jsonl "
                       "--test-in http-test.jsonl --grid n=3;chunk=15;score=30,60;chunks=off "
                       "--out http-sweep-off.csv", ["http-sweep-off.csv"]),
    ("sweep-http-mixed", "sweep --protocol http --train-in http-train.jsonl "
                         "--test-in http-test.pcap --labels http-test-labels.csv "
                         "--pcap-filter prefix=172.16.0.0/16 "
                         "--grid n=2,3;chunk=10;score=40 --out http-sweep-mixed.csv",
     ["http-sweep-mixed.csv"]),
    # usage errors: exit 2, nothing written
    ("usage-range-check", "detect --model m --in x.jsonl --th-s nan", []),
    ("usage-chunking", "train --protocol ftp --in x.jsonl --out m --n 5 --chunk-len 3", []),
    ("usage-grid", "sweep --protocol ftp --train-in a.jsonl --test-in b.jsonl --out r.csv "
                   "--grid n=3;chunk=15", []),
    ("usage-pcap-filter", "detect --model m --in x.pcap --pcap-filter color=red", []),
    ("usage-inject", "gen --protocol ftp --count 10 --out x.jsonl --inject weird:0.5", []),
    ("usage-extension", "detect --model m --in x.txt", []),
    ("usage-repeated-grid-axis", "sweep --protocol ftp --train-in ftp-train.jsonl "
                                 "--test-in ftp-test.jsonl --out r.csv "
                                 "--grid n=2;chunk=15;score=30;n=3", []),
    ("usage-repeated-pcap-filter-key", "detect --model http.model --in http-test.pcap "
                                       "--pcap-filter ports=21;ports=80", []),
    ("usage-repeated-grid-value", "sweep --protocol ftp --train-in ftp-train.jsonl "
                                  "--test-in ftp-test.jsonl --out r.csv "
                                  "--grid n=3,3;chunk=15;score=40;chunks=on,on", []),
    ("usage-inject-selects-none", "gen --protocol ftp --count 10 --out x.jsonl "
                                  "--inject unseen:0.01", []),
]

TRANSCRIPT = {
    "gen-ftp-train": "7dfd82ef553e1f896aaa9426595d57a6b9b88fcb85a5e21446f297f4b3a2a781",
    "gen-ftp-test": "321b1af1b5d1d94434aafec8eb181c004292bd2fb2d96d06d72fbe699a26d90e",
    "train-ftp": "892b0bc2b5b50c138c92cd663e2383e36b90e558b4b85822b84e5cad983d8ae7",
    "detect-ftp": "b576b5d34b097f5cbc32e19230354fd6ea61905522ebbfd5e778fc074d70cce3",
    "detect-ftp-no-chunks": "1aac1fdace8ad5894850fd6792cd8622fe9cb3da7768b46fdd87ff841f8395f9",
    "detect-ftp-th-s": "a0c5c08e3152555dbc16db0894e1e3290709177b16fa8ae790154f7f360e22aa",
    "eval-ftp": "8584fa66ba0a0feea80fa5fa55bfc996300da47ded81efd5386c9386f0ae0eb5",
    "eval-ftp-no-chunks": "e38333e5cd7721c911ca12e2cfdb1d4e80c1d8339b2aee9064891b6346ec07e8",
    "sweep-ftp": "f10eee0ec311172aa30eb9c0914705ce3eb279e5e97b9ef67609343ecc014857",
    "gen-http-train": "93e1bed9b6396a794fe2d41eeeb3fabd0e666b5f2de290421cc866774cd705da",
    "gen-http-test": "d1b80fca9068e0c671946caafe12bd51f6126f77b9098b80ade949ac8eece494",
    "train-http": "b08efe9a3142b4df3fe2cad5ed48854a878ca8d112a098cec4979a97005f7b6b",
    "train-http-pcap": "b3e6509f1ff8425531169e7401da00d448a90ea2357178dafafe4a59aacfa9f2",
    "detect-http": "76bebccc652eeeb51a1ec17d1b24ef9f7153e84397144a950fc99a493eafe36b",
    "detect-http-pcap": "ce133153ca74a6cb0e210b9a446ad3d36827fb75ab445b08615cff151c785035",
    "detect-http-pcap-no-chunks": "a9c0b7e318e415b9c961e66d717fe76d817ffd08bd44bdc38340f167035fe900",
    "detect-http-th-s": "de9f586d8c415bf4402d0b7336725650ed54f3985fa0c84027866b13a975413b",
    "eval-http": "4a78f3edd5fdd3d3102cda895108c5fc495d8590d7085a951c60cc2365ef9221",
    "eval-http-pcap": "4a78f3edd5fdd3d3102cda895108c5fc495d8590d7085a951c60cc2365ef9221",
    "sweep-http-off": "a9acee5c1ec6f78305a40b4f82eed5c31483f16bbd69e114486241462f635782",
    "sweep-http-mixed": "4e1a20373fefb17fd996d3f0e27aed5e2eb38f230ffdfa7079e514a4a58787b5",
    "usage-range-check": "fe730b10ee416187ccecd9323f9fcb31f35761fe81523edf00ce0ae0ac749036",
    "usage-chunking": "86b1eef8a4eed4240d5378547d5c61fbb4f937e568d14da5947999e36521aa18",
    "usage-grid": "8d72f204ee5b61c9819a74b0e2790c1fb15318417ff84c5139fd6470c5444130",
    "usage-pcap-filter": "b1a2cf7d34b3400d2cc39c905cdb2de2e7d4a46e23afaee772c663645d6006b4",
    "usage-inject": "4c53ea934969ccf59793f002658c0dc7505513cd5e2938f21b314567229bd5c7",
    "usage-extension": "f370c0182f569476ee2e1b172461fcca5846493c99748ea234687d8ac2073ec7",
    "usage-repeated-grid-axis": "f1b75c33809e5edb5eefe932cd0adea3decc0a571de467e37d2c1333c5c1c077",
    "usage-repeated-pcap-filter-key": "894721d50a6808b844f74d2c74a6f019cadc3e9877e70472d7f4cc30014fc6c4",
    "usage-repeated-grid-value": "e676c74f91b59045adf2fd7dd4ddad2d33057e97f71b5f6dc40abae46c601fe9",
    "usage-inject-selects-none": "2047e3dc9ff6a216549dce8372dacd2d185a6e981c862b40062e6ccb7184fd2d",
}


def write_pcap_copy(jsonl: Path, pcap: Path, labels: Path | None = None) -> None:
    """The corpus as a classic pcap, led by one off-port and one off-prefix frame.

    A filter on port 80 and prefix 172.16.0.0/16 drops both, so its ingest
    ordinal i is the corpus's record i + 1, which the labels file follows.
    The default filter, on the model's port only, keeps the second.
    """
    records = list(read_jsonl(jsonl))
    frames = [tcp_frame(b"USER anonymous\r\n", 21),
              tcp_frame(records[0].payload, 80, dst_ip="192.168.1.1")]
    frames += [tcp_frame(rec.payload, rec.dst_port) for rec in records]
    pcap.write_bytes(pcap_bytes(frames))
    if labels is not None:
        rows = [f"{i},{rec.label}" for i, rec in enumerate(records)]
        labels.write_text("id,label\n" + "\n".join(rows) + "\n")


def step_digest(code: int, out: str, err: str, files: list[Path]) -> str:
    if code == 2:
        err = err.splitlines()[-1]
    h = hashlib.sha256(f"{code}\0{out}\0{err}".encode())
    for path in files:
        h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_cli_transcript_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    transcript = {}
    for name, argv, files in STEPS:
        if name == "train-http-pcap":  # the first step to read the pcap copies of the HTTP corpora
            write_pcap_copy(Path("http-train.jsonl"), Path("http-train.pcap"))
            write_pcap_copy(Path("http-test.jsonl"), Path("http-test.pcap"),
                            Path("http-test-labels.csv"))
        code = run(argv.split())
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err, name
        transcript[name] = step_digest(code, captured.out, captured.err,
                                       [Path(f) for f in files])
    assert transcript == TRANSCRIPT

"""Tiny-count smoke runs of every workload, so the harness cannot rot.

Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.02"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, unit = line.split()
            printed[name] = unit
    info = json.loads(next(line for line in lines if line.startswith("info "))[len("info "):])
    return printed, info, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    printed, info, result = parse(run(workload, trace))
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert printed == want
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert result["correct"] is True
    assert result["failed"] == info["failed_ops"] == 0
    assert result["attempted"] == info["attempted_ops"] >= 1
    assert info["env"]["traced"] is bool(trace)
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_identical_outputs():
    digests = [parse(run("ftp-jsonl", 0))[1]["digests"] for _ in range(2)]
    assert digests[0] == digests[1]
    assert set(digests[0]) == {"model", "alerts", "sweep_csv"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

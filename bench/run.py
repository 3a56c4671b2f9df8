"""Seeded closed-loop benchmark of pckad's train, detect and sweep paths.

Usage (from the repository root):

    python3 bench/run.py --workload ftp-jsonl --seed 1 --seconds 50 --trace 0

One process, one caller, no threads: each step waits for the previous one.
A run generates its inputs from the seed, then repeats rounds of these steps,
in the CLI's order, until --seconds have passed:

    train   read the training corpus, `train`, `save_model`      (pckad train)
    setup   `load_model` + `DetectorConfig.for_model`, repeated (pckad detect)
    detect  read the test corpus, `detect_stream`, `verdict_line` to a file
    sweep   `sweep` over the workload's grid + `write_sweep_csv`  (pckad sweep)

Every pass of a step is timed in laps of about LAP_S, which end at record
boundaries; between two laps a fixed reference kernel measures how fast the
host runs at that moment, and each lap is scaled to a nominal host speed
(see `Stopwatch`). A time metric is the median over the run's passes.

After the rounds it checks the outputs (see `check`), prints one
`metric <name> <value> <unit>` line per metric, an `info` JSON line, and as
the last line the result object. With --trace 1 the rounds alternate
between untraced and traced, and the result holds the per-layer metrics of
the traced ones and the tracing overhead. Details go to
`.bench_work/<workload>/`.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import sys
import time
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import pckad from this checkout's sources, never from an installed copy."""
    if not (SRC / "pckad" / "__init__.py").is_file():
        sys.exit(f"bench: no pckad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pckad

    if Path(pckad.__file__).resolve().parent != (SRC / "pckad").resolve():
        sys.exit(f"bench: imported pckad from {pckad.__file__}, not from {SRC}")
    return pckad


pckad = _import_program()
import inputs  # noqa: E402  (needs pckad on the path)
import reference  # noqa: E402
import tracing  # noqa: E402

N, CHUNK_LEN, ALPHA, TH_S = 3, 15, 0.1, 5.0  # the CLI defaults
SETUP_MIN_LOADS, SETUP_BUDGET_S = 5, 0.3
REFERENCE_SAMPLE = 1000
LAP_S = 0.005  # a lap ends at the first record boundary after this many seconds
NOMINAL_REFERENCE_S = 0.25e-3  # `reference` time that defines the nominal host speed
SWEEP_SHARE = 2.0  # untraced runs sweep while sweep time <= this x the other steps' time

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    source: str  # corpus file format: "jsonl" or "pcap"
    train_count: int
    test_count: int
    grid: tuple  # (ns, chunk_lens, score_thresholds, chunk_modes)


WORKLOADS = {
    w.name: w
    for w in (
        # short FTP payloads, tiny model: fixed per-packet cost dominates; the
        # sweep is the reduced README grid (36 rows), where `evaluate`
        # featurizes each test packet 6 times per (n, chunk_len) cell
        Workload("ftp-jsonl", "ftp", "jsonl", 1500, 1500,
                 ((2, 3), (7, 15, 25), (30.0, 40.0, 50.0), (True, False))),
        # wide-vocabulary HTTP in pcap: megabyte model, regex, multi-chunk
        # classes; the sweep is the one row at the detect defaults, so it has
        # nothing to share between cells
        Workload("http-pcap", "http", "pcap", 6000, 3000, ((3,), (15,), (30.0,), (True,))),
    )
}

# metric name -> unit, for the end-to-end and the per-layer metrics
UNITS = {
    m["name"]: m["unit"]
    for section in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
}


@dataclass
class Context:
    """Inputs of one run: generated once, then read by every round."""

    workload: Workload
    seed: int
    corpus: inputs.Corpus
    work: Path
    train_path: Path | None = None
    test_path: Path | None = None
    labels_path: Path | None = None
    ingest: list = field(default_factory=list)  # IngestSummary of every pcap read

    @property
    def protocol(self):
        return pckad.Protocol(self.workload.protocol)

    @property
    def port(self) -> int:
        return self.protocol.default_port

    @property
    def score_threshold(self) -> float:
        return self.protocol.default_score_threshold

    def output(self, name: str) -> Path:
        return self.work / name

    def open_corpus(self, which: str):
        """Records as the CLI's `--in` yields them."""
        path = self.train_path if which == "train" else self.test_path
        if self.workload.source == "jsonl":
            return pckad.read_jsonl(path)
        summary = pckad.IngestSummary()
        self.ingest.append(summary)
        return pckad.read_pcap(path, pckad.TrafficFilter(ports=frozenset({self.port})), summary)

    def labels(self, test_records):
        if self.labels_path is not None:
            return pckad.LabelSet.from_csv(self.labels_path)
        return pckad.LabelSet.from_records(test_records)


def make_context(workload: Workload, seed: int, scale: float) -> Context:
    train_count = max(20, round(workload.train_count * scale))
    test_count = max(20, round(workload.test_count * scale))
    make = inputs.ftp_corpus if workload.protocol == "ftp" else inputs.http_corpus
    corpus = make(seed, train_count, test_count)
    work = ROOT / ".bench_work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(workload, seed, corpus, work)
    if workload.source == "jsonl":
        ctx.train_path, ctx.test_path = work / "train.jsonl", work / "test.jsonl"
        pckad.write_jsonl(corpus.train, ctx.train_path)
        pckad.write_jsonl(corpus.test, ctx.test_path)
    else:
        ctx.train_path, ctx.test_path = work / "train.pcap", work / "test.pcap"
        ctx.labels_path = work / "test-labels.csv"
        inputs.write_pcap(corpus.train, ctx.train_path, inputs.sub_seed("pcap-train", seed))
        inputs.write_pcap(corpus.test, ctx.test_path, inputs.sub_seed("pcap-test", seed))
        inputs.write_labels_csv(corpus.test, ctx.labels_path)
    return ctx


# --- timing -------------------------------------------------------------------

_REFERENCE_DATA = bytes(range(256)) * 4


def reference_s() -> float:
    """Seconds for a fixed pure-Python kernel: counts the 3-grams of a fixed byte string.

    It does not depend on pckad, so its time measures how fast the host runs
    Python code at the moment it runs (0.25 to 0.5 ms on the baseline host).
    """
    t0 = clock()
    counts = {}
    data = _REFERENCE_DATA
    for i in range(len(data) - 2):
        gram = data[i:i + 3]
        counts[gram] = counts.get(gram, 0) + 1
    return clock() - t0


class Stopwatch:
    """Times one pass of a step in laps of about LAP_S, with the reference run between laps.

    The host's CPU speed changes from one tenth of a second to the next, and
    from one minute to the next by up to 1.6x, so a wall time says as much
    about the host as about pckad. Each lap is therefore also scaled by
    NOMINAL_REFERENCE_S over the mean of the reference times just before and
    just after it: `nominal_s` is the pass's time at the host speed at which
    the reference takes NOMINAL_REFERENCE_S. The reference runs are not part
    of any lap.
    """

    def __init__(self):
        self.laps = array("d")
        self.refs = array("d", [reference_s()])
        self.start = clock()

    def poll(self, now: float) -> float:
        """At a record boundary: end the lap if it has lasted LAP_S; return when timing resumed."""
        if now - self.start < LAP_S:
            return now
        self.laps.append(now - self.start)
        self.refs.append(reference_s())
        self.start = clock()
        return self.start

    def stop(self) -> None:
        self.laps.append(clock() - self.start)
        self.refs.append(reference_s())

    def scale(self, lap: int) -> float:
        return 2 * NOMINAL_REFERENCE_S / (self.refs[lap] + self.refs[lap + 1])

    @property
    def wall_s(self) -> float:
        return sum(self.laps)

    @property
    def nominal_s(self) -> float:
        return sum(t * self.scale(i) for i, t in enumerate(self.laps))


def polled(items, watch: Stopwatch):
    """Yield the items, letting the stopwatch end a lap each time the consumer asks for more."""
    for item in items:
        yield item
        watch.poll(clock())


class PolledList(list):
    """A list that polls `self.watch` while it is iterated, if that is set."""

    watch: Stopwatch | None = None

    def __iter__(self):
        if self.watch is None:
            return super().__iter__()
        return polled(super().__iter__(), self.watch)


# --- rounds -------------------------------------------------------------------


@dataclass
class Round:
    traced: bool
    wall_s: float = 0.0
    step_s: dict = field(default_factory=dict)  # step -> wall seconds of its pass in this round


@dataclass
class Passes:
    """Stopwatches of the untraced passes of each step."""

    train: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # one per load
    detect: list = field(default_factory=list)
    latency: list = field(default_factory=list)  # nominal seconds per verdict line, per pass
    sweep: list = field(default_factory=list)


@dataclass
class Recorder:
    passes: Passes = field(default_factory=Passes)
    rounds: list = field(default_factory=list)
    detect_passes: int = 0  # traced ones too
    digests: dict = field(default_factory=dict)  # output -> sha256 of its first pass
    problems: list = field(default_factory=list)

    def digest(self, key: str, path: Path, round_no: int) -> None:
        value = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(key, value)
        if value != first:
            self.problems.append(f"round {round_no}: {key} differs from its first pass")

    def step_total(self, *steps: str) -> float:
        return sum(r.step_s.get(s, 0.0) for r in self.rounds for s in steps)


def run_round(ctx: Context, rec: Recorder, rnd: Round, sweep_records, with_sweep: bool,
              tracer=None) -> None:
    """One train -> setup -> detect [-> sweep] round, in the CLI's call order."""
    step = tracer.step if tracer is not None else (lambda name: nullcontext())
    keep = not rnd.traced
    model_path, alerts_path, csv_path = map(ctx.output, ("model.json", "alerts.jsonl", "sweep.csv"))
    round_no = len(rec.rounds)
    start = clock()

    with step("train"):
        watch = Stopwatch()
        model = pckad.train(
            polled(ctx.open_corpus("train"), watch), protocol=ctx.protocol,
            chunking=pckad.ChunkingConfig(n=N, chunk_len=CHUNK_LEN),
            port=ctx.port, alpha=ALPHA, th_s=TH_S,
        )
        pckad.save_model(model, model_path)
        watch.stop()
    rnd.step_s["train"] = watch.wall_s
    if keep:
        rec.passes.train.append(watch)
    rec.digest("model", model_path, round_no)
    del model

    loads = []
    while len(loads) < SETUP_MIN_LOADS and sum(w.wall_s for w in loads) < SETUP_BUDGET_S:
        watch = Stopwatch()
        with step("setup"):
            model = pckad.load_model(model_path)
            cfg = pckad.DetectorConfig.for_model(model)
        watch.stop()
        loads.append(watch)
    rnd.step_s["setup"] = sum(w.wall_s for w in loads)
    if keep:
        rec.passes.setup += loads

    with step("detect"):
        watch = Stopwatch()
        records = ctx.open_corpus("test")
        latency, lap_of = array("d"), array("I")
        with open(alerts_path, "w", encoding="utf-8") as out:
            t_prev = clock()
            for rec_id, verdict in pckad.detect_stream(model, records, cfg, pckad.DetectionSummary()):
                out.write(pckad.verdict_line(rec_id, verdict) + "\n")
                t = clock()
                latency.append(t - t_prev)
                lap_of.append(len(watch.laps))
                t_prev = watch.poll(t)
        watch.stop()
    rnd.step_s["detect"] = watch.wall_s
    rec.detect_passes += 1
    if keep:
        rec.passes.detect.append(watch)
        rec.passes.latency.append(array("d", (t * watch.scale(lap) for t, lap in zip(latency, lap_of))))
    rec.digest("alerts", alerts_path, round_no)
    del model

    if with_sweep:
        train_records, test_records, labels = sweep_records
        with step("sweep"):
            watch = train_records.watch = test_records.watch = Stopwatch()
            try:
                rows = pckad.sweep(
                    train_records, test_records, labels, pckad.GridSpec(*ctx.workload.grid),
                    protocol=ctx.protocol, port=ctx.port, alpha=ALPHA, th_s=TH_S,
                )
                pckad.write_sweep_csv(rows, csv_path)
                watch.stop()
            finally:
                train_records.watch = test_records.watch = None
        rnd.step_s["sweep"] = watch.wall_s
        if keep:
            rec.passes.sweep.append(watch)
        rec.digest("sweep_csv", csv_path, round_no)
    rnd.wall_s = clock() - start


def percentile(sorted_values, q: float) -> float:
    """Value at 1-based rank round(q/100 * n + 0.5), clamped, of a sorted sequence."""
    k = max(0, min(len(sorted_values) - 1, round(q / 100 * len(sorted_values) + 0.5) - 1))
    return sorted_values[k]


def nominal_s(watches: list[Stopwatch]) -> float:
    return median(w.nominal_s for w in watches)


def latency_us(passes: Passes, q: float) -> float:
    """q-th percentile over the test records of each record's median latency across passes.

    A garbage collection or an interrupt lands on other records in each
    pass, so the per-record median leaves it out: p99 is the latency of the
    costliest 1 % of records, not of the unluckiest moments of the run.
    """
    return percentile(sorted(map(median, zip(*passes.latency))), q) * 1e6


def end_to_end(ctx: Context, passes: Passes) -> dict:
    return {
        "train_pkts_per_s": len(ctx.corpus.train) / nominal_s(passes.train),
        "detect_pkts_per_s": len(ctx.corpus.test) / nominal_s(passes.detect),
        "detect_p50_us": latency_us(passes, 50),
        "detect_p99_us": latency_us(passes, 99),
        "setup_s": nominal_s(passes.setup),
        "sweep_s": nominal_s(passes.sweep),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "model_bytes": ctx.output("model.json").stat().st_size,
    }


def per_layer(ctx: Context, tracer: tracing.Tracer, rounds: list[Round]) -> dict:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    k = len(traced)
    self_s = tracer.log.self_times()
    counts = tracer.counts

    def per_round(name):
        return counts.get(name, 0) / k

    calls = counts.get("detector.anomalous_occurrences.calls", 0)
    keys = len(tracer.scoring_keys)
    frames = sum(x.frames for x in ctx.ingest)
    read = counts.get("train_read", 0)
    model = pckad.load_model(ctx.output("model.json"))
    setup_total = tracer.log.total("bench.setup")
    metrics = {
        f"{layer}.self_s": self_s.get(layer, 0.0) / k
        for layer in (f"{m}.{f}" for m, f in tracing.TRACED)
    }
    metrics.update({
        "corpus.read_pcap.yield_ratio": sum(x.yielded for x in ctx.ingest) / frames if frames else 0.0,
        "chunking.occurrences": per_round("chunking.occurrences"),
        "chunking.distinct_grams": per_round("chunking.distinct_grams"),
        "chunking.featurize_per_packet": counts.get("scoring_featurizations", 0) / keys if keys else 0.0,
        "model.train.trained_ratio": counts.get("train_trained", 0) / read if read else 0.0,
        "model.load_model.setup_share": (
            tracer.log.total("model.load_model") / setup_total if setup_total else 0.0
        ),
        "model.classes": len(model.classes),
        "model.ngrams": sum(len(c.stats) for c in model.classes.values()),
        "model.chunk_entries": sum(len(st.chunks) for c in model.classes.values()
                                   for st in c.stats.values()),
        "detector.anomalous_occurrences.calls": calls / k,
        "detector.chunk_rule_share": counts.get("chunk_rule_reached", 0) / calls if calls else 0.0,
        "python.gc_s": per_round("python.gc_s"),
        "python.gc_collections": per_round("python.gc_collections"),
        "trace.overhead_pct": (
            (median(r.wall_s for r in traced) / median(r.wall_s for r in untraced) - 1) * 100
        ),
        "trace.spans": len(tracer.log.start) / k,
    })
    for kind in ("legit", "anomalous", "malformed", "no_model", "unclassifiable"):
        metrics[f"detector.verdicts.{kind}"] = per_round(f"detector.verdicts.{kind}")
    return metrics


def check(ctx: Context) -> tuple[int, list[str], dict | None]:
    """Check the last round's outputs: (operations checked, problems, DR/FPR).

    A seeded sample of test packets is rescored by the plain reference, and
    the DR/FPR folded from the alert file must equal the sweep's row for the
    detect defaults. (That every pass wrote byte-identical files is checked
    as the rounds run, in `Recorder.digest`.)
    """
    problems = []
    test = ctx.corpus.test
    lines = ctx.output("alerts.jsonl").read_text(encoding="utf-8").splitlines()
    verdicts = [json.loads(line) for line in lines]
    if [v["id"] for v in verdicts] != list(range(len(test))):
        problems.append(f"alert file has ids for {len(lines)} lines, expected 0..{len(test) - 1}")
        return len(test), problems, None

    rng = random.Random(inputs.sub_seed("reference-sample", ctx.seed))
    sample = sorted(rng.sample(range(len(test)), min(REFERENCE_SAMPLE, len(test))))
    model = pckad.load_model(ctx.output("model.json"))
    problems += reference.check_sample(model, test, lines, sample, ctx.score_threshold)

    folded = reference.fold_dr_fpr([v["verdict"] for v in verdicts], [r.label for r in test])
    row = sweep_row(ctx.output("sweep.csv"), ctx.score_threshold)
    want = {
        "dr": "" if folded["dr"] is None else repr(folded["dr"]),
        "fpr": "" if folded["fpr"] is None else repr(folded["fpr"]),
        **{k: str(folded[k]) for k in ("instances", "detected", "legit_packets", "false_alerts")},
    }
    for key, value in want.items():
        if row is None or row[key] != value:
            problems.append(f"sweep row for the detect defaults: {key} is "
                            f"{None if row is None else row[key]!r}, alert file gives {value!r}")
            break
    return len(sample) + 1, problems, folded


def sweep_row(path: Path, score_threshold: float) -> dict | None:
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            if (row["n"], row["len_ck"], row["chunks"]) == (str(N), str(CHUNK_LEN), "on") \
                    and float(row["score_threshold"]) == score_threshold:
                return row
    return None


def environment(ctx: Context, traced: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": ctx.workload.name,
        "seed": ctx.seed,
        "traced": traced,
        "corpus": {
            "source": ctx.workload.source,
            "train_records": len(ctx.corpus.train),
            "test_records": len(ctx.corpus.test),
            "grid_rows": math.prod(len(axis) for axis in ctx.workload.grid),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's corpus sizes (smoke tests use a small value)")
    args = parser.parse_args(argv)

    ctx = make_context(WORKLOADS[args.workload], args.seed, args.scale)
    tracer = tracing.Tracer(scoring_step="sweep") if args.trace else None
    # `pckad sweep` reads both corpora into lists before it starts
    train_records = PolledList(ctx.open_corpus("train"))
    test_records = PolledList(ctx.open_corpus("test"))
    sweep_records = (train_records, test_records, ctx.labels(test_records))

    rec = Recorder()
    crashed = False
    deadline = clock() + args.seconds
    while True:
        n_traced = sum(r.traced for r in rec.rounds)
        use_trace = tracer is not None and 2 * n_traced < len(rec.rounds)
        # traced runs sweep in every round, so per-layer figures are per full round
        with_sweep = (tracer is not None or not rec.passes.sweep
                      or rec.step_total("sweep") <= SWEEP_SHARE * rec.step_total("train", "setup", "detect"))
        gc.collect()
        rnd = Round(traced=use_trace)
        try:
            if use_trace:
                tracer.install()
                try:
                    run_round(ctx, rec, rnd, sweep_records, with_sweep, tracer)
                finally:
                    tracer.uninstall()
            else:
                run_round(ctx, rec, rnd, sweep_records, with_sweep)
        except Exception:
            traceback.print_exc()
            crashed = True
            break
        rec.rounds.append(rnd)
        if clock() >= deadline and (tracer is None or n_traced + use_trace):
            break
    untraced = [r for r in rec.rounds if not r.traced]
    if not untraced or (tracer is not None and len(untraced) == len(rec.rounds)):
        print("bench: no complete round", file=sys.stderr)
        return 1

    checked, problems, quality = check(ctx)
    problems = rec.problems + problems
    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    # a crashed round fails every verdict it was to write
    failed = len(problems) + crashed * len(ctx.corpus.test)
    attempted = checked + len(ctx.corpus.test) * (rec.detect_passes + crashed)

    if tracer is None:
        metrics = end_to_end(ctx, rec.passes)
    else:
        metrics = per_layer(ctx, tracer, rec.rounds)
        tracer.log.write(ctx.output(f"spans-seed{args.seed}"))

    p = rec.passes
    steps = {"train": p.train, "setup": p.setup, "detect": p.detect, "sweep": p.sweep}
    info = {
        "env": environment(ctx, tracer is not None),
        "rounds": {"untraced": len(untraced), "traced": len(rec.rounds) - len(untraced)},
        "untraced_passes": {k: len(v) for k, v in steps.items()},
        # unscaled medians, and the reference's median, to compare hosts and runs
        "wall_s": {k: median(w.wall_s for w in v) for k, v in steps.items()},
        "reference_ms": median(r for v in steps.values() for w in v for r in w.refs) * 1e3,
        "detect_latency_samples": sum(map(len, p.latency)),
        "digests": rec.digests,
        "quality": quality,
        "attempted_ops": attempted,
        "failed_ops": failed,
    }
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {UNITS[name]}")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    rounds = [{"traced": r.traced, "wall_s": r.wall_s, **r.step_s}
              for r in rec.rounds]
    ctx.output(f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "rounds": rounds}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

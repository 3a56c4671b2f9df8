"""Command-line front end: generate, train, detect, evaluate, sweep.

Exit codes: 0 success, 1 runtime error or a stdout closed early, 2 usage
error, and 3 from `detect` when at least one alert was emitted.
"""

from __future__ import annotations

import argparse
import ipaddress
import os
import sys
from pathlib import Path

from .chunking import DEFAULT_CHUNKING, ChunkingConfig
from .corpus import TrafficFilter, decimal, read_jsonl, read_pcap, real, write_jsonl
from .detector import DetectionSummary, DetectorConfig, Scorer, detect_stream, verdict_line
from .errors import PckadError
from .evaluate import GridSpec, LabelSet, evaluate, sweep, write_sweep_csv
from .model import (
    DEFAULT_ALPHA,
    DEFAULT_TH_S,
    check_model_settings,
    load_model,
    save_model,
    train,
)
from .protocols import Protocol
from .synth import AnomalyKind, GenSpec, gen_legit, inject_corpus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pckad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several commands, each declared once
    pcap = argparse.ArgumentParser(add_help=False)
    pcap.add_argument("--pcap-filter", default=None, metavar="SPEC",
                      help="pcap ingest filter, e.g. 'ports=21,80;prefix=172.16.0.0/16'")
    protocol = argparse.ArgumentParser(add_help=False)
    protocol.add_argument("--protocol", choices=[p.value for p in Protocol], required=True)
    chunking = argparse.ArgumentParser(add_help=False)
    chunking.add_argument("--n", type=decimal, default=DEFAULT_CHUNKING.n, help="n-gram length")
    chunking.add_argument("--chunk-len", type=decimal, default=DEFAULT_CHUNKING.chunk_len,
                          help="chunk length in bytes")
    training = argparse.ArgumentParser(add_help=False, parents=[protocol])
    training.add_argument("--port", type=decimal, default=None,
                          help="override the protocol default port")
    training.add_argument("--alpha", type=real, default=DEFAULT_ALPHA)
    training.add_argument("--th-s", type=real, default=DEFAULT_TH_S)
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--model", required=True)
    scoring.add_argument("--in", dest="infile", required=True)
    scoring.add_argument("--score-threshold", type=real, default=None)
    scoring.add_argument("--th-s", type=real, default=None)
    scoring.add_argument("--no-chunks", action="store_true")

    gen = sub.add_parser("gen", parents=[protocol, chunking],
                         help="generate a seeded synthetic corpus")
    gen.set_defaults(handler=_cmd_gen, parser=gen)
    gen.add_argument("--count", type=decimal, required=True)
    gen.add_argument("--seed", type=decimal, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--inject", action="append", default=[], metavar="KIND:FRACTION",
                     help="replace a fraction of records with injected attacks "
                          "(kind: unseen|freq|location; repeatable), shaped for --n "
                          "and --chunk-len")

    tr = sub.add_parser("train", parents=[training, chunking, pcap],
                        help="train a model on an attack-free corpus")
    tr.set_defaults(handler=_cmd_train, parser=tr)
    tr.add_argument("--in", dest="infile", required=True)
    tr.add_argument("--ignore-labels", action="store_true",
                    help="train even if the corpus carries attack labels")
    tr.add_argument("--out", required=True)

    det = sub.add_parser("detect", parents=[scoring, pcap],
                         help="classify a corpus against a model")
    det.set_defaults(handler=_cmd_detect, parser=det)
    det.add_argument("--alerts", default=None, help="write verdict lines here instead of stdout")

    ev = sub.add_parser("eval", parents=[scoring, pcap], help="compute DR/FPR against labels")
    ev.set_defaults(handler=_cmd_eval, parser=ev)
    ev.add_argument("--labels", default=None, help="sidecar CSV (id,label); JSONL may carry labels inline")

    sw = sub.add_parser("sweep", parents=[training, pcap],
                        help="train/evaluate over a parameter grid, emit CSV")
    sw.set_defaults(handler=_cmd_sweep, parser=sw)
    sw.add_argument("--train-in", required=True)
    sw.add_argument("--test-in", required=True)
    sw.add_argument("--labels", default=None)
    sw.add_argument("--grid", required=True,
                    help="e.g. 'n=2,3;chunk=7,15;score=30,40' (optional ';chunks=on,off')")
    sw.add_argument("--out", required=True)
    return parser


class _UsageError(Exception):
    """A refused flag value; `run` reports it through the subcommand's parser (exit 2)."""


def _checked(make, *args):
    """make(*args), with a ValueError from the library's range checks made a usage error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _spec_items(spec: str):
    """(part, key, value) of each non-empty part of a ';'-separated 'key=value' spec."""
    for part in spec.split(";"):
        part = part.strip()
        if part:
            key, _, value = part.partition("=")
            yield part, key, value


# --pcap-filter key -> value parser
_FILTER_KEYS = {
    "ports": lambda value: frozenset(map(decimal, value.split(","))),
    "prefix": lambda value: ipaddress.IPv4Network(value, strict=False),
}


def _corpus(path_str: str, pcap_filter: str | None):
    """Check a corpus path's extension and the --pcap-filter spec before any file is read.

    The spec is checked whatever the corpus format, but it narrows only pcap
    input. Returns read(port): the corpus's records, where a pcap filter that
    names no ports keeps the given port's traffic.
    """
    path = Path(path_str)
    if path.suffix not in (".jsonl", ".pcap"):
        raise _UsageError(f"--in: unsupported corpus extension {path.suffix!r} (want .pcap or .jsonl)")
    spec = {}
    for _, key, value in _spec_items(pcap_filter or ""):
        if key not in _FILTER_KEYS:
            raise _UsageError(f"--pcap-filter: unknown key {key!r}")
        if key in spec:
            raise _UsageError(f"--pcap-filter: repeated key {key!r}")
        try:
            spec[key] = _FILTER_KEYS[key](value)
        except ValueError:
            raise _UsageError(f"--pcap-filter: bad {key} {value!r}") from None
    prefix = spec.get("prefix")
    flt = _checked(TrafficFilter, spec["ports"], prefix) if "ports" in spec else None
    if path.suffix == ".jsonl":
        return lambda port: read_jsonl(path)
    return lambda port: read_pcap(path, flt or TrafficFilter(frozenset({port}), prefix))


def _parse_inject_specs(specs: list[str], count: int):
    parsed = []
    kinds = {k.value: k for k in AnomalyKind}
    for spec in specs:
        kind_name, sep, frac_str = spec.partition(":")
        if not sep or kind_name not in kinds:
            raise _UsageError(f"--inject: expected 'unseen|freq|location:<fraction>', got {spec!r}")
        try:
            fraction = real(frac_str)
        except ValueError:
            raise _UsageError(f"--inject: bad fraction in {spec!r}") from None
        if not 0 < fraction <= 1:
            raise _UsageError(f"--inject: fraction must be in (0, 1], got {fraction}")
        selected = round(fraction * count)
        if selected == 0:
            raise _UsageError(f"--inject: fraction {fraction} of --count {count} selects no record")
        parsed.append((kinds[kind_name], selected))
    return parsed


# --grid axis -> (GridSpec field, value parser); an axis left out takes GridSpec's default
_GRID_AXES = {
    "n": ("ns", decimal),
    "chunk": ("chunk_lens", decimal),
    "score": ("score_thresholds", real),
    "chunks": ("chunk_modes", {"on": True, "off": False}.__getitem__),
}


def _parse_grid(spec: str) -> GridSpec:
    axes = {}
    for part, key, value in _spec_items(spec):
        if "=" not in part or key not in _GRID_AXES:
            raise _UsageError(f"--grid: unknown axis {part!r}")
        field, parse = _GRID_AXES[key]
        if field in axes:
            raise _UsageError(f"--grid: repeated axis {key!r}")
        try:
            axes[field] = tuple(parse(v) for v in value.split(","))
        except (KeyError, ValueError):
            raise _UsageError(f"--grid: bad values in {part!r}") from None
    for key in ("n", "chunk", "score"):
        if _GRID_AXES[key][0] not in axes:
            raise _UsageError(f"--grid: missing axis '{key}='")
    return _checked(lambda: GridSpec(**axes))


def _cmd_gen(args) -> int:
    spec = _checked(GenSpec, Protocol(args.protocol), args.count, args.seed)
    injections = _parse_inject_specs(args.inject, args.count)
    cfg = _checked(ChunkingConfig, args.n, args.chunk_len)
    records = gen_legit(spec)
    for offset, (kind, count) in enumerate(injections):
        records = inject_corpus(records, kind, count, seed=args.seed + 1 + offset, cfg=cfg)
    written = write_jsonl(records, args.out)
    print(f"wrote {written} records to {args.out}")
    return 0


def _training_settings(args) -> tuple[Protocol, int]:
    """Protocol and port of train and sweep, with port, alpha and th_s range-checked."""
    protocol = Protocol(args.protocol)
    port = protocol.default_port if args.port is None else args.port
    _checked(check_model_settings, port, args.alpha, args.th_s)
    return protocol, port


def _cmd_train(args) -> int:
    _refuse_overwrite("--out", args.out, ("--in", args.infile))
    cfg = _checked(ChunkingConfig, args.n, args.chunk_len)
    protocol, port = _training_settings(args)
    records = _corpus(args.infile, args.pcap_filter)(port)
    model = train(
        records,
        protocol=protocol,
        chunking=cfg,
        port=port,
        alpha=args.alpha,
        th_s=args.th_s,
        ignore_labels=args.ignore_labels,
    )
    size = save_model(model, args.out)
    s = model.summary
    print(
        f"trained on {s.trained}/{s.read} packets "
        f"({s.skipped_other_port} other-port, {s.skipped_empty} empty, "
        f"{s.skipped_malformed} malformed, {s.skipped_short} too short); "
        f"{len(model.classes)} classes; wrote {size} bytes to {args.out}"
    )
    return 0


def _scoring_inputs(args):
    """Check the scoring flags, then load the model, its Scorer at --th-s, and the corpus."""
    if args.score_threshold is not None:
        _checked(DetectorConfig, args.score_threshold)
    _checked(lambda: check_model_settings(th_s=args.th_s))
    read = _corpus(args.infile, args.pcap_filter)
    model = load_model(args.model)
    scorer = _checked(Scorer, model, args.th_s)
    cfg = DetectorConfig.for_model(model, args.score_threshold, chunks_enabled=not args.no_chunks)
    return scorer, cfg, read(model.port)


def _labels(path: str | None, records: list) -> LabelSet:
    """The sidecar CSV's labels when one is given, else the records' own."""
    return LabelSet.from_csv(path) if path else LabelSet.from_records(records)


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file; paths that do not both exist are compared absolute."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.abspath(a) == os.path.abspath(b)


def _refuse_overwrite(out_flag: str, out: str | None, *inputs) -> None:
    """Refuse, before anything is read, an output that names one of the (flag, path) inputs."""
    if out:
        for flag, path in inputs:
            if path and _same_file(out, path):
                raise _UsageError(f"{out_flag} names the same file as {flag}")


def _cmd_detect(args) -> int:
    _refuse_overwrite("--alerts", args.alerts, ("--in", args.infile), ("--model", args.model))
    scorer, cfg, records = _scoring_inputs(args)
    summary = DetectionSummary()
    out = open(args.alerts, "w", encoding="utf-8") if args.alerts else sys.stdout
    try:
        for rec_id, verdict in detect_stream(scorer, records, cfg, summary):
            out.write(verdict_line(rec_id, verdict) + "\n")
    finally:
        if args.alerts:
            out.close()
    print(
        f"scored {summary.scored} packets: {summary.legit} legit, "
        f"{summary.anomalous} anomalous, {summary.malformed} malformed, "
        f"{summary.no_model} no-model, {summary.unclassifiable} unclassifiable "
        f"({summary.skipped_other_port} other-port skipped)",
        file=sys.stderr,
    )
    return 3 if summary.alerts > 0 else 0


def _cmd_eval(args) -> int:
    scorer, cfg, records = _scoring_inputs(args)
    records = list(records)
    report = evaluate(scorer, records, _labels(args.labels, records), cfg)
    dr = "undefined" if report.dr is None else f"{report.dr:.3f}%"
    fpr = "undefined" if report.fpr is None else f"{report.fpr:.3f}%"
    print(f"detection rate: {dr} ({report.instances_detected}/{report.instances_total} instances)")
    print(f"false-positive rate: {fpr} ({report.false_alerts}/{report.legit_packets} legit packets)")
    print(f"unclassifiable legit packets excluded from the false-positive rate: {report.unclassifiable}")
    print(
        f"config: n={scorer.chunking.n} chunk_len={scorer.chunking.chunk_len} "
        f"alpha={scorer.alpha} th_s={scorer.th_s} score_threshold={cfg.score_threshold} "
        f"chunks={'on' if cfg.chunks_enabled else 'off'}"
    )
    return 0


def _cmd_sweep(args) -> int:
    _refuse_overwrite("--out", args.out, ("--train-in", args.train_in),
                      ("--test-in", args.test_in), ("--labels", args.labels))
    protocol, port = _training_settings(args)
    grid = _parse_grid(args.grid)
    read_train = _corpus(args.train_in, args.pcap_filter)
    read_test = _corpus(args.test_in, args.pcap_filter)
    train_records = list(read_train(port))
    test_records = list(read_test(port))
    rows = sweep(
        train_records, test_records, _labels(args.labels, test_records), grid,
        protocol=protocol, port=port, alpha=args.alpha, th_s=args.th_s,
    )
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except _UsageError as exc:
            args.parser.error(str(exc))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        return 1  # stdout's reader has gone, as under `| head`: nothing more to say
    except (PckadError, OSError) as exc:
        print(f"pckad: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # the interpreter would flush stdout again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

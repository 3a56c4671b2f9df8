"""Detection-rate / false-positive-rate evaluation and parameter sweeps.

Detection rate is counted per attack instance (an instance is detected when
at least one of its packets alerts); the false-positive rate is counted per
classifiable legitimate packet. An unclassifiable packet never alerts: an
attack instance made only of such packets counts as missed, and a legit one
is left out of the false-positive rate and counted in `unclassifiable`.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence

from .chunking import ChunkingConfig
from .corpus import PacketRecord, attack_instance_of, validate_label
from .detector import UNCLASSIFIABLE, DetectorConfig, Outcome, PayloadMemo, judge
from .errors import EvaluationError
from .model import DEFAULT_ALPHA, DEFAULT_TH_S, TrafficModel, check_model_settings, train
from .protocols import Protocol


@dataclass(frozen=True)
class LabelSet:
    """Record id -> 'legit' | 'attack:<instance>'."""

    by_id: dict[int, str]

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "LabelSet":
        by_id = {}
        for rec in records:
            if rec.label is not None:
                by_id[rec.id] = rec.label
        return cls(by_id)

    @classmethod
    def from_csv(cls, path) -> "LabelSet":
        """Sidecar label file: header `id,label`, ids are ASCII decimal ingest ordinals.

        A leading UTF-8 byte-order mark is skipped; errors name the 1-based line.
        """
        try:
            f = open(path, "r", encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise EvaluationError(f"cannot open labels {path}: {exc}") from exc
        with f:
            reader = csv.reader(f)
            try:
                return cls(_label_rows(reader, path))
            except UnicodeDecodeError:
                raise EvaluationError(f"{path}: invalid UTF-8") from None
            except csv.Error as exc:
                raise EvaluationError(f"{path}: line {reader.line_num}: {exc}") from None


def _label_rows(reader, path) -> dict[int, str]:
    by_id: dict[int, str] = {}
    header = next(reader, None)
    if header != ["id", "label"]:
        raise EvaluationError(f"{path}: expected header 'id,label', got {header}")
    for row in reader:
        if len(row) != 2:
            raise EvaluationError(f"{path}: line {reader.line_num}: expected 2 fields")
        # int() also takes "1_0", non-ASCII digits and surrounding spaces
        if not (row[0].isascii() and row[0].isdigit()):
            raise EvaluationError(f"{path}: line {reader.line_num}: bad id {row[0]!r}")
        rec_id = int(row[0])
        label = row[1]
        try:
            validate_label(label)
        except ValueError:
            raise EvaluationError(f"{path}: line {reader.line_num}: bad label {label!r}") from None
        if rec_id in by_id:
            raise EvaluationError(f"{path}: line {reader.line_num}: duplicate id {rec_id}")
        by_id[rec_id] = label
    return by_id


@dataclass(frozen=True)
class EvalReport:
    dr: float | None
    fpr: float | None
    instances_total: int
    instances_detected: int
    legit_packets: int
    false_alerts: int
    unclassifiable: int


def _outcomes(
    model: TrafficModel, records: Iterable[PacketRecord], labels: LabelSet
) -> list[tuple[str | None, Outcome]]:
    """(attack instance or None for legit, outcome) of every on-port record, in order.

    Each distinct payload is judged once, through a PayloadMemo.
    """
    memo = PayloadMemo(lambda rec: judge(model, rec.payload))
    out = []
    for rec in records:
        if rec.dst_port != model.port:
            continue
        label = labels.by_id.get(rec.id)
        if label is None:
            raise EvaluationError(f"record {rec.id} on port {model.port} has no label")
        out.append((attack_instance_of(label), memo.judge(rec)))
    return out


def _fold(outcomes: list[tuple[str | None, Outcome]], cfg: DetectorConfig) -> EvalReport:
    """DR/FPR of the outcomes under one score threshold and chunk mode."""
    detected: dict[str, bool] = {}
    legit_packets = 0
    false_alerts = 0
    unclassifiable = 0
    for instance, outcome in outcomes:
        alert = outcome.is_alert(cfg)
        if instance is not None:
            detected[instance] = detected.get(instance, False) or alert
        elif outcome.kind == UNCLASSIFIABLE:
            unclassifiable += 1
        else:
            legit_packets += 1
            false_alerts += alert
    instances_total = len(detected)
    instances_detected = sum(detected.values())
    dr = instances_detected / instances_total * 100.0 if instances_total else None
    fpr = false_alerts / legit_packets * 100.0 if legit_packets else None
    return EvalReport(
        dr=dr,
        fpr=fpr,
        instances_total=instances_total,
        instances_detected=instances_detected,
        legit_packets=legit_packets,
        false_alerts=false_alerts,
        unclassifiable=unclassifiable,
    )


def evaluate(
    model: TrafficModel,
    records: Iterable[PacketRecord],
    labels: LabelSet,
    cfg: DetectorConfig,
) -> EvalReport:
    """Score every on-port record and fold verdicts into DR/FPR.

    This is the one-cell case of `sweep`: the same outcomes, the same fold.
    """
    return _fold(_outcomes(model, records, labels), cfg)


@dataclass(frozen=True)
class GridSpec:
    """Sweep axes; an empty axis simply yields no rows, a repeated value is refused."""

    ns: tuple[int, ...]
    chunk_lens: tuple[int, ...]
    score_thresholds: tuple[float, ...]
    chunk_modes: tuple[bool, ...] = (True, False)

    def __post_init__(self):
        # every value must be valid on its own; n > chunk_len pairs are skipped cells
        for n in self.ns:
            ChunkingConfig(n, n)
        for chunk_len in self.chunk_lens:
            ChunkingConfig(1, chunk_len)
        for threshold in self.score_thresholds:
            DetectorConfig(threshold)
        # a repeated value would only repeat rows
        for axis in fields(self):
            values = getattr(self, axis.name)
            if len(set(values)) < len(values):
                raise ValueError(f"grid axis {axis.name} repeats a value: {values}")


@dataclass(frozen=True)
class SweepRow:
    n: int
    chunk_len: int
    th_s: float
    score_threshold: float
    chunks_enabled: bool
    report: EvalReport | None  # None marks a skipped (invalid) cell


SWEEP_CSV_HEADER = [
    "n", "len_ck", "th_s", "score_threshold", "chunks", "dr", "fpr",
    "instances", "detected", "legit_packets", "false_alerts", "unclassifiable",
]

# the report cells of a skipped row
_NO_REPORT = (None,) * len(fields(EvalReport))


def sweep(
    train_records: Sequence[PacketRecord],
    test_records: Sequence[PacketRecord],
    labels: LabelSet,
    grid: GridSpec,
    *,
    protocol: Protocol,
    port: int | None = None,
    alpha: float = DEFAULT_ALPHA,
    th_s: float = DEFAULT_TH_S,
) -> list[SweepRow]:
    """Train one model per (n, chunk_len) and evaluate every grid cell.

    Each distinct training payload is featurized once per model, and each
    distinct test payload is judged once per (n, chunk_len); the score
    thresholds and chunk modes are folds over those outcomes. Invalid
    cells (n > chunk_len) produce a row without a report and a warning on
    stderr. Rows come out in deterministic grid order.
    """
    check_model_settings(port, alpha, th_s)
    rows: list[SweepRow] = []
    for n in grid.ns:
        for chunk_len in grid.chunk_lens:
            if n > chunk_len:
                print(f"sweep: skipping invalid cell n={n} chunk_len={chunk_len}", file=sys.stderr)
                outcomes = None
            else:
                model = train(
                    iter(train_records),
                    protocol=protocol,
                    chunking=ChunkingConfig(n=n, chunk_len=chunk_len),
                    port=port,
                    alpha=alpha,
                    th_s=th_s,
                )
                outcomes = _outcomes(model, test_records, labels)
            for threshold in grid.score_thresholds:
                for chunks_enabled in grid.chunk_modes:
                    report = None if outcomes is None else _fold(
                        outcomes, DetectorConfig(threshold, chunks_enabled=chunks_enabled)
                    )
                    rows.append(SweepRow(n, chunk_len, th_s, threshold, chunks_enabled, report))
    return rows


def write_sweep_csv(rows: Iterable[SweepRow], path) -> None:
    try:
        f = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise EvaluationError(f"cannot write report {path}: {exc}") from exc
    with f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_CSV_HEADER)
        for row in rows:
            # csv writes None as an empty cell and a float as its repr
            report = _NO_REPORT if row.report is None else astuple(row.report)
            writer.writerow([row.n, row.chunk_len, row.th_s, row.score_threshold,
                             "on" if row.chunks_enabled else "off", *report])

"""Packet classification against a trained traffic model.

Each n-gram of a packet's relevant payload is judged by the smoothed
per-term Mahalanobis deviation |mean - x| / (std + alpha). An n-gram's
occurrences are anomalous when:

1. the n-gram was never observed in the packet's class, or
2. its whole-payload deviation exceeds th_s (all occurrences), or
3. the payload looks usual overall but the occurrences sit in chunks where
   the deviation exceeds th_s (only those occurrences).

The packet's score is the percentage of anomalous occurrences; it alerts
when the score strictly exceeds the protocol threshold. Packets whose class
has no model alert too: traffic unlike anything seen in training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .corpus import COMPACT_JSON, PacketRecord
from .model import (
    ABSENT_CHUNK,
    ClassKey,
    NGramStats,
    Skipped,
    TrafficModel,
    featurize,
)

LEGIT = "legit"
ANOMALOUS = "anomalous"
MALFORMED = "malformed"
NO_MODEL = "no_model"
UNCLASSIFIABLE = "unclassifiable"

ALERT_KINDS = frozenset({ANOMALOUS, MALFORMED, NO_MODEL})


def check_detector_settings(score_threshold: float | None) -> None:
    """Range-check the score threshold; None stands for "the protocol supplies it"."""
    if score_threshold is not None and not 0 <= score_threshold <= 100:
        raise ValueError("score_threshold must be within [0, 100]")


@dataclass(frozen=True)
class DetectorConfig:
    """How verdicts are drawn from a packet's judgement; th_s and alpha are the model's."""

    score_threshold: float
    chunks_enabled: bool = field(default=True, kw_only=True)

    def __post_init__(self):
        check_detector_settings(self.score_threshold)

    @classmethod
    def for_model(
        cls, model: TrafficModel, score_threshold: float | None = None, **settings
    ) -> "DetectorConfig":
        """The score threshold defaults to the model's protocol's; other settings pass through."""
        return cls(
            model.protocol.default_score_threshold if score_threshold is None else score_threshold,
            **settings,
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of scoring one packet."""

    kind: str
    score: float | None = None
    a_seqs: int | None = None
    tot_seqs: int | None = None
    reason: str | None = None
    class_key: ClassKey | None = None

    @property
    def is_alert(self) -> bool:
        return self.kind in ALERT_KINDS


def mahalanobis_term(mu: float, sigma: float, x: float, alpha: float) -> float:
    """Smoothed per-term deviation |mu - x| / (sigma + alpha)."""
    return abs(mu - x) / (sigma + alpha)


def anomalous_occurrences(
    stats: NGramStats | None,
    x_total: int,
    x_chunks: dict[int, int],
    alpha: float,
    th_s: float,
    chunks_enabled: bool,
) -> tuple[int, int]:
    """This n-gram's anomalous occurrences (a_on, a_off), with and without chunks.

    Rules 1-2 mark all occurrences in both modes; rule 3 marks occurrences in
    chunk mode only, and runs only when chunks_enabled is set. `judge`
    applies the same rules inline; this per-gram form is the plain one that
    the tests check it against.
    """
    if stats is None:
        return x_total, x_total
    # unpacked once: a NamedTuple's fields read slower by name than a tuple's by position
    mean, std, chunks = stats
    if mahalanobis_term(mean, std, x_total, alpha) > th_s:
        return x_total, x_total
    anomalous = 0
    if chunks_enabled:
        for j, x in x_chunks.items():
            mean, std = chunks.get(j, ABSENT_CHUNK)
            if mahalanobis_term(mean, std, x, alpha) > th_s:
                anomalous += x
    return anomalous, 0


class Outcome(NamedTuple):
    """One packet's judgement, before any score threshold or chunk mode is applied.

    kind is MALFORMED, NO_MODEL or UNCLASSIFIABLE when that is the verdict
    whatever the threshold, else None and the counts below decide it.
    """

    kind: str | None
    tot_seqs: int = 0
    a_on: int = 0  # anomalous occurrences under rules 1-3
    a_off: int = 0  # under rules 1-2 only
    reason: str | None = None
    class_key: ClassKey | None = None

    def a_seqs(self, cfg: DetectorConfig) -> int:
        return self.a_on if cfg.chunks_enabled else self.a_off

    def is_alert(self, cfg: DetectorConfig) -> bool:
        """Whether the packet alerts under cfg."""
        if self.kind is not None:
            return self.kind in ALERT_KINDS
        return self.a_seqs(cfg) / self.tot_seqs * 100.0 > cfg.score_threshold

    def verdict(self, cfg: DetectorConfig) -> Verdict:
        """The verdict under cfg."""
        if self.kind is not None:
            return Verdict(self.kind, reason=self.reason, class_key=self.class_key)
        a_seqs = self.a_seqs(cfg)
        kind = ANOMALOUS if self.is_alert(cfg) else LEGIT
        return Verdict(kind, a_seqs / self.tot_seqs * 100.0, a_seqs, self.tot_seqs,
                       class_key=self.class_key)


def judge(model: TrafficModel, record: PacketRecord, chunks_enabled: bool) -> Outcome:
    """Featurize one on-port packet and apply the per-gram rules once, at model.th_s.

    With chunks_enabled the outcome serves both chunk modes, else a_on is
    a_off. The rules are `anomalous_occurrences` written out inline and summed
    over the packet's n-grams, with the deviation computed in
    `mahalanobis_term`'s float operation order. Only the sums are kept: a
    caller that wants each n-gram's share asks `anomalous_occurrences`.
    """
    features = featurize(record, model.protocol, model.port, model.chunking)
    if isinstance(features, Skipped):
        if features.cause == "other_port":
            raise ValueError(features.reason)
        kind = MALFORMED if features.cause == "malformed" else UNCLASSIFIABLE
        return Outcome(kind, reason=features.reason)
    key, counts = features
    cls = model.classes.get(key)
    if cls is None:
        return Outcome(NO_MODEL, class_key=key)
    stats_get, alpha, th_s = cls.stats.get, model.alpha, model.th_s
    usual = {}  # n-gram -> its chunk stats, for the n-grams rules 1-2 leave to rule 3
    a_off = 0
    for gram, x in counts.totals.items():
        stats = stats_get(gram)
        if stats is not None:
            mean, std, chunks = stats
            if not abs(mean - x) / (std + alpha) > th_s:
                if chunks_enabled:
                    usual[gram] = chunks
                continue
        a_off += x
    a_on = a_off
    if usual:
        usual_get = usual.get
        for (gram, j), x in counts.pairs.items():
            chunks = usual_get(gram)
            if chunks is not None:
                mean, std = chunks.get(j, ABSENT_CHUNK)
                if abs(mean - x) / (std + alpha) > th_s:
                    a_on += x
    return Outcome(None, counts.tot_seqs, a_on, a_off, class_key=key)


def score_packet(model: TrafficModel, record: PacketRecord, cfg: DetectorConfig) -> Verdict:
    """Classify one packet whose destination port matches the model's."""
    return judge(model, record, cfg.chunks_enabled).verdict(cfg)


@dataclass
class DetectionSummary:
    """Verdict tallies over one detection run."""

    legit: int = 0
    anomalous: int = 0
    malformed: int = 0
    no_model: int = 0
    unclassifiable: int = 0
    skipped_other_port: int = 0

    @property
    def alerts(self) -> int:
        return sum(getattr(self, kind) for kind in ALERT_KINDS)

    @property
    def scored(self) -> int:
        return self.legit + self.anomalous + self.malformed + self.no_model + self.unclassifiable


def detect_stream(
    model: TrafficModel,
    records: Iterable[PacketRecord],
    cfg: DetectorConfig,
    summary: DetectionSummary | None = None,
) -> Iterator[tuple[int, Verdict]]:
    """Score every record on the model's port, in input order.

    Records for other ports are counted as skipped. Pass a summary to
    collect tallies while the stream is consumed.
    """
    if summary is None:
        summary = DetectionSummary()
    for rec in records:
        if rec.dst_port != model.port:
            summary.skipped_other_port += 1
            continue
        verdict = score_packet(model, rec, cfg)
        setattr(summary, verdict.kind, getattr(summary, verdict.kind) + 1)
        yield rec.id, verdict


def verdict_line(record_id: int, verdict: Verdict) -> str:
    """One JSON line per verdict, for alert files and stdout."""
    return COMPACT_JSON.encode(
        {
            "id": record_id,
            "verdict": verdict.kind,
            "score": verdict.score,
            "a_seqs": verdict.a_seqs,
            "tot_seqs": verdict.tot_seqs,
        }
    )

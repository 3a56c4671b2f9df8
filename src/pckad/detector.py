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

import json
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple

from .chunking import NGramCounts
from .corpus import PacketRecord
from .model import ClassKey, ClassModel, NGramStats, Skipped, TrafficModel, featurize

LEGIT = "legit"
ANOMALOUS = "anomalous"
MALFORMED = "malformed"
NO_MODEL = "no_model"
UNCLASSIFIABLE = "unclassifiable"

ALERT_KINDS = frozenset({ANOMALOUS, MALFORMED, NO_MODEL})


@dataclass(frozen=True)
class DetectorConfig:
    score_threshold: float
    th_s: float = 5.0
    chunks_enabled: bool = True

    def __post_init__(self):
        if not 0 <= self.score_threshold <= 100:
            raise ValueError("score_threshold must be within [0, 100]")
        if self.th_s <= 0:
            raise ValueError("th_s must be > 0")

    @classmethod
    def for_model(
        cls,
        model: TrafficModel,
        score_threshold: float | None = None,
        th_s: float | None = None,
        chunks_enabled: bool = True,
    ) -> "DetectorConfig":
        """Defaults taken from the model and its protocol."""
        return cls(
            score_threshold=(
                model.protocol.default_score_threshold
                if score_threshold is None else score_threshold
            ),
            th_s=model.th_s if th_s is None else th_s,
            chunks_enabled=chunks_enabled,
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
    top_contributors: tuple[tuple[bytes, int], ...] | None = None

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
    cfg: DetectorConfig,
    alpha: float,
) -> int:
    """How many of this n-gram's occurrences are anomalous (rules 1-3)."""
    if stats is None:
        return x_total
    if mahalanobis_term(stats.mean, stats.std, x_total, alpha) > cfg.th_s:
        return x_total
    if not cfg.chunks_enabled:
        return 0
    anomalous = 0
    for j, x in x_chunks.items():
        mean, std = stats.chunk_stats(j)
        if mahalanobis_term(mean, std, x, alpha) > cfg.th_s:
            anomalous += x
    return anomalous


def _anomalous_grams(
    cls: ClassModel, counts: NGramCounts, cfg: DetectorConfig, alpha: float
) -> list[tuple[bytes, int]]:
    """(n-gram, anomalous occurrences) for every n-gram that has any, in payload order."""
    stats, chunk_counts = cls.stats, counts.chunk_counts
    found = []
    for gram, x_total in counts.payload_counts.items():
        a = anomalous_occurrences(stats.get(gram), x_total, chunk_counts.get(gram, {}), cfg, alpha)
        if a:
            found.append((gram, a))
    return found


def _classified(
    model: TrafficModel, record: PacketRecord, chunks_enabled: bool
) -> Verdict | tuple[ClassKey, ClassModel, NGramCounts]:
    """Featurize an on-port record: its class and counts, or the verdict that ends it early."""
    chunking = model.chunking
    if chunking.chunks_enabled != chunks_enabled:
        chunking = replace(chunking, chunks_enabled=chunks_enabled)
    features = featurize(record, model.protocol, model.port, chunking)
    if isinstance(features, Skipped):
        if features.cause == "other_port":
            raise ValueError(features.reason)
        kind = MALFORMED if features.cause == "malformed" else UNCLASSIFIABLE
        return Verdict(kind, reason=features.reason)
    cls = model.classes.get(features.key)
    if cls is None:
        return Verdict(NO_MODEL, class_key=features.key)
    return features.key, cls, features.counts


def score_packet(model: TrafficModel, record: PacketRecord, cfg: DetectorConfig) -> Verdict:
    """Classify one packet whose destination port matches the model's."""
    found = _classified(model, record, cfg.chunks_enabled)
    if isinstance(found, Verdict):
        return found
    key, cls, counts = found
    contributors = _anomalous_grams(cls, counts, cfg, model.alpha)
    a_seqs = sum(a for _, a in contributors)
    score = a_seqs / counts.tot_seqs * 100.0
    if score > cfg.score_threshold:
        contributors.sort(key=lambda item: (-item[1], item[0]))
        return Verdict(
            ANOMALOUS,
            score=score,
            a_seqs=a_seqs,
            tot_seqs=counts.tot_seqs,
            class_key=key,
            top_contributors=tuple(contributors[:10]),
        )
    return Verdict(LEGIT, score=score, a_seqs=a_seqs, tot_seqs=counts.tot_seqs, class_key=key)


class Outcome(NamedTuple):
    """One packet's scoring, before any score threshold or chunk mode is applied.

    kind is MALFORMED, NO_MODEL or UNCLASSIFIABLE when that is the verdict
    whatever the threshold, else None and the counts below decide it.
    """

    kind: str | None
    tot_seqs: int = 0
    a_on: int = 0  # anomalous occurrences under rules 1-3
    a_off: int = 0  # under rules 1-2 only

    def is_alert(self, cfg: DetectorConfig) -> bool:
        """The verdict score_packet gives under cfg, as an alert flag."""
        if self.kind is not None:
            return self.kind in ALERT_KINDS
        a_seqs = self.a_on if cfg.chunks_enabled else self.a_off
        return a_seqs / self.tot_seqs * 100.0 > cfg.score_threshold


def score_outcome(model: TrafficModel, record: PacketRecord, cfg: DetectorConfig) -> Outcome:
    """Featurize and judge one packet once for every score threshold.

    cfg.score_threshold is not used. With cfg.chunks_enabled the outcome
    serves both chunk modes; without it, a_on equals a_off.
    """
    found = _classified(model, record, cfg.chunks_enabled)
    if isinstance(found, Verdict):
        return Outcome(found.kind)
    _, cls, counts = found
    a_on = a_off = 0
    for gram, a in _anomalous_grams(cls, counts, cfg, model.alpha):
        a_on += a
        # with no chunk counts, only rules 1 and 2 can fire
        a_off += anomalous_occurrences(
            cls.stats.get(gram), counts.payload_counts[gram], {}, cfg, model.alpha
        )
    return Outcome(None, counts.tot_seqs, a_on, a_off)


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
        return self.anomalous + self.malformed + self.no_model

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
    return json.dumps(
        {
            "id": record_id,
            "verdict": verdict.kind,
            "score": verdict.score,
            "a_seqs": verdict.a_seqs,
            "tot_seqs": verdict.tot_seqs,
        },
        separators=(",", ":"),
    )

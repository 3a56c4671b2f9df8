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

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .chunking import chunk_windows, distinct_windows
from .corpus import PacketRecord
from .model import (
    ABSENT_CHUNK,
    NGramStats,
    PayloadMemo,
    TrafficModel,
    deviates,
    featurize,
)

LEGIT = "legit"
ANOMALOUS = "anomalous"
MALFORMED = "malformed"
NO_MODEL = "no_model"
UNCLASSIFIABLE = "unclassifiable"

ALERT_KINDS = frozenset({ANOMALOUS, MALFORMED, NO_MODEL})


@dataclass(frozen=True)
class DetectorConfig:
    """How verdicts are drawn from a packet's judgement; th_s and alpha are the model's."""

    score_threshold: float
    chunks_enabled: bool = field(default=True, kw_only=True)

    def __post_init__(self):
        if not 0 <= self.score_threshold <= 100:
            raise ValueError("score_threshold must be within [0, 100]")

    @classmethod
    def for_model(
        cls, model: TrafficModel, score_threshold: float | None = None,
        *, chunks_enabled: bool = True,
    ) -> "DetectorConfig":
        """The score threshold defaults to the model's protocol's."""
        if score_threshold is None:
            score_threshold = model.protocol.default_score_threshold
        return cls(score_threshold, chunks_enabled=chunks_enabled)


@dataclass(frozen=True)
class Verdict:
    """Outcome of scoring one packet."""

    kind: str
    score: float | None = None
    a_seqs: int | None = None
    tot_seqs: int | None = None


def mahalanobis_term(mu: float, sigma: float, x: float, alpha: float) -> float:
    """Smoothed per-term deviation |mu - x| / (sigma + alpha)."""
    return abs(mu - x) / (sigma + alpha)


def anomalous_occurrences(
    stats: NGramStats | None, x_total: int, x_chunks: dict[int, int], alpha: float, th_s: float
) -> tuple[int, int]:
    """This n-gram's anomalous occurrences (a_on, a_off), with and without chunks.

    Rules 1-2 mark all occurrences in both sums; rule 3 marks occurrences in
    a_on only. `judge` decides the same rules by `pckad.model.deviates`, and
    nothing in the package calls this per-gram form. It stays as the plain
    form of the rules: `tests/test_fused.py` checks `judge` against it, and the
    benchmark's tracer (`bench/tracing.py`, `TRACED`) binds it by name, so
    without it the first traced round of `bench/run.py --trace 1` raises
    AttributeError and the run exits 1 with no result.
    """
    if stats is None:
        return x_total, x_total
    # unpacked once: a NamedTuple's fields read slower by name than a tuple's by position
    mean, std, chunks = stats
    if mahalanobis_term(mean, std, x_total, alpha) > th_s:
        return x_total, x_total
    anomalous = 0
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
            return Verdict(self.kind)
        a_seqs = self.a_seqs(cfg)
        kind = ANOMALOUS if self.is_alert(cfg) else LEGIT
        return Verdict(kind, a_seqs / self.tot_seqs * 100.0, a_seqs, self.tot_seqs)


def judge(model: TrafficModel, payload: bytes) -> Outcome:
    """Featurize one on-port payload and apply the per-gram rules once, at model.th_s.

    The outcome serves both chunk modes: it is the `Outcome` that
    `anomalous_occurrences` summed over the payload's n-grams gives. Both
    sums start at every window and lose the occurrences no rule marks.

    - An n-gram that repeats (only then is the payload counted; training
      makes the same `chunking.distinct_windows` test) is judged by
      `pckad.model.deviates`: rules 1-2 at its payload count x, and if they
      leave it alone, rule 3 at its count in each chunk. The sets then skip it.
    - An n-gram that occurs once occurs in one chunk, so each rule is a
      fixed yes/no per (class, n-gram, chunk), decided at count 1.
      `TrafficModel.usual_at_one`, a cached property, decides them by
      `deviates` at x = 1 for every class on the model's first judgement.
      a_off loses those in the class's payload set, and a_on those in their
      own chunk's set: one set intersection per chunk.

    Each chunk's windows come from `chunking.chunk_windows`, as in training.
    Only the sums are kept: a caller that wants each n-gram's share asks
    `anomalous_occurrences`.
    """
    features = featurize(payload, model.protocol, model.port, model.chunking)
    if isinstance(features, str):
        return Outcome(MALFORMED if features == "malformed" else UNCLASSIFIABLE)
    key, grams = features
    cls = model.classes.get(key)
    if cls is None:
        return Outcome(NO_MODEL)
    tot_seqs = len(grams)
    a_on = a_off = tot_seqs
    once, all_once = distinct_windows(grams)
    in_chunks = chunk_windows(grams, model.chunking.chunk_len)
    if not all_once:
        alpha, th_s = model.alpha, model.th_s
        repeats = {gram: x for gram, x in Counter(grams).items() if x > 1}
        once.difference_update(repeats)
        to_rule_3 = {}  # repeated n-gram -> its chunk stats, when rules 1-2 leave it alone
        for gram, x in repeats.items():
            stats = cls.stats.get(gram)
            if stats is not None:
                mean, std, chunks = stats
                if not deviates(mean, std, x, alpha, th_s):
                    to_rule_3[gram] = chunks
                    a_off -= x
        a_on = a_off
        if to_rule_3:
            for j, windows in enumerate(in_chunks):
                for gram, x in Counter(windows).items():
                    chunks = to_rule_3.get(gram)
                    if chunks is not None:
                        mean, std = chunks.get(j, ABSENT_CHUNK)
                        if deviates(mean, std, x, alpha, th_s):
                            a_on += x
        in_chunks = [[w for w in windows if w not in repeats] for windows in in_chunks]
    usual, usual_in_chunk, usual_rest = model.usual_at_one[key]
    for j, windows in enumerate(in_chunks):
        a_on -= len(usual_in_chunk.get(j, usual_rest).intersection(windows))
    return Outcome(None, tot_seqs, a_on, a_off - len(usual.intersection(once)))


def score_packet(model: TrafficModel, record: PacketRecord, cfg: DetectorConfig) -> Verdict:
    """Classify one packet; a record for another port than the model's is a ValueError."""
    if record.dst_port != model.port:
        raise ValueError(
            f"record {record.id} is for port {record.dst_port}, model is for {model.port}"
        )
    return judge(model, record.payload).verdict(cfg)


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
    summary: DetectionSummary,
) -> Iterator[tuple[int, Verdict]]:
    """Score every record on the model's port, in input order.

    Each distinct payload is scored once per call, through a PayloadMemo;
    its repeats get the same verdict. The summary tallies the verdicts of
    every record, and the records for other ports as skipped, while the
    stream is consumed.
    """
    memo = PayloadMemo()
    judged = memo.entries.get
    for rec in records:
        if rec.dst_port != model.port:
            summary.skipped_other_port += 1
            continue
        verdict = judged(rec.payload)
        if verdict is None:
            verdict = score_packet(model, rec, cfg)
            memo.put(rec.payload, verdict)
        setattr(summary, verdict.kind, getattr(summary, verdict.kind) + 1)
        yield rec.id, verdict


def verdict_line(record_id: int, verdict: Verdict) -> str:
    """One compact JSON line per verdict, for alert files and stdout.

    The bytes are `corpus.COMPACT_JSON`'s for the same five keys: a kind
    needs no escaping, and JSON writes an int as its str and a float as its
    repr. Malformed, no_model and unclassifiable verdicts have null counts.
    """
    if verdict.score is None:
        return (f'{{"id":{record_id},"verdict":"{verdict.kind}",'
                '"score":null,"a_seqs":null,"tot_seqs":null}')
    return (f'{{"id":{record_id},"verdict":"{verdict.kind}","score":{verdict.score!r},'
            f'"a_seqs":{verdict.a_seqs},"tot_seqs":{verdict.tot_seqs}}}')

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
has no model alert too: traffic unlike anything seen in training. Every
judgement reads one `Scorer`: a model at its own th_s or a lower one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .chunking import chunk_windows, distinct_windows, slice_windows
from .corpus import PacketRecord
from .model import (
    ABSENT_CHUNK,
    NGramStats,
    PayloadMemo,
    TrafficModel,
    check_model_settings,
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
    """How verdicts are drawn from a packet's judgement; th_s and alpha are the Scorer's."""

    score_threshold: float
    chunks_enabled: bool = field(default=True, kw_only=True)

    def __post_init__(self):
        if isinstance(self.score_threshold, bool) or not 0 <= self.score_threshold <= 100:
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


class Scorer:
    """Everything one judgement reads: one model's settings, judged at one th_s.

    th_s defaults to the model's own. Training left out only entries that
    rule 2 flags at any count, so a lower th_s is sound; a higher one is
    refused (ValueError), as is one out of range.

    classes maps each class's chunk count to (stats, usual, usual_in_chunk,
    rest), the n-grams whose single occurrence no rule marks: usual those that
    `deviates` clears at x = 1, usual_in_chunk[j] those that rule 3 also leaves
    alone in chunk j, for each j where one of them has an entry, and rest those
    in any other chunk, where they all read as ABSENT_CHUNK: usual, or none. Only
    existing chunk entries are visited: a model file's chunk count is not trusted.
    """

    __slots__ = ("protocol", "port", "chunking", "alpha", "th_s", "classes")

    def __init__(self, model: TrafficModel, th_s: float | None = None):
        th_s = model.th_s if th_s is None else th_s
        check_model_settings(th_s=th_s)
        if th_s > model.th_s:
            raise ValueError(
                f"th_s {th_s} is above the model's th_s {model.th_s}; "
                f"retrain the model at th_s {th_s} to judge at it"
            )
        self.protocol, self.port, self.chunking = model.protocol, model.port, model.chunking
        alpha = self.alpha = model.alpha
        self.th_s = th_s
        absent_usual = not deviates(*ABSENT_CHUNK, 1, alpha, th_s)
        self.classes = {}
        for key, cls in model.classes.items():
            usual_chunks = {gram: chunks for gram, (mean, std, chunks) in cls.stats.items()
                            if not deviates(mean, std, 1, alpha, th_s)}
            usual = set(usual_chunks)
            rest = usual if absent_usual else set()
            per_chunk: dict[int, set[bytes]] = {}
            for gram, chunks in usual_chunks.items():
                for j, (mean, std) in chunks.items():
                    here = per_chunk.get(j)
                    if here is None:
                        here = per_chunk[j] = set(rest)
                    if deviates(mean, std, 1, alpha, th_s):
                        here.discard(gram)
                    else:
                        here.add(gram)
            self.classes[key.chunk_count] = cls.stats, usual, per_chunk, rest


def judge(scorer: Scorer, payload: bytes) -> Outcome:
    """Featurize one on-port payload and apply the per-gram rules once, at scorer.th_s.

    The class, a chunk count, is looked up from the relevant length before any
    window is cut, so a payload whose class has no model costs no `slice_windows`.
    The outcome serves both chunk modes: it is the `Outcome` that
    `anomalous_occurrences` summed over the payload's n-grams gives. Both
    sums start at every window and lose the occurrences no rule marks.

    - An n-gram that repeats (only then is the payload counted; training
      makes the same `chunking.distinct_windows` test) is judged by
      `pckad.model.deviates`: rules 1-2 at its payload count x, and if they
      leave it alone, rule 3 at its count in each chunk. The sets then skip it.
    - An n-gram that occurs once, in one chunk, is decided by the scorer's
      sets at count 1: a_off loses those in the class's usual set, and a_on
      those in their own chunk's set, one set intersection per chunk.

    Each chunk's windows come from `chunking.chunk_windows`, as in training.
    A caller that wants each n-gram's share asks `anomalous_occurrences`.
    """
    features = featurize(payload, scorer.protocol, scorer.chunking)
    if isinstance(features, str):
        return Outcome(MALFORMED if features == "malformed" else UNCLASSIFIABLE)
    chunk_count, part = features
    entry = scorer.classes.get(chunk_count)
    if entry is None:
        return Outcome(NO_MODEL)
    grams = slice_windows(part, scorer.chunking)
    by_gram, usual, usual_in_chunk, usual_rest = entry
    tot_seqs = len(grams)
    a_on = a_off = tot_seqs
    once, all_once = distinct_windows(grams)
    in_chunks = chunk_windows(grams, scorer.chunking.chunk_len)
    if not all_once:
        alpha, th_s = scorer.alpha, scorer.th_s
        repeats = {gram: x for gram, x in Counter(grams).items() if x > 1}
        once.difference_update(repeats)
        to_rule_3 = {}  # repeated n-gram -> its chunk stats, when rules 1-2 leave it alone
        for gram, x in repeats.items():
            stats = by_gram.get(gram)
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
    for j, windows in enumerate(in_chunks):
        a_on -= len(usual_in_chunk.get(j, usual_rest).intersection(windows))
    return Outcome(None, tot_seqs, a_on, a_off - len(usual.intersection(once)))


def score_packet(scorer: Scorer, record: PacketRecord, cfg: DetectorConfig) -> Verdict:
    """Classify one packet; a record for another port than the model's is a ValueError."""
    if record.dst_port != scorer.port:
        raise ValueError(
            f"record {record.id} is for port {record.dst_port}, model is for {scorer.port}"
        )
    return judge(scorer, record.payload).verdict(cfg)


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
    scorer: Scorer | TrafficModel,
    records: Iterable[PacketRecord],
    cfg: DetectorConfig,
    summary: DetectionSummary,
) -> Iterator[tuple[int, Verdict]]:
    """Score every record on the model's port, in input order.

    Each distinct payload is scored once per call, through a PayloadMemo;
    its repeats get the same verdict. The summary tallies the verdicts of
    every record, and the records for other ports as skipped, while the
    stream is consumed.

    A TrafficModel is judged as `Scorer(model)`, built at the stream's first
    step. Only `bench/run.py` passes one; once it passes a Scorer, that can go.
    """
    if isinstance(scorer, TrafficModel):
        scorer = Scorer(scorer)
    memo = PayloadMemo()
    judged = memo.entries.get
    for rec in records:
        if rec.dst_port != scorer.port:
            summary.skipped_other_port += 1
            continue
        verdict = judged(rec.payload)
        if verdict is None:
            verdict = score_packet(scorer, rec, cfg)
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

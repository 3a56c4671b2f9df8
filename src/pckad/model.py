"""Semi-supervised traffic model: training and persistence.

A model is for one destination port, and its training packets are grouped
into classes by chunk count. For every n-gram observed in a class, the mean
and population standard deviation of its occurrence count are recorded, both
for the whole relevant payload and per chunk position; samples where the
n-gram is absent contribute a count of zero. An n-gram so rare that a single occurrence
already deviates beyond th_s gets no entry: the detector marks it exactly as
it marks an n-gram never seen (see `_ClassAccumulator.finalize`).

Model files are a single JSON document with sorted classes/n-grams so that
identical models serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .chunking import ChunkingConfig, chunk_windows, distinct_windows, slice_windows
from .corpus import PacketRecord, check_port
from .errors import CorpusError, ModelFormatError
from .protocols import Malformed, Protocol, extract_relevant

FORMAT_VERSION = 1


class ClassKey(NamedTuple):
    """A `TrafficModel.classes` key. port is always the model's, and elsewhere the package keys
    a class by chunk count alone; the key keeps port while `bench/reference.py` reads it."""

    port: int
    chunk_count: int


# (mean, std) of a chunk position where an n-gram never occurred in training
ABSENT_CHUNK = (0.0, 0.0)


class NGramStats(NamedTuple):
    """Mean/std of one n-gram's occurrence count within a class.

    chunks is sparse: positions where the n-gram never occurred in training
    are simply absent and read as ABSENT_CHUNK.
    """

    mean: float
    std: float
    chunks: dict[int, tuple[float, float]]


@dataclass(frozen=True)
class ClassModel:
    sample_count: int
    stats: dict[bytes, NGramStats]
    pruned: int = 0  # n-grams observed in training but left out of stats


def featurize(
    payload: bytes, protocol: Protocol, chunking: ChunkingConfig
) -> tuple[int, bytes] | str:
    """The one path from an on-port payload to its class and relevant bytes.

    Training, scoring and the sweep all featurize through here, once each
    has set aside the records for other ports, so the class is the chunk
    count alone: (ceil(len / chunk_len), part), read from the relevant
    length, with no window cut; `slice_windows` cuts part later. A payload
    with no window gives its cause instead: "empty", "malformed" or
    "short", naming the TrainingSummary counter `skipped_<cause>`.
    """
    if not payload:
        return "empty"
    relevant = extract_relevant(protocol, payload)
    if isinstance(relevant, Malformed):
        return "malformed"
    (part,) = relevant.components
    if len(part) < chunking.n:
        return "short"
    return -(-len(part) // chunking.chunk_len), part


@dataclass
class TrainingSummary:
    """What happened to each record offered for training."""

    read: int = 0
    trained: int = 0
    skipped_other_port: int = 0
    skipped_empty: int = 0
    skipped_malformed: int = 0
    skipped_short: int = 0


@dataclass(frozen=True)
class TrafficModel:
    protocol: Protocol
    port: int
    chunking: ChunkingConfig
    alpha: float
    th_s: float
    classes: dict[ClassKey, ClassModel]
    summary: TrainingSummary | None = field(default=None, compare=False)

    def __post_init__(self):
        check_model_settings(self.port, self.alpha, self.th_s)


def deviates(mean: float, std: float, x: int, alpha: float, th_s: float) -> bool:
    """Whether x occurrences deviate beyond th_s from an entry's (mean, std).

    The smoothed deviation |mean - x| / (std + alpha) of rules 2 and 3. Training
    prunes and `pckad.detector.Scorer` builds the judge's sets by it at x = 1,
    and `pckad.detector.judge` judges repeated n-grams by it at their counts.
    """
    return abs(mean - x) / (std + alpha) > th_s


# the largest finite float: `x <= _FLOAT_MAX` fails for NaN, infinity and huge integers
_FLOAT_MAX = sys.float_info.max

DEFAULT_ALPHA = 0.1
DEFAULT_TH_S = 5.0

# Bytes that a PayloadMemo may hold. An entry is charged its payload's length
# plus MEMO_ENTRY_BYTES, about what CPython spends on the entry beside the
# payload, so many tiny payloads cannot grow a memo past it.
MEMO_BYTES = 1 << 16
MEMO_ENTRY_BYTES = 256


@dataclass(slots=True)
class PayloadMemo:
    """One call's value for each distinct payload, within MEMO_BYTES.

    Training stores repeat counts, and the detector stores judgements;
    evaluate and the sweep group their records instead (`evaluate._groups`).
    The memo is keyed by payload alone, so callers check the record's port
    first. When the next entry would pass MEMO_BYTES, the memo empties
    first; an entry that would pass it alone is never kept, and `put` lets
    it go at once, after the entries emptied. entries is emptied in place,
    so a caller may hold `entries.get` for a whole call.
    """

    entries: dict[bytes, object] = field(default_factory=dict)
    size: int = 0  # the entries' charge

    def put(self, payload: bytes, value) -> dict:
        """Store a payload not yet in the memo; returns the entries let go, in order."""
        cost = len(payload) + MEMO_ENTRY_BYTES
        let_go = {}
        if self.size + cost > MEMO_BYTES:
            let_go = self.entries.copy()
            self.entries.clear()
            self.size = 0
        if cost > MEMO_BYTES:
            let_go[payload] = value
        else:
            self.entries[payload] = value
            self.size += cost
        return let_go


def check_model_settings(
    port: int | None = None, alpha: float | None = None, th_s: float | None = None
) -> None:
    """Range-check the model settings given; None skips one. Raises ValueError.

    A bool is refused: saved as true or false, it would not load.
    """
    if port is not None:
        check_port(port)
    for name, value in (("alpha", alpha), ("th_s", th_s)):
        if value is not None and (isinstance(value, bool) or not 0 < value <= _FLOAT_MAX):
            raise ValueError(f"{name} must be > 0")


def _mean_std(s1: int, s2: int, k: int) -> tuple[float, float]:
    """Mean and population std of k samples from their sum and sum of squares.

    The variance is one correctly rounded division of exact integers, so the
    std is 0 exactly when every sample has the same count.
    """
    return s1 / k, math.sqrt((k * s2 - s1 * s1) / (k * k))


class _ClassAccumulator:
    """One class's running sums (`train` keys them by chunk count), for exact mean/std.

    sums holds one (s1, extra) pair of dicts per window list: sums[0] over
    the whole payload, and sums[1 + j] over chunk j's `chunk_windows`. An
    n-gram that w samples hold x times in a list adds w*x to its s1 and
    w*x*(x - 1) to its extra. So the sum of squares, s2 = sum of w*x*x, is
    s1 + extra. Only a repeated window has x > 1, so extra stays sparse.
    """

    __slots__ = ("count", "sums")

    def __init__(self, chunk_count: int):
        self.count = 0
        self.sums: list[tuple[dict[bytes, int], dict[bytes, int]]] = [
            ({}, {}) for _ in range(1 + chunk_count)
        ]

    def add(self, grams: list[bytes], chunk_len: int, w: int) -> None:
        """Count w samples of these windows, per window list, in one of two forms.

        One sample that repeats no window (`chunking.distinct_windows`) holds
        each window once, so s1 gains 1 per window and extra nothing: one
        C-level count per list. Any other is counted per list with a Counter:
        s1 gains w*x, and a repeated window adds its excess to extra.
        """
        self.count += w
        lists = zip(self.sums, [grams, *chunk_windows(grams, chunk_len)])
        if w == 1 and distinct_windows(grams)[1]:
            for (s1, _), windows in lists:
                # Counter.update counts into any dict, in C. s1 is a plain dict because the
                # loop below assigns its items, which take about 3.7x as long on a Counter
                Counter.update(s1, windows)
            return
        for (s1, extra), windows in lists:
            s1_get = s1.get
            for gram, x in Counter(windows).items():
                wx = w * x
                s1[gram] = s1_get(gram, 0) + wx
                if x > 1:
                    extra[gram] = extra.get(gram, 0) + wx * (x - 1)

    def finalize(self, alpha: float, th_s: float) -> ClassModel:
        """The class's statistics, leaving out the entries that can change no verdict.

        Each list's s2 reads as s1 + extra, 0 for an n-gram with no extra.
        An n-gram with mean <= 1 that `deviates` at x = 1 deviates further at
        any count x >= 1 (x - mean cannot fall as x grows, in floats too). So
        rule 2 marks all its occurrences, exactly as rule 1 marks an n-gram
        with no entry, at th_s and at any lower th_s, the only ones a `Scorer` judges at.
        """
        k = self.count
        payload, extra = self.sums[0]
        stats: dict[bytes, NGramStats] = {}
        for gram, s1 in payload.items():
            mean, std = _mean_std(s1, s1 + extra.get(gram, 0), k)
            if mean <= 1 and deviates(mean, std, 1, alpha, th_s):
                continue
            stats[gram] = NGramStats(mean, std, {})
        for j, (chunk, extra) in enumerate(self.sums[1:]):
            for gram, c1 in chunk.items():
                if gram in stats:
                    stats[gram].chunks[j] = _mean_std(c1, c1 + extra.get(gram, 0), k)
        return ClassModel(sample_count=k, stats=stats, pruned=len(payload) - len(stats))


def train(
    records: Iterable[PacketRecord],
    *,
    protocol: Protocol,
    chunking: ChunkingConfig,
    port: int | None = None,
    alpha: float = DEFAULT_ALPHA,
    th_s: float = DEFAULT_TH_S,
    ignore_labels: bool = False,
) -> TrafficModel:
    """Build a model from an attack-free corpus.

    Records labeled as attacks abort training unless ignore_labels is set
    (then the labels are disregarded and the packets are used). Chunk
    statistics are always recorded; disabling the chunk rules is a
    detection-time choice.

    Records for other ports are counted as skipped and go no further.
    Repeats of one payload are featurized once and counted as one weighted
    sample: a PayloadMemo holds each payload's repeats, counted when the
    memo lets them go and at the end. The sums are exact integers, so the
    model is the one that record-by-record counting builds. The label check
    and the summary still count every record.
    """
    if port is None:
        port = protocol.default_port
    check_model_settings(port, alpha, th_s)
    summary = TrainingSummary()
    accumulators: dict[int, _ClassAccumulator] = {}  # by chunk count

    def count(repeats: dict[bytes, int]) -> None:
        for payload, w in repeats.items():
            features = featurize(payload, protocol, chunking)
            if isinstance(features, str):
                counter = "skipped_" + features
                setattr(summary, counter, getattr(summary, counter) + w)
                continue
            chunk_count, part = features
            if chunk_count not in accumulators:
                accumulators[chunk_count] = _ClassAccumulator(chunk_count)
            accumulators[chunk_count].add(slice_windows(part, chunking), chunking.chunk_len, w)
            summary.trained += w

    memo = PayloadMemo()
    repeats = memo.entries
    repeats_get = repeats.get
    for rec in records:
        summary.read += 1
        if rec.is_attack and not ignore_labels:
            raise CorpusError(
                f"record {rec.id} is labeled {rec.label!r}; the training corpus "
                "must be attack-free (use ignore_labels to override)"
            )
        if rec.dst_port != port:
            summary.skipped_other_port += 1
            continue
        payload = rec.payload
        w = repeats_get(payload)
        if w is not None:
            repeats[payload] = w + 1
            continue
        count(memo.put(payload, 1))
    count(repeats)

    if summary.trained == 0:
        raise CorpusError("no trainable packets in corpus")
    return TrafficModel(
        protocol=protocol,
        port=port,
        chunking=chunking,
        alpha=alpha,
        th_s=th_s,
        classes={ClassKey(port, chunk_count): acc.finalize(alpha, th_s)
                 for chunk_count, acc in accumulators.items()},
        summary=summary,
    )


def _model_to_doc(model: TrafficModel) -> dict:
    classes = []
    for key in sorted(model.classes):
        cls = model.classes[key]
        ngrams = []
        for gram in sorted(cls.stats):
            st = cls.stats[gram]
            ngrams.append({
                "gram_hex": gram.hex(),
                "mean": st.mean,
                "std": st.std,
                "chunks": [
                    {"j": j, "mean": m, "std": s}
                    for j, (m, s) in sorted(st.chunks.items())
                ],
            })
        classes.append({
            "port": key.port,
            "nck_total": key.chunk_count,
            "sample_count": cls.sample_count,
            "pruned": cls.pruned,
            "ngrams": ngrams,
        })
    return {
        "format_version": FORMAT_VERSION,
        "protocol": model.protocol.value,
        "port": model.port,
        "n": model.chunking.n,
        "chunk_len": model.chunking.chunk_len,
        "alpha": model.alpha,
        "th_s": model.th_s,
        "classes": classes,
    }


def save_model(model: TrafficModel, path) -> int:
    """Serialize the model to a JSON file; returns bytes written."""
    data = json.dumps(_model_to_doc(model), separators=(",", ":"), allow_nan=False)
    encoded = data.encode("utf-8") + b"\n"
    try:
        with open(path, "wb") as f:
            f.write(encoded)
    except OSError as exc:
        raise ModelFormatError(f"cannot write model {path}: {exc}") from exc
    return len(encoded)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise ModelFormatError(f"invalid model file: {msg}")


def _is_num(v) -> bool:
    """A JSON number: a float or an int, not a bool."""
    return type(v) is float or type(v) is int


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_model(path) -> TrafficModel:
    """Load and validate a model file written by save_model.

    Any file it cannot load, malformed or hostile, raises ModelFormatError.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: not a valid model file ({exc})") from exc
    except RecursionError:
        raise ModelFormatError(f"{path}: not a valid model file (nested too deeply)") from None

    _expect(isinstance(doc, dict), "top level must be an object")
    version = doc.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version: {version!r}")
    proto_name = doc.get("protocol")
    _expect(proto_name in [p.value for p in Protocol], f"unknown protocol {proto_name!r}")
    protocol = Protocol(proto_name)
    port = doc.get("port")
    _expect(_is_int(port), "bad port")
    n = doc.get("n")
    _expect(_is_int(n), "bad n")
    chunk_len = doc.get("chunk_len")
    _expect(_is_int(chunk_len), "chunk_len must be >= n")
    alpha = doc.get("alpha")
    _expect(_is_num(alpha), "alpha must be > 0")
    th_s = doc.get("th_s")
    _expect(_is_num(th_s), "th_s must be > 0")
    try:
        check_model_settings(port, alpha, th_s)
        chunking = ChunkingConfig(n, chunk_len)
    except ValueError as exc:
        raise ModelFormatError(f"invalid model file: {exc}") from exc
    raw_classes = doc.get("classes")
    _expect(isinstance(raw_classes, list), "classes must be a list")

    # The per-entry checks below are written out inline, with _expect called
    # only to fail. As plain `_expect(cond, msg)` calls they were 4 lines
    # shorter, but loading the benchmark's 1,157-n-gram http-pcap model took
    # 8-64 % longer (median 15 %) in 8 of 8 alternating in-process pairs.
    hex_len = 2 * n
    classes: dict[ClassKey, ClassModel] = {}
    for rc in raw_classes:
        _expect(isinstance(rc, dict), "class entry must be an object")
        class_port = rc.get("port")
        _expect(_is_int(class_port) and class_port == port, "class port differs from model port")
        nck_total = rc.get("nck_total")
        _expect(_is_int(nck_total) and nck_total >= 1, "bad nck_total")
        sample_count = rc.get("sample_count")
        _expect(_is_int(sample_count) and sample_count >= 1, "sample_count must be >= 1")
        # absent in files written before training left entries out
        pruned = rc.get("pruned", 0)
        _expect(_is_int(pruned) and pruned >= 0, "pruned must be >= 0")
        key = ClassKey(port, nck_total)
        _expect(key not in classes, f"duplicate class {key}")
        raw_ngrams = rc.get("ngrams")
        _expect(isinstance(raw_ngrams, list), "ngrams must be a list")
        # a chunk count above the float range saturates the tolerance, not overflows it
        tolerance = 1e-9 * min(nck_total, _FLOAT_MAX)
        stats: dict[bytes, NGramStats] = {}
        for rg in raw_ngrams:
            if type(rg) is not dict:
                _expect(False, "ngram entry must be an object")
            gram_hex = rg.get("gram_hex")
            if type(gram_hex) is not str or len(gram_hex) != hex_len:
                _expect(False, "bad gram_hex length")
            try:
                gram = bytes.fromhex(gram_hex)
            except ValueError:
                gram = b""  # n >= 1, so the length check below rejects it
            # fromhex skips whitespace: " 2d6c " has 2n characters but n - 1 bytes
            if len(gram) != n:
                raise ModelFormatError(f"invalid model file: bad gram_hex {gram_hex!r}")
            if gram in stats:
                _expect(False, f"duplicate n-gram {gram_hex}")
            mean = rg.get("mean")
            std = rg.get("std")
            if not ((type(mean) is float or type(mean) is int) and 0 <= mean <= _FLOAT_MAX):
                _expect(False, "mean must be >= 0")
            if not ((type(std) is float or type(std) is int) and 0 <= std <= _FLOAT_MAX):
                _expect(False, "std must be >= 0")
            raw_chunks = rg.get("chunks")
            if type(raw_chunks) is not list:
                _expect(False, "chunks must be a list")
            chunk_stats: dict[int, tuple[float, float]] = {}
            for ch in raw_chunks:
                if type(ch) is not dict:
                    _expect(False, "chunk entry must be an object")
                j = ch.get("j")
                if type(j) is not int or not 0 <= j < nck_total:
                    _expect(False, "chunk index out of range")
                if j in chunk_stats:
                    _expect(False, f"duplicate chunk index {j}")
                cm = ch.get("mean")
                cs = ch.get("std")
                if not ((type(cm) is float or type(cm) is int) and 0 <= cm <= _FLOAT_MAX):
                    _expect(False, "chunk mean must be >= 0")
                if not ((type(cs) is float or type(cs) is int) and 0 <= cs <= _FLOAT_MAX):
                    _expect(False, "chunk std must be >= 0")
                chunk_stats[j] = (float(cm), float(cs))
            chunk_mean_sum = sum(m for m, _ in chunk_stats.values())
            if not abs(chunk_mean_sum - mean) <= tolerance:
                _expect(False, f"chunk means sum to {chunk_mean_sum!r}, payload mean is {mean!r}")
            stats[gram] = NGramStats(float(mean), float(std), chunk_stats)
        classes[key] = ClassModel(sample_count=sample_count, stats=stats, pruned=pruned)

    return TrafficModel(
        protocol=protocol,
        port=port,
        chunking=chunking,
        alpha=float(alpha),
        th_s=float(th_s),
        classes=classes,
    )

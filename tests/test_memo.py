"""Each distinct payload is counted and judged once per call, with the same results.

One memo, `model.PayloadMemo`, serves training and detection: `train` keeps
each on-port payload's repeats in it and counts them as one weighted sample,
and `detect_stream` keeps each distinct on-port payload's judgement in it.
The memo is keyed by the payload alone, holds at most `model.MEMO_BYTES`, and
never holds a record for another port: those are counted as skipped before
the memo sees them. `evaluate` and `sweep` hold no memo: they group the test
records into distinct (instance, payload) pairs and judge each distinct
payload once. Every output must equal the record-by-record one: the model
with its entry order and file bytes, the training summary, every verdict and
tally, every report and sweep row. The memo's budget is also squeezed until
it keeps one entry or none, and until a repeated payload no longer fits it.
"""

import importlib
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from pckad import (
    AnomalyKind,
    ChunkingConfig,
    CorpusError,
    DetectionSummary,
    DetectorConfig,
    GenSpec,
    GridSpec,
    LabelSet,
    PacketRecord,
    Protocol,
    Scorer,
    TrainingSummary,
    detect_stream,
    evaluate,
    gen_legit,
    inject_corpus,
    save_model,
    score_packet,
    sweep,
    train,
)
from pckad import detector, model as model_module
from pckad.model import MEMO_ENTRY_BYTES, PayloadMemo, featurize

from helpers import counting, ftp_records, reference_report, unpruned_model

PROTOCOLS = [Protocol.FTP, Protocol.HTTP]
CHUNKING = ChunkingConfig(3, 15)
OTHER_PORT = 8080
# the package's `evaluate` attribute is the function of that name
evaluate_module = importlib.import_module("pckad.evaluate")


def skipped_payloads(protocol):
    """Payloads that training skips: empty, and short on FTP or malformed on HTTP."""
    return [b"", b"a"] + ([b"GET /x\r\n"] if protocol is Protocol.HTTP else [])


def no_model_payload(protocol):
    """A payload too long for any trained class."""
    if protocol is Protocol.HTTP:
        return b"GET /" + b"a" * 300 + b" HTTP/1.1\r\nHost: h\r\n\r\n"
    return b"RETR " + b"z" * 300 + b"\r\n"


def corpora(protocol):
    """(training records, test records) drawn with heavy repeats from small pools.

    Both hold repeated empty payloads, short ones on FTP, malformed ones on
    HTTP, and records for another port whose payloads also come on the
    model's port. The test records hold injected attacks and no-model
    payloads too.
    """
    port = protocol.default_port
    legit = gen_legit(GenSpec(protocol, 30, seed=21))
    attacks = inject_corpus(gen_legit(GenSpec(protocol, 12, seed=22)),
                            AnomalyKind.UNSEEN_GRAM, 6, seed=23, cfg=CHUNKING)
    skipped = skipped_payloads(protocol)
    rng = random.Random(24)

    train_pool = [r.payload for r in legit] + skipped
    training = []
    for i in range(400):
        payload = rng.choice(train_pool)
        dst_port = OTHER_PORT if i % 17 == 0 else port
        training.append(PacketRecord(id=i, dst_port=dst_port, payload=payload, label="legit"))

    test_pool = ([(r.payload, "legit") for r in legit]
                 + [(r.payload, r.label) for r in attacks]
                 + [(p, "legit") for p in skipped + [no_model_payload(protocol)]])
    test = []
    for i in range(400):
        payload, label = rng.choice(test_pool)
        dst_port = OTHER_PORT if i % 13 == 0 else port
        test.append(PacketRecord(id=i, dst_port=dst_port, payload=payload, label=label))
    return training, test


def trained(protocol, training, chunking=CHUNKING):
    return train(iter(training), protocol=protocol, chunking=chunking)


@pytest.fixture
def budget(monkeypatch):
    """`budget.set(b)` sets MEMO_BYTES; `budget.held` is a memo's entry count
    after each store since then. Every store, in training too, is checked
    against the budget."""
    held = []

    def set_budget(value):
        monkeypatch.setattr(model_module, "MEMO_BYTES", value)
        held.clear()

    original = PayloadMemo.put

    def checked(self, payload, value):
        let_go = original(self, payload, value)
        assert self.size == sum(len(p) + MEMO_ENTRY_BYTES for p in self.entries)
        assert self.size <= model_module.MEMO_BYTES
        held.append(len(self.entries))
        return let_go

    monkeypatch.setattr(PayloadMemo, "put", checked)
    return SimpleNamespace(set=set_budget, held=held)


# "default" keeps the library's budget; "one" holds one entry at a time (any
# two entries pass it, and payloads of MEMO_ENTRY_BYTES or more are not
# kept), so the memo empties at every miss; "none" holds no entry
BUDGETS = ["default", "one", "none"]


def apply(budget, which):
    if which == "one":
        budget.set(2 * MEMO_ENTRY_BYTES - 1)
    elif which == "none":
        budget.set(0)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_corpus_has_every_odd_kind(protocol):
    """The corpora reach every verdict kind and skip cause that the memos must keep apart."""
    training, test = corpora(protocol)
    model = trained(protocol, training)
    scorer = Scorer(model)
    kinds = Counter(score_packet(scorer, r, DetectorConfig.for_model(model)).kind
                    for r in test if r.dst_port == model.port)
    want = {"legit", "anomalous", "unclassifiable", "no_model"}
    if protocol is Protocol.HTTP:
        want.add("malformed")
    assert want <= set(kinds)
    assert min(kinds[k] for k in want) >= 2
    shared = {r.payload for r in test if r.dst_port == OTHER_PORT}
    assert shared & {r.payload for r in test if r.dst_port == model.port}
    assert len({r.payload for r in test}) < len(test) / 4


class TestJudgementMemo:
    @pytest.mark.parametrize("which", BUDGETS)
    @pytest.mark.parametrize("chunks_enabled", [True, False])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_detect_stream_equals_per_record_scoring(self, protocol, chunks_enabled, which,
                                                     budget, monkeypatch):
        training, test = corpora(protocol)
        model = trained(protocol, training)
        scorer = Scorer(model)
        cfg = DetectorConfig.for_model(model, chunks_enabled=chunks_enabled)
        on_port = [r for r in test if r.dst_port == model.port]
        want = [(r.id, score_packet(scorer, r, cfg)) for r in on_port]
        apply(budget, which)
        scored = counting(monkeypatch, detector, "score_packet")

        summary = DetectionSummary()
        assert list(detect_stream(scorer, test, cfg, summary)) == want
        tally = Counter(v.kind for _, v in want)
        assert summary == DetectionSummary(**tally, skipped_other_port=len(test) - len(on_port))
        distinct = len({r.payload for r in on_port})
        if which == "default":
            assert len(scored) == distinct
        else:
            assert len(scored) > distinct
        if which == "one":
            assert max(budget.held) == 1
        elif which == "none":
            assert max(budget.held) == 0

    @pytest.mark.parametrize("chunks_enabled", [True, False])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_evaluate_equals_per_record_judging(self, protocol, chunks_enabled, monkeypatch):
        training, test = corpora(protocol)
        model = trained(protocol, training)
        scorer = Scorer(model)
        labels = LabelSet.from_records(test)
        cfg = DetectorConfig.for_model(model, chunks_enabled=chunks_enabled)
        on_port = [r for r in test if r.dst_port == model.port]
        want = reference_report(scorer, on_port, cfg)
        judged = counting(monkeypatch, evaluate_module, "judge")

        assert evaluate(scorer, test, labels, cfg) == want
        # one judgement per distinct on-port payload, in first-seen order
        assert [args[1] for args in judged] == list(dict.fromkeys(r.payload for r in on_port))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sweep_equals_per_record_folds(self, protocol):
        training, test = corpora(protocol)
        labels = LabelSet.from_records(test)
        grid = GridSpec((2, 3), (7, 15), (30.0, 40.0), (True, False))
        want = []
        for n in grid.ns:
            for chunk_len in grid.chunk_lens:
                scorer = Scorer(trained(protocol, training, ChunkingConfig(n, chunk_len)))
                on_port = [r for r in test if r.dst_port == scorer.port]
                for threshold in grid.score_thresholds:
                    for chunks_enabled in grid.chunk_modes:
                        cfg = DetectorConfig(threshold, chunks_enabled=chunks_enabled)
                        want.append((n, chunk_len, threshold, chunks_enabled,
                                     reference_report(scorer, on_port, cfg)))

        rows = sweep(training, test, labels, grid, protocol=protocol)
        assert [(r.n, r.chunk_len, r.score_threshold, r.chunks_enabled, r.report)
                for r in rows] == want

    def test_payload_too_large_for_the_budget_is_let_go_at_once(self, budget):
        budget.set(MEMO_ENTRY_BYTES + 4)
        memo = PayloadMemo()
        assert memo.put(b"abcd", 4) == {}
        assert memo.entries == {b"abcd": 4}
        # the memo empties before an entry that would pass the budget
        assert memo.put(b"efgh", 8) == {b"abcd": 4}
        assert memo.entries == {b"efgh": 8}
        # an entry past the budget on its own is let go last, after the entries emptied
        assert list(memo.put(b"abcde", 5).items()) == [(b"efgh", 8), (b"abcde", 5)]
        assert memo.entries == {} and memo.size == 0
        assert memo.put(b"vwxyz", 6) == {b"vwxyz": 6}
        assert memo.entries == {} and memo.size == 0


def per_record_summary(records, protocol, chunking):
    """The TrainingSummary of record-by-record featurizing."""
    summary = TrainingSummary(read=len(records))
    for rec in records:
        if rec.dst_port != protocol.default_port:
            summary.skipped_other_port += 1
            continue
        features = featurize(rec.payload, protocol, protocol.default_port, chunking)
        if isinstance(features, str):
            counter = "skipped_" + features
            setattr(summary, counter, getattr(summary, counter) + 1)
        else:
            summary.trained += 1
    return summary


def layout(model):
    """Class order and each class's entry order, which equality of dicts leaves out."""
    return [(key, list(cls.stats)) for key, cls in model.classes.items()]


# `_ClassAccumulator.add`'s cases, (weighted, repeats a window) -> FTP payloads of that case:
# each payload comes once when unweighted and three times when weighted, at n = 2 and 3
ADD_CASES = {
    (False, False): [b"USER alice\r\n", b"CWD /pub/src\r\n", b"PASS hunter2\r\n"],
    (False, True): [b"RETR aaaaaa\r\n", b"MKD abab/abab\r\n", b"NLST -l -l\r\n"],
    (True, False): [b"USER bob\r\n", b"CWD /tmp/xyz\r\n", b"TYPE I\r\n"],
    (True, True): [b"STOR ababab\r\n", b"DELE zzzz\r\n", b"LIST -a -a\r\n"],
}


def case_id(cases):
    return "+".join(f"w{'>' if w else '='}1-{'repeats' if r else 'distinct'}" for w, r in cases)


class TestGroupedTraining:
    @pytest.mark.parametrize("chunking", [CHUNKING, ChunkingConfig(2, 7)], ids=str)
    @pytest.mark.parametrize("which", ["default", "none"])
    @pytest.mark.parametrize("cases", [list(ADD_CASES), *([case] for case in ADD_CASES)],
                             ids=case_id)
    def test_each_case_of_add_keeps_exact_entries(self, cases, which, chunking, budget,
                                                  monkeypatch):
        payloads = [p for case in cases for p in ADD_CASES[case] for _ in range(1 + 2 * case[0])]
        records = ftp_records(random.Random(27).sample(payloads, len(payloads)))
        apply(budget, which)
        added = counting(monkeypatch, model_module._ClassAccumulator, "add")
        model = trained(Protocol.FTP, records, chunking)

        # (self, grams, chunk_len, w): the budget of none holds no repeat, so every w is 1
        reached = {(w > 1, len(set(grams)) < len(grams)) for _, grams, _, w in added}
        assert reached == {(False, r) if which == "none" else (w, r) for w, r in cases}
        full = unpruned_model(records, Protocol.FTP, chunking)
        assert model.classes.keys() == full.classes.keys()
        for key, cls in model.classes.items():
            ref = full.classes[key]
            assert cls.sample_count == ref.sample_count
            assert cls.stats and cls.stats == {g: ref.stats[g] for g in cls.stats}
            assert cls.pruned == len(ref.stats) - len(cls.stats)

    @pytest.mark.parametrize("chunking", [CHUNKING, ChunkingConfig(2, 7)])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_one_entry_budget_builds_the_same_model(self, protocol, chunking, budget,
                                                    tmp_path, monkeypatch):
        training, _ = corpora(protocol)
        featurized = counting(monkeypatch, model_module, "featurize")
        at_default = trained(protocol, training, chunking)
        # the whole corpus fits the default budget: one featurize per distinct on-port payload
        on_port = {r.payload for r in training if r.dst_port == protocol.default_port}
        assert len(featurized) == len(on_port)
        budget.set(0)
        one_entry = trained(protocol, training, chunking)

        assert one_entry == at_default
        assert layout(one_entry) == layout(at_default)
        assert save_model(one_entry, tmp_path / "a") == save_model(at_default, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        want = per_record_summary(training, protocol, chunking)
        assert at_default.summary == one_entry.summary == want
        # a request line is never shorter than n
        causes = ["other_port", "empty", "malformed" if protocol is Protocol.HTTP else "short"]
        for cause in causes:
            assert getattr(want, "skipped_" + cause) >= 2

    def test_off_port_records_are_neither_featurized_nor_kept(self, budget, monkeypatch):
        on_port = {r.payload for r in gen_legit(GenSpec(Protocol.FTP, 6, seed=25))}
        off_port = [b"SITE off-port %d\r\n" % i for i in range(200)]
        assert not on_port & set(off_port)
        repeats = sorted(on_port)
        records = []
        for i, payload in enumerate(off_port):
            records.append(PacketRecord(id=2 * i, dst_port=OTHER_PORT, payload=payload))
            records.append(PacketRecord(id=2 * i + 1, dst_port=21,
                                        payload=repeats[i % len(repeats)]))
        at_default = trained(Protocol.FTP, records)
        # room for the on-port payloads and nothing more
        budget.set(sum(len(p) + MEMO_ENTRY_BYTES for p in on_port))
        featurized = counting(monkeypatch, model_module, "featurize")
        squeezed = trained(Protocol.FTP, records)

        assert len(featurized) == len(on_port)
        assert sorted(args[0] for args in featurized) == sorted(on_port)
        assert squeezed == at_default
        assert layout(squeezed) == layout(at_default)
        assert squeezed.summary == at_default.summary == TrainingSummary(
            read=400, trained=200, skipped_other_port=200
        )

    def test_payload_too_large_for_the_budget_is_counted_per_record(self, budget, tmp_path,
                                                                     monkeypatch):
        small = sorted({r.payload for r in gen_legit(GenSpec(Protocol.FTP, 6, seed=26))})
        large = b"STOR " + b"q" * 2000 + b"\r\n"
        # repeats of the large payload come in runs, between repeats of the small ones
        order = [0, "L", "L", 1, 2, "L", 0, "L", "L", "L", 3, 1, "L", 4, 0]
        payloads = [large if i == "L" else small[i % len(small)] for i in order * 3]
        records = [PacketRecord(id=i, dst_port=21, payload=p) for i, p in enumerate(payloads)]
        at_default = trained(Protocol.FTP, records)
        # room for every small payload, and not for the large one on its own
        budget.set(sum(len(p) + MEMO_ENTRY_BYTES for p in small))
        assert len(large) + MEMO_ENTRY_BYTES > model_module.MEMO_BYTES
        featurized = counting(monkeypatch, model_module, "featurize")
        squeezed = trained(Protocol.FTP, records)

        assert sum(args[0] == large for args in featurized) == payloads.count(large)
        assert squeezed == at_default
        assert layout(squeezed) == layout(at_default)
        assert save_model(squeezed, tmp_path / "a") == save_model(at_default, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        assert squeezed.summary == at_default.summary == per_record_summary(
            records, Protocol.FTP, CHUNKING
        )

    @pytest.mark.parametrize("which", ["default", "none"])
    def test_attack_repeating_a_legit_payload_is_fatal(self, which, budget):
        if which == "none":
            budget.set(0)
        records = [
            PacketRecord(id=0, dst_port=21, payload=b"USER alice\r\n", label="legit"),
            PacketRecord(id=1, dst_port=21, payload=b"PASS x\r\n", label="legit"),
            PacketRecord(id=2, dst_port=21, payload=b"USER alice\r\n", label="attack:a1"),
        ]
        with pytest.raises(CorpusError, match=r"record 2 is labeled 'attack:a1'"):
            trained(Protocol.FTP, records)
        model = train(iter(records), protocol=Protocol.FTP, chunking=CHUNKING, ignore_labels=True)
        assert model.summary == TrainingSummary(read=3, trained=3)
        assert model.classes[(21, 1)].sample_count == 3

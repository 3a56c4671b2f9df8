import copy
import hashlib
import json
import math
import re
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pckad import (
    ChunkingConfig,
    ClassKey,
    CorpusError,
    GenSpec,
    ModelFormatError,
    NGramStats,
    PacketRecord,
    Protocol,
    TrafficModel,
    extract_relevant,
    gen_legit,
    load_model,
    save_model,
    train,
    write_jsonl,
)
from pckad.detector import Outcome, Scorer, judge
from pckad.model import featurize

from helpers import ftp_model, ftp_records, reference_counts

CFG = ChunkingConfig(n=2, chunk_len=15)


class TestTrainingStats:
    def test_constant_counts_give_zero_std(self):
        model = ftp_model([b"abab"] * 3)
        stats = model.classes[ClassKey(21, 1)].stats
        assert stats[b"ab"].mean == 2.0
        assert stats[b"ab"].std == 0.0

    def test_absent_counts_as_zero(self):
        # one sample with 4 occurrences of "ab", one with none
        model = ftp_model([b"ababababa", b"ccccccccc"])
        stats = model.classes[ClassKey(21, 1)].stats
        assert stats[b"ab"].mean == statistics.mean([0, 4]) == 2.0
        assert stats[b"ab"].std == statistics.pstdev([0, 4]) == 2.0

    def test_one_class_per_chunk_count(self):
        model = ftp_model([b"x" * 10, b"y" * 20])
        assert set(model.classes) == {ClassKey(21, 1), ClassKey(21, 2)}
        assert model.classes[ClassKey(21, 1)].sample_count == 1
        assert model.classes[ClassKey(21, 2)].sample_count == 1

    def test_stats_match_brute_force_recomputation(self):
        records = gen_legit(GenSpec(Protocol.FTP, 400, seed=21))
        cfg = ChunkingConfig(3, 15)
        model = train(iter(records), protocol=Protocol.FTP, chunking=cfg)

        # independently regroup the corpus and recompute every statistic
        per_class: dict = {}
        for rec in records:
            rel = extract_relevant(Protocol.FTP, rec.payload)
            totals, per_chunk, nck = reference_counts(rel.components[0], cfg)
            per_class.setdefault(nck, []).append((totals, per_chunk))
        for chunk_count, samples in per_class.items():
            cls = model.classes[ClassKey(21, chunk_count)]
            assert cls.sample_count == len(samples)
            grams = set().union(*(totals for totals, _ in samples))
            assert grams == set(cls.stats)
            # each statistic is the exact rational rounded once, and each std the
            # square root of that rounded variance: equal bit for bit, no tolerance
            for gram in grams:
                xs = [totals.get(gram, 0) for totals, _ in samples]
                assert cls.stats[gram].mean == statistics.mean(xs)
                assert cls.stats[gram].std == math.sqrt(statistics.pvariance(xs))
                observed_chunks = set().union(
                    *(per_chunk.get(gram, {}) for _, per_chunk in samples)
                )
                assert observed_chunks == set(cls.stats[gram].chunks)
                for j in observed_chunks:
                    cxs = [per_chunk.get(gram, {}).get(j, 0) for _, per_chunk in samples]
                    cm, cs = cls.stats[gram].chunks[j]
                    assert cm == statistics.mean(cxs)
                    assert cs == math.sqrt(statistics.pvariance(cxs))

    def test_chunk_means_sum_to_payload_mean(self):
        model = train(
            iter(gen_legit(GenSpec(Protocol.FTP, 500, seed=41))),
            protocol=Protocol.FTP,
            chunking=ChunkingConfig(3, 15),
        )
        for key, cls in model.classes.items():
            for st in cls.stats.values():
                total = sum(m for m, _ in st.chunks.values())
                assert abs(total - st.mean) <= 1e-9 * key.chunk_count

    def test_coverage_is_monotone(self):
        records = gen_legit(GenSpec(Protocol.FTP, 120, seed=61))
        small = train(iter(records[:-1]), protocol=Protocol.FTP, chunking=CFG)
        big = train(iter(records), protocol=Protocol.FTP, chunking=CFG)
        # too few samples for any entry to be left out, which would break monotony
        assert not any(cls.pruned for model in (small, big) for cls in model.classes.values())
        for key, cls in small.classes.items():
            assert set(cls.stats) <= set(big.classes[key].stats)


class TestTrainSkips:
    def test_attack_labels_are_fatal(self):
        records = ftp_records([b"USER x\r\n"] * 2) + [
            PacketRecord(id=2, dst_port=21, payload=b"evil", label="attack:a1")
        ]
        with pytest.raises(CorpusError, match="attack-free"):
            train(iter(records), protocol=Protocol.FTP, chunking=CFG)

    def test_ignore_labels_trains_anyway(self):
        records = ftp_records([b"USER x\r\n"], label="attack:a1")
        model = train(iter(records), protocol=Protocol.FTP, chunking=CFG, ignore_labels=True)
        assert model.summary.trained == 1

    @pytest.mark.parametrize("protocol, dst_port, payload, cause", [
        (Protocol.FTP, 80, b"USER alice\r\n", "other_port"),
        (Protocol.HTTP, 21, b"GET / HTTP/1.0\r\n", "other_port"),
        (Protocol.FTP, 21, b"", "empty"),
        # featurize owns the empty-payload rule: the request-line grammar would say malformed
        (Protocol.HTTP, 80, b"", "empty"),
        (Protocol.HTTP, 80, b"GET ../..", "malformed"),
        (Protocol.FTP, 21, b"USER\r\n", "short"),
        (Protocol.HTTP, 80, b"GET / HTTP/1.0\r\n", "short"),
        # the boundary: n relevant bytes hold one window, n - 1 none
        (Protocol.FTP, 21, b"x" * 20, None),
        (Protocol.FTP, 21, b"x" * 19, "short"),
    ], ids=["ftp-other-port", "http-other-port", "ftp-empty", "http-empty", "http-malformed",
            "ftp-short", "http-short", "ftp-n-bytes", "ftp-n-minus-1-bytes"])
    def test_featurize_cause(self, protocol, dst_port, payload, cause):
        # n=20 is longer than every payload above but the one of n bytes, which classifies
        chunking = ChunkingConfig(20, 20)
        port = protocol.default_port
        if cause is None:
            assert featurize(payload, protocol, chunking) == (1, payload)
        elif dst_port == port:
            assert featurize(payload, protocol, chunking) == cause
        # train sets an off-port record aside before featurize; each record is
        # skipped for exactly its cause, next to one trainable record
        trainable = {
            Protocol.FTP: b"USER alice-in-wonderland\r\n",
            Protocol.HTTP: b"GET /a/rather/long/path/index.html HTTP/1.0\r\n",
        }[protocol]
        records = [
            PacketRecord(id=0, dst_port=dst_port, payload=payload),
            PacketRecord(id=1, dst_port=port, payload=trainable),
        ]
        s = train(iter(records), protocol=protocol, chunking=chunking).summary
        causes = ("other_port", "empty", "malformed", "short")
        assert {c: getattr(s, "skipped_" + c) for c in causes} == {c: int(c == cause) for c in causes}
        assert (s.read, s.trained) == (2, 1 + (cause is None))

    def test_empty_usable_corpus_is_fatal(self):
        with pytest.raises(CorpusError, match="no trainable packets"):
            ftp_model([b"x"])  # single too-short packet

    def test_no_records_at_all_is_fatal(self):
        with pytest.raises(CorpusError, match="no trainable packets"):
            train(iter([]), protocol=Protocol.FTP, chunking=CFG)

    @pytest.mark.parametrize("setting", ["alpha", "th_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_bad_setting_rejected_before_any_record_is_read(self, setting, value):
        read = []

        def records():
            for rec in ftp_records([b"USER x\r\n"] * 3):
                read.append(rec)
                yield rec

        with pytest.raises(ValueError, match=f"{setting} must be > 0"):
            train(records(), protocol=Protocol.FTP, chunking=CFG, **{setting: value})
        assert read == []

    @pytest.mark.parametrize("setting, message", [
        ("alpha", "alpha must be > 0"),
        ("th_s", "th_s must be > 0"),
        ("port", "port must be within [0, 65535]"),
    ])
    def test_bool_setting_rejected(self, setting, message):
        """A bool passes as a number, but would save as true, which `load_model` refuses."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(iter(ftp_records([b"USER x\r\n"])), protocol=Protocol.FTP, chunking=CFG,
                  **{setting: True})


class TestPersistence:
    def test_empty_class_map_round_trips(self, tmp_path):
        model = TrafficModel(
            protocol=Protocol.HTTP, port=80, chunking=ChunkingConfig(3, 15),
            alpha=0.1, th_s=5.0, classes={},
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path).classes == {}

    @pytest.mark.parametrize("protocol", [Protocol.FTP, Protocol.HTTP])
    def test_trained_model_loads_equal_with_float_stats(self, tmp_path, protocol):
        model = train(
            iter(gen_legit(GenSpec(protocol, 400, seed=91))),
            protocol=protocol,
            chunking=ChunkingConfig(3, 15),
        )
        path = tmp_path / "m.model"
        assert save_model(model, path) == path.stat().st_size
        back = load_model(path)
        # every mean, std and chunk pair compares exactly
        assert back == model
        for key, cls in back.classes.items():
            assert cls.sample_count == model.classes[key].sample_count
            for gram_stats in cls.stats.values():
                assert type(gram_stats) is NGramStats
                assert type(gram_stats.mean) is float and type(gram_stats.std) is float
                chunks = gram_stats.chunks
                assert all(type(v) is float for pair in chunks.values() for v in pair)
                assert list(chunks) == sorted(chunks)
        again = tmp_path / "again.model"
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_chunks_enabled_not_persisted(self, tmp_path):
        model = ftp_model([b"USER alice\r\n"])
        path = tmp_path / "m.model"
        save_model(model, path)
        assert "chunks_enabled" not in json.loads(path.read_text())
        assert load_model(path).chunking == model.chunking


def _valid_doc():
    return {
        "format_version": 1,
        "protocol": "ftp",
        "port": 21,
        "n": 2,
        "chunk_len": 15,
        "alpha": 0.1,
        "th_s": 5.0,
        "classes": [{
            "port": 21,
            "nck_total": 1,
            "sample_count": 3,
            "ngrams": [{
                "gram_hex": "5553",
                "mean": 1.0,
                "std": 0.0,
                "chunks": [{"j": 0, "mean": 1.0, "std": 0.0}],
            }],
        }],
    }


# sha256 of a seeded corpus and of the model trained on it; a change to
# generation, training or serialization shows up here first
GOLDEN = {
    Protocol.FTP: ("fcd8187b3e86d04715fc77f29add71a27fb274975d927eafabe8d9ae88aa35b4",
                   "0ed9f2681c1d9166b38ffc0a930f78a87bf429b76ccc5c424116b1a5c47144a4"),
    Protocol.HTTP: ("d890f9544965b056035c565b01c919df5cf8f19331c2ae03c54612b6f07708ce",
                    "01629f44082012dbc17cb95e039f13e3a16b59f2367f63f5a2c6833c1e4eded2"),
}


@pytest.mark.parametrize("protocol", list(GOLDEN), ids=lambda p: p.name)
def test_corpus_and_model_bytes_are_pinned(tmp_path, protocol):
    records = gen_legit(GenSpec(protocol, 500, 7))
    corpus, model = tmp_path / "corpus.jsonl", tmp_path / "m.model"
    write_jsonl(records, corpus)
    save_model(train(records, protocol=protocol, chunking=ChunkingConfig(3, 15)), model)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (corpus, model))
    assert digests == GOLDEN[protocol]


def _cls(doc):
    return doc["classes"][0]


def _gram(doc):
    return doc["classes"][0]["ngrams"][0]


def _chunk(doc):
    return doc["classes"][0]["ngrams"][0]["chunks"][0]


_DELETE = object()


def _set(where, key, value):
    """A corruption that sets (or, with _DELETE, removes) where(doc)[key]."""

    def corrupt(doc):
        target = where(doc)
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value

    return corrupt


def _top(doc):
    return doc


def _append_copy(where):
    def corrupt(doc):
        items = where(doc)
        items.append(copy.deepcopy(items[0]))

    return corrupt


def _both(*corruptions):
    def corrupt(doc):
        for c in corruptions:
            c(doc)

    return corrupt


def _bad(corrupt, message, id):
    return pytest.param(corrupt, message, id=id)


_INVALID = "invalid model file: "

# one corrupted field of _valid_doc() each, and the exact message load_model gives
REJECTIONS = [
    _bad(lambda doc: [doc], _INVALID + "top level must be an object", "top-level-list"),
    _bad(_set(_top, "format_version", 2), "unsupported model format version: 2", "version-2"),
    _bad(_set(_top, "format_version", _DELETE), "unsupported model format version: None",
         "version-missing"),
    _bad(_set(_top, "format_version", True), "unsupported model format version: True",
         "version-bool"),
    _bad(_set(_top, "format_version", 1.0), "unsupported model format version: 1.0",
         "version-float"),
    _bad(_set(_top, "protocol", "smtp"), _INVALID + "unknown protocol 'smtp'", "protocol"),
    _bad(_set(_top, "port", 70000), _INVALID + "port must be within [0, 65535]", "port-range"),
    _bad(_set(_top, "port", True), _INVALID + "bad port", "port-bool"),
    _bad(_set(_top, "port", 21.0), _INVALID + "bad port", "port-float"),
    _bad(_set(_top, "n", 0), _INVALID + "n must be >= 1", "n-zero"),
    _bad(_set(_top, "n", "2"), _INVALID + "bad n", "n-string"),
    _bad(_set(_top, "chunk_len", 1), _INVALID + "n must be <= chunk_len (got n=2, chunk_len=1)",
         "chunk-len-below-n"),
    _bad(_set(_top, "chunk_len", 15.0), _INVALID + "chunk_len must be >= n", "chunk-len-float"),
    _bad(_set(_top, "alpha", 0), _INVALID + "alpha must be > 0", "alpha-zero"),
    _bad(_set(_top, "alpha", math.nan), _INVALID + "alpha must be > 0", "alpha-nan"),
    _bad(_set(_top, "alpha", math.inf), _INVALID + "alpha must be > 0", "alpha-inf"),
    _bad(_set(_top, "alpha", True), _INVALID + "alpha must be > 0", "alpha-bool"),
    _bad(_set(_top, "th_s", -1.0), _INVALID + "th_s must be > 0", "th-s-negative"),
    _bad(_set(_top, "th_s", math.inf), _INVALID + "th_s must be > 0", "th-s-inf"),
    _bad(_set(_top, "th_s", "5"), _INVALID + "th_s must be > 0", "th-s-string"),
    _bad(_set(_top, "classes", {}), _INVALID + "classes must be a list", "classes-object"),
    _bad(_set(_top, "classes", _DELETE), _INVALID + "classes must be a list", "classes-missing"),
    # class entries
    _bad(_set(_top, "classes", [[]]), _INVALID + "class entry must be an object", "class-list"),
    _bad(_set(_cls, "port", 2121), _INVALID + "class port differs from model port",
         "class-port"),
    _bad(_set(_cls, "port", 21.0), _INVALID + "class port differs from model port",
         "class-port-float"),
    # True == 1, so the model's port is 1 here
    _bad(_both(_set(_top, "port", 1), _set(_cls, "port", True)),
         _INVALID + "class port differs from model port", "class-port-bool"),
    _bad(_set(_cls, "nck_total", 0), _INVALID + "bad nck_total", "nck-total-zero"),
    _bad(_set(_cls, "nck_total", True), _INVALID + "bad nck_total", "nck-total-bool"),
    _bad(_set(_cls, "nck_total", 1.0), _INVALID + "bad nck_total", "nck-total-float"),
    _bad(_set(_cls, "nck_total", _DELETE), _INVALID + "bad nck_total", "nck-total-missing"),
    _bad(_set(_cls, "sample_count", 0), _INVALID + "sample_count must be >= 1",
         "sample-count-zero"),
    _bad(_set(_cls, "sample_count", True), _INVALID + "sample_count must be >= 1",
         "sample-count-bool"),
    _bad(_set(_cls, "pruned", True), _INVALID + "pruned must be >= 0", "pruned-bool"),
    _bad(_set(_cls, "pruned", -1), _INVALID + "pruned must be >= 0", "pruned-negative"),
    _bad(_set(_cls, "pruned", 1.5), _INVALID + "pruned must be >= 0", "pruned-float"),
    _bad(_set(_cls, "pruned", "3"), _INVALID + "pruned must be >= 0", "pruned-string"),
    _bad(_append_copy(lambda doc: doc["classes"]),
         _INVALID + "duplicate class ClassKey(port=21, chunk_count=1)", "class-duplicate"),
    _bad(_set(_cls, "ngrams", {}), _INVALID + "ngrams must be a list", "ngrams-object"),
    # n-gram entries
    _bad(_set(_cls, "ngrams", ["5553"]), _INVALID + "ngram entry must be an object",
         "ngram-string"),
    _bad(_set(_gram, "gram_hex", "555344"), _INVALID + "bad gram_hex length", "gram-hex-long"),
    _bad(_set(_gram, "gram_hex", 5553), _INVALID + "bad gram_hex length", "gram-hex-int"),
    _bad(_set(_gram, "gram_hex", _DELETE), _INVALID + "bad gram_hex length",
         "gram-hex-missing"),
    _bad(_set(_gram, "gram_hex", "zz53"), _INVALID + "bad gram_hex 'zz53'", "gram-hex-non-hex"),
    _bad(_both(_set(_top, "n", 3), _set(_gram, "gram_hex", " 2d6c ")),
         _INVALID + "bad gram_hex ' 2d6c '", "gram-hex-whitespace"),
    _bad(_append_copy(lambda doc: _cls(doc)["ngrams"]), _INVALID + "duplicate n-gram 5553",
         "ngram-duplicate"),
    _bad(_set(_gram, "mean", -1.0), _INVALID + "mean must be >= 0", "mean-negative"),
    _bad(_set(_gram, "mean", math.nan), _INVALID + "mean must be >= 0", "mean-nan"),
    _bad(_set(_gram, "mean", math.inf), _INVALID + "mean must be >= 0", "mean-inf"),
    _bad(_set(_gram, "mean", True), _INVALID + "mean must be >= 0", "mean-bool"),
    _bad(_set(_gram, "mean", "1.0"), _INVALID + "mean must be >= 0", "mean-string"),
    _bad(_set(_gram, "mean", _DELETE), _INVALID + "mean must be >= 0", "mean-missing"),
    _bad(_set(_gram, "std", -0.5), _INVALID + "std must be >= 0", "std-negative"),
    _bad(_set(_gram, "std", math.nan), _INVALID + "std must be >= 0", "std-nan"),
    _bad(_set(_gram, "std", math.inf), _INVALID + "std must be >= 0", "std-inf"),
    _bad(_set(_gram, "std", False), _INVALID + "std must be >= 0", "std-bool"),
    _bad(_set(_gram, "std", "0"), _INVALID + "std must be >= 0", "std-string"),
    _bad(_set(_gram, "chunks", {}), _INVALID + "chunks must be a list", "chunks-object"),
    _bad(_set(_gram, "chunks", _DELETE), _INVALID + "chunks must be a list", "chunks-missing"),
    # chunk entries
    _bad(_set(_gram, "chunks", [[0, 1.0, 0.0]]), _INVALID + "chunk entry must be an object",
         "chunk-list"),
    _bad(_set(_chunk, "j", 1), _INVALID + "chunk index out of range", "j-too-large"),
    _bad(_set(_chunk, "j", -1), _INVALID + "chunk index out of range", "j-negative"),
    _bad(_set(_chunk, "j", True), _INVALID + "chunk index out of range", "j-bool"),
    _bad(_set(_chunk, "j", 0.0), _INVALID + "chunk index out of range", "j-float"),
    _bad(_set(_chunk, "j", _DELETE), _INVALID + "chunk index out of range", "j-missing"),
    _bad(_append_copy(lambda doc: _gram(doc)["chunks"]), _INVALID + "duplicate chunk index 0",
         "j-duplicate"),
    _bad(_set(_chunk, "mean", -1.0), _INVALID + "chunk mean must be >= 0",
         "chunk-mean-negative"),
    _bad(_set(_chunk, "mean", math.nan), _INVALID + "chunk mean must be >= 0", "chunk-mean-nan"),
    _bad(_set(_chunk, "mean", math.inf), _INVALID + "chunk mean must be >= 0", "chunk-mean-inf"),
    _bad(_set(_chunk, "mean", True), _INVALID + "chunk mean must be >= 0", "chunk-mean-bool"),
    _bad(_set(_chunk, "std", -0.5), _INVALID + "chunk std must be >= 0", "chunk-std-negative"),
    _bad(_set(_chunk, "std", math.nan), _INVALID + "chunk std must be >= 0", "chunk-std-nan"),
    _bad(_set(_chunk, "std", "0"), _INVALID + "chunk std must be >= 0", "chunk-std-string"),
    _bad(_set(_chunk, "mean", 0.25), _INVALID + "chunk means sum to 0.25, payload mean is 1.0",
         "chunk-means-sum"),
    _bad(_set(_gram, "chunks", []), _INVALID + "chunk means sum to 0, payload mean is 1.0",
         "chunk-means-empty"),
    _bad(_both(_set(_gram, "mean", 2), _set(_chunk, "mean", 1)),
         _INVALID + "chunk means sum to 1.0, payload mean is 2", "chunk-means-int"),
    # within an entry, the first failing check names the error
    _bad(_both(_set(_gram, "mean", -1.0), _set(_gram, "std", -1.0)),
         _INVALID + "mean must be >= 0", "order-mean-before-std"),
    _bad(_both(_set(_gram, "gram_hex", "zz53"), _set(_gram, "mean", -1.0)),
         _INVALID + "bad gram_hex 'zz53'", "order-gram-before-mean"),
    _bad(_both(_set(_gram, "std", -1.0), _set(_gram, "chunks", {})),
         _INVALID + "std must be >= 0", "order-std-before-chunks"),
    _bad(_both(_set(_chunk, "j", 5), _set(_chunk, "mean", -1.0)),
         _INVALID + "chunk index out of range", "order-j-before-chunk-mean"),
    _bad(_both(_set(_chunk, "mean", -1.0), _set(_chunk, "std", -1.0)),
         _INVALID + "chunk mean must be >= 0", "order-chunk-mean-before-std"),
    _bad(_both(_set(_chunk, "std", -1.0), _set(_chunk, "mean", 0.25)),
         _INVALID + "chunk std must be >= 0", "order-chunk-std-before-sum"),
]

# files that must keep loading, with the value they load to
ACCEPTED = [
    pytest.param(lambda doc: None, (1.0, 0.0, {0: (1.0, 0.0)}), id="as-written"),
    pytest.param(_set(_gram, "mean", 1), (1.0, 0.0, {0: (1.0, 0.0)}), id="int-mean"),
    pytest.param(_both(_set(_gram, "std", 0), _set(_chunk, "std", 0)),
                 (1.0, 0.0, {0: (1.0, 0.0)}), id="int-stds"),
    pytest.param(_set(_chunk, "mean", 1), (1.0, 0.0, {0: (1.0, 0.0)}), id="int-chunk-mean"),
    pytest.param(_set(_chunk, "mean", 1.0 + 9e-10), (1.0, 0.0, {0: (1.0 + 9e-10, 0.0)}),
                 id="chunk-means-within-tolerance"),
    pytest.param(_both(_set(_gram, "mean", 0.0), _set(_gram, "chunks", [])),
                 (0.0, 0.0, {}), id="no-chunks-zero-mean"),
    pytest.param(_set(_gram, "gram_hex", "5A5a"), None, id="mixed-case-hex"),
]


class TestLoadRejections:
    def write(self, tmp_path, doc):
        path = tmp_path / "m.model"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("corrupt, message", REJECTIONS)
    def test_rejected_with_exact_message(self, tmp_path, corrupt, message):
        doc = _valid_doc()
        doc = corrupt(doc) or doc
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(self.write(tmp_path, doc))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("change, stats", ACCEPTED)
    def test_accepted(self, tmp_path, change, stats):
        doc = _valid_doc()
        change(doc)
        model = load_model(self.write(tmp_path, doc))
        [(gram, got)] = model.classes[ClassKey(21, 1)].stats.items()
        assert gram == bytes.fromhex(_gram(doc)["gram_hex"])
        if stats is not None:
            assert (got.mean, got.std, got.chunks) == stats
        assert type(got.mean) is float and type(got.std) is float
        assert all(type(v) is float for pair in got.chunks.values() for v in pair)

    def test_absent_pruned_count_loads_as_zero(self, tmp_path):
        assert "pruned" not in _cls(_valid_doc())
        assert load_model(self.write(tmp_path, _valid_doc())).classes[ClassKey(21, 1)].pruned == 0

    def test_pruned_count_round_trips(self, tmp_path):
        doc = _valid_doc()
        _cls(doc)["pruned"] = 3
        model = load_model(self.write(tmp_path, doc))
        assert model.classes[ClassKey(21, 1)].pruned == 3
        path = tmp_path / "again.model"
        save_model(model, path)
        assert _cls(json.loads(path.read_text()))["pruned"] == 3

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(json.dumps(_valid_doc())[:40])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.model")

    # a number a float cannot hold is rejected like any other bad number
    @pytest.mark.parametrize("where, key, message", [
        (_top, "alpha", "alpha must be > 0"),
        (_top, "th_s", "th_s must be > 0"),
        (_gram, "mean", "mean must be >= 0"),
        (_gram, "std", "std must be >= 0"),
        (_chunk, "mean", "chunk mean must be >= 0"),
        (_chunk, "std", "chunk std must be >= 0"),
    ])
    @pytest.mark.parametrize("huge", [
        pytest.param(10**400, id="400-digits"), pytest.param(-10**400, id="minus-400-digits"),
    ])
    def test_number_beyond_float_range_rejected(self, tmp_path, where, key, message, huge):
        doc = _valid_doc()
        where(doc)[key] = huge
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(self.write(tmp_path, doc))
        assert str(excinfo.value) == _INVALID + message

    def test_integer_beyond_parse_limit_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(json.dumps(_valid_doc()).replace('"mean": 1.0', '"mean": ' + "1" * 5000, 1))
        with pytest.raises(ModelFormatError, match="not a valid model file"):
            load_model(path)

    def test_chunk_count_beyond_float_range_loads(self, tmp_path):
        doc = _valid_doc()
        _cls(doc)["nck_total"] = 10**400
        model = load_model(self.write(tmp_path, doc))
        assert model.classes[ClassKey(21, 10**400)].stats[b"US"].chunks == {0: (1.0, 0.0)}

    def test_chunk_count_beyond_float_range_judges(self, tmp_path):
        """The Scorer builds every class's sets: a chunk count costs nothing there."""
        doc = _valid_doc()
        doc["classes"].append(dict(copy.deepcopy(_cls(doc)), nck_total=10**400))
        model = load_model(self.write(tmp_path, doc))
        # one chunk of 5 windows: "US" is usual at count 1 there, the other 4 never seen
        assert judge(Scorer(model), b"USER\r\n") == Outcome(None, 5, 4, 4)

    def test_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: not a valid model file (nested too deeply)"


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small trained FTP model: its path and its bytes."""
    model = ftp_model([b"USER alice\r\n", b"USER bob\r\n", b"PASS x1\r\n", b"QUIT\r\n"] * 2)
    path = tmp_path_factory.mktemp("fuzz") / "m.model"
    save_model(model, path)
    return path, path.read_bytes()


# bytes that keep a JSON document parseable more often than a random byte does
_NUMBER_BYTES = list(b"0123456789-+.eE")
_edits = st.lists(
    st.tuples(
        st.integers(min_value=0),
        st.one_of(st.sampled_from(_NUMBER_BYTES), st.sampled_from(list(b'"[]{},:tfn ')),
                  st.integers(0, 255)),
    ),
    min_size=1,
    max_size=3,
)


def _load_corrupted(saved_model, edits, cut=None):
    path, raw = saved_model
    data = bytearray(raw)
    for pos, byte in edits:
        data[pos % len(data)] = byte
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    corrupted = path.with_name("corrupted.model")
    corrupted.write_bytes(bytes(data))
    try:
        model = load_model(corrupted)
    except ModelFormatError:
        return
    assert isinstance(model, TrafficModel)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(edits=_edits)
def test_edited_model_raises_only_model_format_error(saved_model, edits):
    _load_corrupted(saved_model, edits)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=2),
       cut=st.integers(min_value=0))
def test_truncated_model_raises_only_model_format_error(saved_model, edits, cut):
    _load_corrupted(saved_model, edits, cut)

import json
import statistics

import pytest

from pckad import (
    ChunkingConfig,
    ClassKey,
    CorpusError,
    GenSpec,
    ModelFormatError,
    PacketRecord,
    Protocol,
    TrafficModel,
    extract_ngrams,
    extract_relevant,
    gen_legit,
    load_model,
    save_model,
    split_chunks,
    train,
)

CFG = ChunkingConfig(n=2, chunk_len=15)


def ftp_records(payloads, label="legit"):
    return [
        PacketRecord(id=i, dst_port=21, payload=p, label=label)
        for i, p in enumerate(payloads)
    ]


def train_ftp(payloads, **kwargs):
    kwargs.setdefault("chunking", CFG)
    return train(iter(ftp_records(payloads)), protocol=Protocol.FTP, **kwargs)


class TestTrainingStats:
    def test_constant_counts_give_zero_std(self):
        model = train_ftp([b"abab"] * 3)
        stats = model.classes[ClassKey(21, 1)].stats
        assert stats[b"ab"].mean == 2.0
        assert stats[b"ab"].std == 0.0

    def test_absent_counts_as_zero(self):
        # one sample with 4 occurrences of "ab", one with none
        model = train_ftp([b"ababababa", b"ccccccccc"])
        stats = model.classes[ClassKey(21, 1)].stats
        assert stats[b"ab"].mean == statistics.mean([0, 4]) == 2.0
        assert stats[b"ab"].std == statistics.pstdev([0, 4]) == 2.0

    def test_one_class_per_chunk_count(self):
        model = train_ftp([b"x" * 10, b"y" * 20])
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
            layout = split_chunks(rel, cfg)
            counts = extract_ngrams(rel, layout, cfg)
            per_class.setdefault(layout.nck_total, []).append(counts)
        for chunk_count, samples in per_class.items():
            cls = model.classes[ClassKey(21, chunk_count)]
            assert cls.sample_count == len(samples)
            grams = set().union(*(s.payload_counts for s in samples))
            assert grams == set(cls.stats)
            for gram in grams:
                xs = [s.payload_counts.get(gram, 0) for s in samples]
                assert cls.stats[gram].mean == pytest.approx(statistics.mean(xs), abs=1e-12)
                assert cls.stats[gram].std == pytest.approx(statistics.pstdev(xs), abs=1e-12)
                observed_chunks = set().union(
                    *(s.chunk_counts.get(gram, {}) for s in samples)
                )
                assert observed_chunks == set(cls.stats[gram].chunks)
                for j in observed_chunks:
                    cxs = [s.chunk_counts.get(gram, {}).get(j, 0) for s in samples]
                    cm, cs = cls.stats[gram].chunks[j]
                    assert cm == pytest.approx(statistics.mean(cxs), abs=1e-12)
                    assert cs == pytest.approx(statistics.pstdev(cxs), abs=1e-12)

    def test_zero_std_iff_constant(self):
        records = gen_legit(GenSpec(Protocol.FTP, 300, seed=31))
        cfg = ChunkingConfig(3, 15)
        model = train(iter(records), protocol=Protocol.FTP, chunking=cfg)
        per_class: dict = {}
        for rec in records:
            rel = extract_relevant(Protocol.FTP, rec.payload)
            layout = split_chunks(rel, cfg)
            per_class.setdefault(layout.nck_total, []).append(
                extract_ngrams(rel, layout, cfg).payload_counts
            )
        for key, cls in model.classes.items():
            samples = per_class[key.chunk_count]
            for gram, st in cls.stats.items():
                xs = [s.get(gram, 0) for s in samples]
                assert (st.std == 0.0) == (len(set(xs)) == 1)

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

    def test_training_is_deterministic(self):
        records = gen_legit(GenSpec(Protocol.FTP, 200, seed=51))
        a = train(iter(records), protocol=Protocol.FTP, chunking=CFG)
        b = train(iter(records), protocol=Protocol.FTP, chunking=CFG)
        assert a == b

    def test_coverage_is_monotone(self):
        records = gen_legit(GenSpec(Protocol.FTP, 120, seed=61))
        small = train(iter(records[:-1]), protocol=Protocol.FTP, chunking=CFG)
        big = train(iter(records), protocol=Protocol.FTP, chunking=CFG)
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

    def test_skips_are_counted(self):
        records = [
            PacketRecord(id=0, dst_port=21, payload=b"USER alice\r\n"),
            PacketRecord(id=1, dst_port=80, payload=b"GET / HTTP/1.0\r\n"),  # other port
            PacketRecord(id=2, dst_port=21, payload=b""),                    # empty
            PacketRecord(id=3, dst_port=21, payload=b"x"),                   # shorter than n
        ]
        model = train(iter(records), protocol=Protocol.FTP, chunking=CFG)
        s = model.summary
        assert (s.trained, s.skipped_other_port, s.skipped_empty, s.skipped_short) == (1, 1, 1, 1)
        assert s.read == 4 and s.skipped == 3

    def test_malformed_http_is_skipped(self):
        records = [
            PacketRecord(id=0, dst_port=80, payload=b"GET /x HTTP/1.0\r\n"),
            PacketRecord(id=1, dst_port=80, payload=b"GET ../.."),
        ]
        model = train(iter(records), protocol=Protocol.HTTP, chunking=CFG)
        assert model.summary.skipped_malformed == 1
        assert model.summary.trained == 1

    def test_empty_usable_corpus_is_fatal(self):
        with pytest.raises(CorpusError, match="no trainable packets"):
            train_ftp([b"x"])  # single too-short packet

    def test_no_records_at_all_is_fatal(self):
        with pytest.raises(CorpusError, match="no trainable packets"):
            train(iter([]), protocol=Protocol.FTP, chunking=CFG)


class TestPersistence:
    def test_round_trip_small(self, tmp_path):
        model = train_ftp([b"USER alice\r\n", b"USER brutus\r\n", b"QUIT\r\n"])
        path = tmp_path / "m.model"
        size = save_model(model, path)
        assert size == path.stat().st_size > 0
        assert load_model(path) == model

    def test_round_trip_large_synthetic(self, tmp_path):
        model = train(
            iter(gen_legit(GenSpec(Protocol.FTP, 1000, seed=71))),
            protocol=Protocol.FTP,
            chunking=ChunkingConfig(3, 15),
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        for key, cls in model.classes.items():
            for gram, st in cls.stats.items():
                got = back.classes[key].stats[gram]
                assert got.mean == st.mean and got.std == st.std
                assert got.chunks == st.chunks

    def test_empty_class_map_round_trips(self, tmp_path):
        model = TrafficModel(
            protocol=Protocol.HTTP, port=80, chunking=ChunkingConfig(3, 15),
            alpha=0.1, th_s=5.0, classes={},
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path).classes == {}

    def test_serialization_is_byte_stable(self, tmp_path):
        model = train_ftp([b"USER alice\r\n", b"PASS b0b\r\n"])
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_http_model_round_trips(self, tmp_path):
        model = train(
            iter(gen_legit(GenSpec(Protocol.HTTP, 300, seed=81))),
            protocol=Protocol.HTTP,
            chunking=ChunkingConfig(3, 15),
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path) == model


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


class TestLoadValidation:
    def write(self, tmp_path, doc):
        path = tmp_path / "m.model"
        path.write_text(json.dumps(doc))
        return path

    def test_valid_doc_loads(self, tmp_path):
        model = load_model(self.write(tmp_path, _valid_doc()))
        assert model.classes[ClassKey(21, 1)].stats[b"US"].mean == 1.0

    def test_negative_std_rejected(self, tmp_path):
        doc = _valid_doc()
        doc["classes"][0]["ngrams"][0]["std"] = -0.5
        with pytest.raises(ModelFormatError, match="std"):
            load_model(self.write(tmp_path, doc))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(json.dumps(_valid_doc())[:40])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        doc = _valid_doc()
        doc["format_version"] = 2
        with pytest.raises(ModelFormatError, match="version"):
            load_model(self.write(tmp_path, doc))

    def test_class_port_mismatch_rejected(self, tmp_path):
        doc = _valid_doc()
        doc["classes"][0]["port"] = 2121
        with pytest.raises(ModelFormatError, match="port"):
            load_model(self.write(tmp_path, doc))

    def test_chunk_index_out_of_range_rejected(self, tmp_path):
        doc = _valid_doc()
        doc["classes"][0]["ngrams"][0]["chunks"][0]["j"] = 1
        with pytest.raises(ModelFormatError, match="chunk index"):
            load_model(self.write(tmp_path, doc))

    def test_chunk_mean_inconsistency_rejected(self, tmp_path):
        doc = _valid_doc()
        doc["classes"][0]["ngrams"][0]["chunks"][0]["mean"] = 0.25
        with pytest.raises(ModelFormatError, match="chunk means"):
            load_model(self.write(tmp_path, doc))

    def test_wrong_gram_length_rejected(self, tmp_path):
        doc = _valid_doc()
        doc["classes"][0]["ngrams"][0]["gram_hex"] = "555344"
        with pytest.raises(ModelFormatError, match="gram_hex"):
            load_model(self.write(tmp_path, doc))

    def test_duplicate_class_rejected(self, tmp_path):
        doc = _valid_doc()
        doc["classes"].append(doc["classes"][0])
        with pytest.raises(ModelFormatError, match="duplicate class"):
            load_model(self.write(tmp_path, doc))

    def test_zero_sample_count_rejected(self, tmp_path):
        doc = _valid_doc()
        doc["classes"][0]["sample_count"] = 0
        with pytest.raises(ModelFormatError, match="sample_count"):
            load_model(self.write(tmp_path, doc))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.model")

    def test_chunks_enabled_not_persisted(self, tmp_path):
        model = train_ftp([b"USER alice\r\n"])
        path = tmp_path / "m.model"
        save_model(model, path)
        assert "chunks_enabled" not in json.loads(path.read_text())
        assert load_model(path).chunking == model.chunking

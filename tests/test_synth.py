import random
from collections import Counter

import pytest

from pckad import (
    ChunkingConfig,
    GenSpec,
    InjectionError,
    Protocol,
    RelevantPayload,
    extract_relevant,
    gen_legit,
    inject_corpus,
    sliding_window_oracle,
)
from pckad.chunking import slice_windows
from pckad.corpus import attack_instance_of
from pckad.synth import AnomalyKind, inject

from helpers import chunk_pairs

CFG = ChunkingConfig(n=3, chunk_len=15)


def counts_for(payload: bytes) -> Counter:
    """The payload's n-gram counts over the windows that training and judge cut."""
    return Counter(slice_windows(payload, CFG))


def vocabulary_closure(protocol: Protocol, n: int) -> set[bytes]:
    """Every n-gram the generator can emit, from a large sample."""
    grams: set[bytes] = set()
    for rec in gen_legit(GenSpec(protocol, 3000, seed=777)):
        grams.update(sliding_window_oracle(rec.payload, n))
    return grams


class TestGenLegit:
    def test_zero_count(self):
        assert gen_legit(GenSpec(Protocol.FTP, 0, seed=7)) == []

    def test_different_seeds_differ(self):
        a = gen_legit(GenSpec(Protocol.FTP, 50, seed=1))
        b = gen_legit(GenSpec(Protocol.FTP, 50, seed=2))
        assert [r.payload for r in a] != [r.payload for r in b]

    @pytest.mark.parametrize("protocol", [Protocol.FTP, Protocol.HTTP])
    def test_everything_parses_cleanly(self, protocol):
        for rec in gen_legit(GenSpec(protocol, 200, seed=9)):
            assert rec.dst_port == protocol.default_port
            assert rec.label == "legit"
            assert isinstance(extract_relevant(protocol, rec.payload), RelevantPayload)

    def test_http_payloads_start_with_request_line(self):
        for rec in gen_legit(GenSpec(Protocol.HTTP, 50, seed=10)):
            assert rec.payload.split(b"\r\n")[0].endswith((b"HTTP/1.0", b"HTTP/1.1"))

    def test_payloads_are_printable_ascii(self):
        for rec in gen_legit(GenSpec(Protocol.FTP, 200, seed=11)):
            assert all(b in (10, 13) or 32 <= b < 127 for b in rec.payload)

    def test_ids_are_sequential(self):
        records = gen_legit(GenSpec(Protocol.FTP, 30, seed=12))
        assert [r.id for r in records] == list(range(30))


def eligible_record(protocol, kind, seed=55):
    """First generated record the given injection accepts."""
    for rec in gen_legit(GenSpec(protocol, 500, seed=seed)):
        try:
            return rec, inject(rec, kind, random.Random(1))
        except InjectionError:
            continue
    raise AssertionError("no eligible record found")


class TestInjectUnseen:
    @pytest.mark.parametrize("protocol", [Protocol.FTP, Protocol.HTTP])
    def test_creates_never_seen_grams(self, protocol):
        closure = vocabulary_closure(protocol, CFG.n)
        original, injected = eligible_record(protocol, AnomalyKind.UNSEEN_GRAM)
        assert injected.label == f"attack:unseen-{original.id}"
        assert len(injected.payload) == len(original.payload)
        new_grams = set(sliding_window_oracle(injected.payload, CFG.n)) - closure
        assert new_grams
        assert any(any(b >= 0x80 for b in gram) for gram in new_grams)

    def test_http_stays_well_formed(self):
        _, injected = eligible_record(Protocol.HTTP, AnomalyKind.UNSEEN_GRAM)
        assert isinstance(extract_relevant(Protocol.HTTP, injected.payload), RelevantPayload)


class TestInjectFreq:
    def test_count_multiplied_at_least_five_times(self):
        original, injected = eligible_record(Protocol.FTP, AnomalyKind.FREQ_SHIFT)
        before = sliding_window_oracle(original.payload, CFG.n)
        after = sliding_window_oracle(injected.payload, CFG.n)
        assert any(after[g] >= 5 * before[g] > 0 for g in after)
        assert len(injected.payload) == len(original.payload)

    def test_repeated_gram_is_in_vocabulary(self):
        closure = vocabulary_closure(Protocol.FTP, CFG.n)
        original, injected = eligible_record(Protocol.FTP, AnomalyKind.FREQ_SHIFT)
        after = sliding_window_oracle(injected.payload, CFG.n)
        repeated = max(after, key=after.get)
        assert repeated in closure

    def test_too_short_payload_rejected(self):
        rec = next(
            r for r in gen_legit(GenSpec(Protocol.FTP, 200, seed=5))
            if r.payload == b"QUIT\r\n"
        )
        with pytest.raises(InjectionError):
            inject(rec, AnomalyKind.FREQ_SHIFT, random.Random(1))


class TestInjectLocation:
    def test_payload_counts_unchanged_chunk_counts_changed(self):
        original, injected = eligible_record(Protocol.FTP, AnomalyKind.LOCATION_SHIFT)
        assert injected.payload != original.payload
        assert sliding_window_oracle(injected.payload, CFG.n) == \
            sliding_window_oracle(original.payload, CFG.n)
        assert counts_for(injected.payload) == counts_for(original.payload)
        assert chunk_pairs(injected.payload, CFG) != chunk_pairs(original.payload, CFG)

    def test_invariance_over_many_records(self):
        count = 0
        for rec in gen_legit(GenSpec(Protocol.FTP, 400, seed=6)):
            try:
                injected = inject(rec, AnomalyKind.LOCATION_SHIFT, random.Random(1))
            except InjectionError:
                continue
            count += 1
            assert sliding_window_oracle(injected.payload, CFG.n) == \
                sliding_window_oracle(rec.payload, CFG.n)
        assert count > 50

    def test_http_swap_also_supported(self):
        original, injected = eligible_record(Protocol.HTTP, AnomalyKind.LOCATION_SHIFT)
        assert sliding_window_oracle(injected.payload, CFG.n) == \
            sliding_window_oracle(original.payload, CFG.n)
        assert isinstance(extract_relevant(Protocol.HTTP, injected.payload), RelevantPayload)

    def test_record_without_swappable_fields_rejected(self):
        rec = next(
            r for r in gen_legit(GenSpec(Protocol.FTP, 200, seed=5))
            if r.payload.startswith(b"RETR ")
        )
        with pytest.raises(InjectionError):
            inject(rec, AnomalyKind.LOCATION_SHIFT, random.Random(1))

    def test_oversized_n_rejected_by_multiset_check(self):
        rec = next(
            r for r in gen_legit(GenSpec(Protocol.FTP, 200, seed=5))
            if r.payload.startswith(b"USER ")
        )
        with pytest.raises(InjectionError, match="multiset"):
            inject(rec, AnomalyKind.LOCATION_SHIFT, random.Random(1), cfg=ChunkingConfig(6, 15))


class TestInjectCorpus:
    def test_replaces_exactly_count(self):
        records = gen_legit(GenSpec(Protocol.FTP, 500, seed=14))
        out = inject_corpus(records, AnomalyKind.UNSEEN_GRAM, 40, seed=2)
        assert len(out) == 500
        attacks = [r for r in out if r.is_attack]
        assert len(attacks) == 40
        assert all(attack_instance_of(r.label).startswith("unseen-") for r in attacks)
        untouched = [r for r in out if not r.is_attack]
        original_by_id = {r.id: r for r in records}
        assert all(original_by_id[r.id].payload == r.payload for r in untouched)

    def test_not_enough_eligible_records_is_an_error(self):
        records = gen_legit(GenSpec(Protocol.FTP, 20, seed=16))
        with pytest.raises(InjectionError, match="eligible"):
            inject_corpus(records, AnomalyKind.LOCATION_SHIFT, 20, seed=4)

    def test_kinds_stack_without_overlap(self):
        records = gen_legit(GenSpec(Protocol.FTP, 500, seed=17))
        out = inject_corpus(records, AnomalyKind.UNSEEN_GRAM, 30, seed=5)
        out = inject_corpus(out, AnomalyKind.LOCATION_SHIFT, 30, seed=6)
        kinds = Counter(attack_instance_of(r.label).split("-")[0] for r in out if r.is_attack)
        assert kinds == Counter({"unseen": 30, "location": 30})


class TestInjectPreconditions:
    def test_attack_record_rejected(self):
        rec = gen_legit(GenSpec(Protocol.FTP, 1, seed=1))[0]
        attacked = inject(rec, AnomalyKind.UNSEEN_GRAM, random.Random(1))
        with pytest.raises(InjectionError, match="already"):
            inject(attacked, AnomalyKind.FREQ_SHIFT, random.Random(1))

    def test_unknown_port_rejected(self):
        from pckad import PacketRecord

        rec = PacketRecord(id=0, dst_port=25, payload=b"EHLO mail\r\n", label="legit")
        with pytest.raises(InjectionError, match="protocol"):
            inject(rec, AnomalyKind.UNSEEN_GRAM, random.Random(1))

    @pytest.mark.parametrize(
        "port, payload, kind, message",
        [
            (80, b"GET ../..", AnomalyKind.FREQ_SHIFT, "no valid request line"),
            (21, b"ab\r\n", AnomalyKind.UNSEEN_GRAM, "too short for an n=3"),
            (21, b"", AnomalyKind.UNSEEN_GRAM, "empty payload"),
        ],
        ids=["no-request-line", "span-shorter-than-n", "empty-payload"],
    )
    def test_uneditable_payload_rejected(self, port, payload, kind, message):
        from pckad import PacketRecord

        rec = PacketRecord(id=0, dst_port=port, payload=payload, label="legit")
        with pytest.raises(InjectionError, match=message):
            inject(rec, kind, random.Random(1), CFG)

import dataclasses
import gc
import ipaddress
import json
import os
import random
import re
import struct
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pckad import (
    CorpusError,
    IngestSummary,
    PacketRecord,
    TrafficFilter,
    read_jsonl,
    read_pcap,
    write_jsonl,
)
from pckad import corpus
from pckad.corpus import _record_from_line, attack_instance_of

from helpers import pcap_bytes, reference_decode, tcp_frame, udp_frame


def filt(*ports, prefix=None):
    net = ipaddress.IPv4Network(prefix) if prefix else None
    return TrafficFilter(ports=frozenset(ports), dst_prefix=net)


class TestPacketRecord:
    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            PacketRecord(id=0, dst_port=70000, payload=b"x")

    @pytest.mark.parametrize("fields, message", [
        (dict(dst_port=True), r"port must be within \[0, 65535\]"),
        (dict(ts=True), "ts must be an integer"),
        (dict(ts=1.5), "ts must be an integer"),
        # one byte past the most one TCP segment in IPv4 carries; read_pcap yields no more
        (dict(payload=b"x" * 65_496), "payload longer than 65495 bytes"),
    ], ids=["port-bool", "ts-bool", "ts-float", "payload-65496-bytes"])
    def test_field_that_would_not_read_back_refused(self, fields, message):
        # write_jsonl would write it, and read_jsonl would refuse the line
        with pytest.raises(ValueError, match=f"^{message}$"):
            PacketRecord(**{"id": 0, "dst_port": 21, "payload": b"USER x\r\n", **fields})

    def test_negative_ts_round_trips(self, tmp_path):
        rec = PacketRecord(id=0, dst_port=21, payload=b"x", ts=-1)
        write_jsonl([rec], tmp_path / "c.jsonl")
        assert list(read_jsonl(tmp_path / "c.jsonl")) == [rec]

    def test_label_must_be_legit_or_attack(self):
        with pytest.raises(ValueError):
            PacketRecord(id=0, dst_port=21, payload=b"x", label="bogus")
        with pytest.raises(ValueError):
            PacketRecord(id=0, dst_port=21, payload=b"x", label="attack:")

    def test_attack_instance_parsing(self):
        rec = PacketRecord(id=0, dst_port=21, payload=b"x", label="attack:ps-17")
        assert rec.is_attack
        assert attack_instance_of(rec.label) == "ps-17"
        legit = PacketRecord(id=1, dst_port=21, payload=b"x", label="legit")
        assert not legit.is_attack
        assert attack_instance_of(legit.label) is None

    @pytest.mark.parametrize("label", [None, "legit", "attack:x"])
    def test_is_attack_agrees_with_the_attack_instance(self, label):
        rec = PacketRecord(id=0, dst_port=21, payload=b"x", label=label)
        assert rec.is_attack == (attack_instance_of(label) is not None)


class TestJsonl:
    def test_single_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"55534552"}\n')
        records = list(read_jsonl(path))
        assert len(records) == 1
        assert records[0].id == 0
        assert records[0].dst_port == 21
        assert records[0].payload == b"USER"
        assert records[0].label is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert list(read_jsonl(path)) == []

    # (payload_hex as it stands in the JSON line, the payload or the exact message)
    @pytest.mark.parametrize("payload_hex, outcome", [
        ("5553A", "odd-length payload_hex"),
        ("zz", "payload_hex is not hexadecimal"),
        # ASCII whitespace, which bytes.fromhex would skip
        ("55 53", "odd-length payload_hex"),
        (" 5553", "odd-length payload_hex"),
        ("55\\t53", "odd-length payload_hex"),
        ("5553\\n", "odd-length payload_hex"),
        ("55  53", "payload_hex is not hexadecimal"),
        ("\\t5553\\n", "payload_hex is not hexadecimal"),
        ("\u0665\u0665", "payload_hex is not hexadecimal"),  # Arabic-Indic digits
        ("\uff15\uff15", "payload_hex is not hexadecimal"),  # full-width digits
        ("\\udcff\\udcff", "payload_hex is not hexadecimal"),
        ("4A4b", b"JK"),
        ("", b""),
    ], ids=["odd", "zz", "inner-space", "leading-space", "tab", "newline", "even-spaces",
            "even-tab-newline", "arabic-indic", "full-width", "surrogates", "mixed-case",
            "empty"])
    def test_payload_hex_rule(self, tmp_path, payload_hex, outcome):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"' + payload_hex + '"}\n', encoding="utf-8")
        if isinstance(outcome, bytes):
            (rec,) = read_jsonl(path)
            assert rec.payload == outcome
        else:
            with pytest.raises(CorpusError) as err:
                list(read_jsonl(path))
            assert str(err.value) == f"{path}: line 1: {outcome}"

    @given(
        payload_hex=st.text(alphabet="0123456789abcdefABCDEFgGzZ \t\n\r\x0b\x0c\x1c\x85"
                                     "\xa0\u0665\uff15\u00e9", max_size=10),
        ensure_ascii=st.booleans(),
    )
    def test_payload_hex_rule_matches_parity_then_regex(self, payload_hex, ensure_ascii):
        """The fromhex check accepts and rejects as the parity check and regex it replaced."""
        if len(payload_hex) % 2 != 0:
            want = "odd-length payload_hex"
        elif not re.match(r"\A[0-9a-fA-F]*\Z", payload_hex):
            want = "payload_hex is not hexadecimal"
        else:
            want = bytes.fromhex(payload_hex)
        line = json.dumps({"port": 21, "payload_hex": payload_hex}, ensure_ascii=ensure_ascii)
        try:
            got = _record_from_line(line, 0).payload
        except ValueError as exc:
            got = str(exc)
        assert got == want

    def test_non_ascii_label_accepted(self, tmp_path):
        # a non-ASCII line is scanned for undecodable bytes, and valid UTF-8 passes
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"00","label":"attack:\u00e9"}\n',
                        encoding="utf-8")
        (rec,) = read_jsonl(path)
        assert rec.label == "attack:\u00e9"

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"00"}\n{broken\n')
        with pytest.raises(CorpusError, match="line 2:"):
            list(read_jsonl(path))

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"port":21,"payload_hex":"00"}\n\xff\xfe\n')
        with pytest.raises(CorpusError, match="line 2: invalid UTF-8"):
            list(read_jsonl(path))

    def test_deep_nesting_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"00"}\n' + "[" * 200_000 + "]" * 200_000 + "\n")
        with pytest.raises(CorpusError, match="line 2: invalid JSON \\(nested too deeply\\)"):
            list(read_jsonl(path))

    def test_overlong_integer_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":' + "2" * 5000 + ',"payload_hex":"00"}\n')
        with pytest.raises(CorpusError, match="line 1: invalid JSON"):
            list(read_jsonl(path))

    def test_escaped_surrogate_is_not_invalid_utf8(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"00","label":"attack:\\udcff"}\n')
        (rec,) = read_jsonl(path)
        assert rec.label == "attack:\udcff"

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"00","label":"nope"}\n')
        with pytest.raises(CorpusError):
            list(read_jsonl(path))

    def test_missing_port_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"payload_hex":"00"}\n')
        with pytest.raises(CorpusError):
            list(read_jsonl(path))

    @pytest.mark.parametrize("line, message", [
        ('[21, "00"]', "record must be an object"),
        ('{"port":21,"payload_hex":"00","label":7}', "label must be a string"),
        ('{"port":21,"payload_hex":"00","ts":1.5}', "ts must be an integer"),
        ('{"port":21,"payload_hex":"00","ts":true}', "ts must be an integer"),
    ], ids=["not-an-object", "label-not-a-string", "ts-float", "ts-bool"])
    def test_wrong_json_type_names_line(self, tmp_path, line, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"00"}\n' + line + "\n")
        with pytest.raises(CorpusError, match=f"line 2: {message}"):
            list(read_jsonl(path))

    @pytest.mark.parametrize("payload_hex, message", [
        ("78" * 65_495, None),
        ("78" * 65_496, "payload longer than 65495 bytes"),
        # the length is checked before the digits are decoded
        ("zz" * 65_496, "payload longer than 65495 bytes"),
    ], ids=["65495-bytes", "65496-bytes", "65496-bytes-not-hex"])
    def test_payload_length_bound_names_line(self, tmp_path, payload_hex, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"00"}\n'
                        '{"port":21,"payload_hex":"' + payload_hex + '"}\n')
        if message is None:
            assert list(read_jsonl(path))[1].payload == bytes.fromhex(payload_hex)
        else:
            with pytest.raises(CorpusError, match=f"line 2: {message}$"):
                list(read_jsonl(path))

    def test_port_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"port":21,"payload_hex":"00"}\n{"port":70000,"payload_hex":"00"}\n')
        with pytest.raises(CorpusError, match=r"line 2: port must be within \[0, 65535\]"):
            list(read_jsonl(path))

    def test_write_empty(self, tmp_path):
        path = tmp_path / "out.jsonl"
        assert write_jsonl([], path) == 0
        assert path.read_text() == ""

    def test_write_two_records(self, tmp_path):
        path = tmp_path / "out.jsonl"
        records = [
            PacketRecord(id=0, dst_port=21, payload=b"USER x\r\n", label="legit"),
            PacketRecord(id=1, dst_port=80, payload=b"", ts=12),
        ]
        assert write_jsonl(records, path) == 2
        assert len(path.read_text().splitlines()) == 2

    def test_low_byte_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        payload = bytes(range(16))
        write_jsonl([PacketRecord(id=0, dst_port=21, payload=payload)], path)
        (back,) = read_jsonl(path)
        assert back.payload == payload

    def test_random_round_trip_identity(self, tmp_path):
        rng = random.Random(99)
        records = []
        for i in range(200):
            label = rng.choice([None, "legit", f"attack:i{rng.randrange(5)}"])
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
            records.append(PacketRecord(id=i, dst_port=rng.randrange(65536), payload=payload, label=label))
        path = tmp_path / "c.jsonl"
        write_jsonl(records, path)
        back = list(read_jsonl(path))
        assert [(r.dst_port, r.payload, r.label) for r in back] == [
            (r.dst_port, r.payload, r.label) for r in records
        ]
        # a second round trip is byte-identical
        path2 = tmp_path / "c2.jsonl"
        write_jsonl(back, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestReadPcap:
    def test_three_ftp_segments(self, tmp_path):
        payloads = [b"USER x\r\n", b"", b"PASS y\r\n"]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([tcp_frame(p, 21) for p in payloads]))
        records = list(read_pcap(path, filt(21)))
        assert [r.id for r in records] == [0, 1, 2]
        assert [r.payload for r in records] == payloads

    def test_filter_excludes_all(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([tcp_frame(b"USER x\r\n", 21)]))
        assert list(read_pcap(path, filt(80))) == []

    def test_udp_skipped(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([udp_frame(b"dns", 80), tcp_frame(b"GET", 80)]))
        summary = IngestSummary()
        records = list(read_pcap(path, filt(80), summary))
        assert len(records) == 1
        assert records[0].payload == b"GET"
        assert summary.non_ipv4_tcp == 1

    def test_both_endiannesses(self, tmp_path):
        frames = [tcp_frame(b"PASV\r\n", 21)]
        for big in (False, True):
            path = tmp_path / f"{big}.pcap"
            path.write_bytes(pcap_bytes(frames, big_endian=big))
            (rec,) = read_pcap(path, filt(21))
            assert rec.payload == b"PASV\r\n"

    def test_ethernet_padding_not_payload(self, tmp_path):
        # 4-byte payload, frame padded to the 60-byte Ethernet minimum
        assert len(tcp_frame(b"PWD\n", 21)) < 60
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([tcp_frame(b"PWD\n", 21, pad_to=60)]))
        (rec,) = read_pcap(path, filt(21))
        assert rec.payload == b"PWD\n"

    def test_largest_segment_is_within_the_payload_bound(self, tmp_path):
        # a 65,535-byte total length less the 20-byte IP and TCP headers, which the
        # PacketRecord constructor accepts; under a snapshot length that holds the frame
        frame = tcp_frame(b"x" * corpus.MAX_PAYLOAD, 21)
        data = bytearray(pcap_bytes([frame]))
        data[16:20] = struct.pack("<I", len(frame))
        path = tmp_path / "c.pcap"
        path.write_bytes(data)
        (rec,) = read_pcap(path, filt(21))
        assert len(rec.payload) == corpus.MAX_PAYLOAD == 65_495
        assert rec == PacketRecord(rec.id, rec.dst_port, rec.payload, rec.label, rec.ts)

    def test_truncated_trailing_frame_counted(self, tmp_path):
        import struct

        good = tcp_frame(b"TYPE I\r\n", 21)
        data = pcap_bytes([good])
        # record header claims 50 bytes; only 10 follow
        data += struct.pack("<IIII", 9, 0, 50, 50) + b"\x00" * 10
        path = tmp_path / "c.pcap"
        path.write_bytes(data)
        summary = IngestSummary()
        records = list(read_pcap(path, filt(21), summary))
        assert len(records) == 1
        assert summary.truncated == 1

    def test_captured_length_above_snaplen_fatal(self, tmp_path):
        import struct

        data = pcap_bytes([tcp_frame(b"TYPE I\r\n", 21)])
        # snaplen is 65535; a corrupt header claims 4 GB
        data += struct.pack("<IIII", 9, 0, 0xFFFFFFF0, 60) + b"\x00" * 60
        path = tmp_path / "c.pcap"
        path.write_bytes(data)
        records = read_pcap(path, filt(21))
        assert next(records).payload == b"TYPE I\r\n"
        with pytest.raises(CorpusError, match="exceeds the snapshot length 65535"):
            next(records)

    def test_length_past_end_of_file_is_truncated_before_the_read(self, tmp_path):
        data = bytearray(pcap_bytes([tcp_frame(b"TYPE I\r\n", 21)]))
        data[16:20] = struct.pack("<I", 0xFFFFFFFF)  # snaplen puts no bound on the length
        # a record claims 100 MB; 84 bytes follow
        data += struct.pack("<IIII", 9, 0, 100_000_000, 100_000_000) + b"\x00" * 84
        path = tmp_path / "c.pcap"
        path.write_bytes(bytes(data))
        summary = IngestSummary()
        tracemalloc.start()
        try:
            records = list(read_pcap(path, filt(21), summary))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.payload for r in records] == [b"TYPE I\r\n"]
        assert (summary.frames, summary.truncated) == (2, 1)
        assert peak < 1_000_000

    @staticmethod
    def read_through_pipe(tmp_path, data, summary=None):
        """Records read from a named pipe that a thread fills with data."""
        path = tmp_path / "c.pcap"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            return list(read_pcap(path, filt(21), summary))
        finally:
            writer.join(timeout=10)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_has_no_known_end_and_is_read_whole(self, tmp_path):
        data = pcap_bytes([tcp_frame(b"QUIT\r\n", 21)])
        assert [r.payload for r in self.read_through_pipe(tmp_path, data)] == [b"QUIT\r\n"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_with_length_above_snaplen_is_corpus_error(self, tmp_path):
        data = pcap_bytes([tcp_frame(b"TYPE I\r\n", 21)])
        data += struct.pack("<IIII", 9, 0, 0xFFFFFFF0, 60) + b"\x00" * 60
        offset = len(data) - 76
        with pytest.raises(CorpusError, match=f"record at byte {offset}: captured length"):
            self.read_through_pipe(tmp_path, data)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_with_cut_last_record_is_truncated(self, tmp_path):
        data = pcap_bytes([tcp_frame(b"TYPE I\r\n", 21)])
        # the record header claims 50 bytes; the pipe closes after 10
        data += struct.pack("<IIII", 9, 0, 50, 50) + b"\x00" * 10
        summary = IngestSummary()
        records = self.read_through_pipe(tmp_path, data, summary)
        assert [r.payload for r in records] == [b"TYPE I\r\n"]
        assert (summary.frames, summary.truncated) == (2, 1)

    def test_captured_length_equal_to_snaplen_read(self, tmp_path):
        import struct

        frame = tcp_frame(b"NOOP\r\n", 21)
        data = bytearray(pcap_bytes([frame]))
        data[16:20] = struct.pack("<I", len(frame))  # snaplen = this frame's length
        path = tmp_path / "c.pcap"
        path.write_bytes(bytes(data))
        assert [r.payload for r in read_pcap(path, filt(21))] == [b"NOOP\r\n"]

    def test_frame_with_cut_headers_skipped(self, tmp_path):
        # honest incl_len but too short to hold ethernet+ip+tcp headers
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([tcp_frame(b"x", 21)[:30], tcp_frame(b"LIST\r\n", 21)]))
        summary = IngestSummary()
        records = list(read_pcap(path, filt(21), summary))
        assert [r.payload for r in records] == [b"LIST\r\n"]
        assert summary.truncated == 1

    # tcp_frame's IP header starts at byte 14 and its TCP header at byte 34
    @pytest.mark.parametrize("pos, value, outcome", [
        (14, b"\x44", "truncated"),  # IHL 16 bytes
        (14, b"\x4f", "truncated"),  # IHL 60 bytes, past the end of the frame
        (16, struct.pack(">H", 39), "truncated"),  # total length below the two headers
        (46, bytes([4 << 4]), "truncated"),  # TCP data offset 16 bytes
        (46, bytes([15 << 4]), "truncated"),  # TCP data offset 60 bytes, past the segment
        (14, b"\x65", "non_ipv4_tcp"),  # IP version 6 under the IPv4 ethertype
        (20, struct.pack(">H", 0x2000), "non_ipv4_tcp"),  # first fragment: MF set, offset 0
        (20, struct.pack(">H", 0x2005), "non_ipv4_tcp"),  # a middle fragment
        (20, struct.pack(">H", 0x0005), "non_ipv4_tcp"),  # the last fragment
        (20, struct.pack(">H", 0x4000), "yielded"),  # don't fragment: a whole datagram
        (36, struct.pack(">H", 80), "filtered_out"),  # TCP destination port 80, filter 21
    ], ids=["ihl-below-20", "ihl-past-frame", "total-length-below-headers",
            "data-offset-below-20", "data-offset-past-segment", "ip-version-6",
            "first-fragment", "middle-fragment", "last-fragment", "dont-fragment",
            "port-filtered-out"])
    def test_edited_header_field(self, tmp_path, pos, value, outcome):
        frame = bytearray(tcp_frame(b"USER x\r\n", 21))
        frame[pos:pos + len(value)] = value
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([bytes(frame), tcp_frame(b"PASV\r\n", 21)]))
        summary = IngestSummary()
        records = list(read_pcap(path, filt(21), summary))
        kept = outcome == "yielded"
        assert [r.payload for r in records] == [b"USER x\r\n"] * kept + [b"PASV\r\n"]
        want = {"truncated": 0, "non_ipv4_tcp": 0, "filtered_out": 0, "yielded": 1}
        want[outcome] += 1
        assert want == {key: getattr(summary, key) for key in want}

    def test_padding_after_an_empty_segment_not_payload(self, tmp_path):
        # 54 bytes of headers padded to the 60-byte Ethernet minimum
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([tcp_frame(b"", 21, pad_to=60)]))
        (rec,) = read_pcap(path, filt(21))
        assert rec.payload == b""

    # a TCP header read at byte 34 whatever the IHL would take its port, 257, from the NOPs
    @pytest.mark.parametrize("ip_options, tcp_options", [
        (b"\x01\x01\x01\x00", b""),  # three NOPs and an end of list
        (b"", b"\x02\x04\x05\xb4"),  # maximum segment size 1460
        (b"\x01" * 40, b"\x01" * 36 + b"\x00" * 4),  # the most each header holds
    ], ids=["ip-options", "tcp-options", "both-at-most"])
    def test_header_options_skipped(self, tmp_path, ip_options, tcp_options):
        payload = b"GET / HTTP/1.0\r\n\r\n"
        frame = tcp_frame(payload, 80, ip_options=ip_options, tcp_options=tcp_options)
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([frame, tcp_frame(b"QUIT\r\n", 21, ip_options=ip_options)]))
        summary = IngestSummary()
        records = list(read_pcap(path, filt(21, 80), summary))
        assert [(r.dst_port, r.payload) for r in records] == [(80, payload), (21, b"QUIT\r\n")]
        assert summary.yielded == 2

    def test_snaplen_cut_payload_skipped(self, tmp_path):
        # capture is 4 bytes shorter than the IP datagram claims
        snapped = tcp_frame(b"USER alice\r\n", 21)[:-4]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([snapped, tcp_frame(b"PASV\r\n", 21)]))
        summary = IngestSummary()
        records = list(read_pcap(path, filt(21), summary))
        assert [r.payload for r in records] == [b"PASV\r\n"]
        assert summary.truncated == 1

    def test_dst_prefix_filter(self, tmp_path):
        frames = [
            tcp_frame(b"in", 21, dst_ip="172.16.3.4"),
            tcp_frame(b"out", 21, dst_ip="10.1.2.3"),
        ]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes(frames))
        records = list(read_pcap(path, filt(21, prefix="172.16.0.0/16")))
        assert [r.payload for r in records] == [b"in"]

    def test_timestamp_microseconds(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([tcp_frame(b"x", 21)], ts=(7, 12)))
        (rec,) = read_pcap(path, filt(21))
        assert rec.ts == 7 * 1_000_000 + 12

    def test_bad_magic_fatal(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(CorpusError, match="magic"):
            list(read_pcap(path, filt(21)))

    def test_truncated_global_header_fatal(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1short")
        with pytest.raises(CorpusError):
            list(read_pcap(path, filt(21)))

    def test_non_ethernet_link_fatal(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([], link_type=101))
        with pytest.raises(CorpusError, match="link type"):
            list(read_pcap(path, filt(21)))

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(CorpusError):
            list(read_pcap(tmp_path / "absent.pcap", filt(21)))

    def test_filter_is_pure_subset(self, tmp_path):
        rng = random.Random(4)
        frames = []
        expected = []
        wanted_ports = {21, 80}
        for _ in range(120):
            port = rng.choice([21, 80, 25, 443])
            dst_ip = rng.choice(["172.16.9.9", "10.0.0.1"])
            payload = bytes(rng.randrange(32, 127) for _ in range(rng.randrange(0, 30)))
            frames.append(tcp_frame(payload, port, dst_ip=dst_ip))
            if port in wanted_ports and dst_ip.startswith("172.16."):
                expected.append((port, payload))
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes(frames))
        records = list(read_pcap(path, filt(*wanted_ports, prefix="172.16.0.0/16")))
        assert [(r.dst_port, r.payload) for r in records] == expected
        assert [r.id for r in records] == list(range(len(expected)))


class TestReaderRecords:
    """Records the readers build skip the constructor's re-check and differ in nothing else."""

    COUNT = 3000

    @pytest.fixture
    def paths(self, tmp_path):
        rng = random.Random(7)
        payloads = [rng.randbytes(rng.randrange(0, 40)) for _ in range(self.COUNT)]
        pcap = tmp_path / "c.pcap"
        pcap.write_bytes(pcap_bytes([tcp_frame(p, 80) for p in payloads], ts=(1_000_000_000, 5)))
        jsonl = tmp_path / "c.jsonl"
        write_jsonl([PacketRecord(i, 21, p, rng.choice([None, "legit", "attack:a"]),
                                  rng.choice([None, rng.randrange(-2**40, 2**40)]))
                     for i, p in enumerate(payloads)], jsonl)
        return {"pcap": lambda: read_pcap(pcap, filt(80)), "jsonl": lambda: read_jsonl(jsonl)}

    @pytest.mark.parametrize("reader", ["pcap", "jsonl"])
    def test_equal_to_constructor_records(self, paths, reader):
        records = list(paths[reader]())
        assert len(records) == self.COUNT
        for rec in records:
            built = PacketRecord(rec.id, rec.dst_port, rec.payload, rec.label, rec.ts)
            assert type(rec) is PacketRecord
            assert rec == built and hash(rec) == hash(built)

    @pytest.mark.parametrize("reader", ["pcap", "jsonl"])
    def test_frozen(self, paths, reader):
        rec = next(iter(paths[reader]()))
        for field in dataclasses.fields(PacketRecord):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, field.name, None)

    @pytest.mark.parametrize("reader", ["pcap", "jsonl"])
    def test_no_larger_than_constructor_records(self, paths, reader, monkeypatch):
        # the same read with each record built by the constructor: payloads, ids and ts
        # cost the same both ways, so only the records' own memory can differ
        def retained_per_record():
            list(paths[reader]())  # a first read fills whatever caches a read fills
            gc.collect()
            tracemalloc.start()
            try:
                records = list(paths[reader]())
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            return retained / len(records)

        read = retained_per_record()
        monkeypatch.setattr(corpus, "_unchecked_record", PacketRecord)
        # a byte a record spares one-off allocations; a dict that shares no keys costs 100 or more
        assert read <= retained_per_record() + 1


_FILTERED = filt(21, 80, prefix="172.16.0.0/16")


# one draw in four: most frames keep most fields honest, so every outcome occurs often
_SOMETIMES = st.sampled_from([False, False, False, True])


@st.composite
def _edited_frames(draw):
    """A TCP frame with options or none, its lengths and flags said freely, edited and cut."""
    ip_options = draw(st.sampled_from([b"", b"\x01\x01\x01\x00", b"\x01" * 40]))
    frame = bytearray(tcp_frame(
        draw(st.binary(max_size=12)),
        draw(st.sampled_from([21, 80, 443])),
        dst_ip=draw(st.sampled_from(["172.16.0.5", "10.0.0.1"])),
        pad_to=draw(st.sampled_from([None, 60, 120])),
        ip_options=ip_options,
        tcp_options=draw(st.sampled_from([b"", b"\x02\x04\x05\xb4", b"\x01" * 40])),
    ))
    # lying lengths: the IHL, the total length and the TCP data offset
    if draw(_SOMETIMES):
        frame[14] = 0x40 | draw(st.integers(0, 15))
    if draw(_SOMETIMES):
        frame[16:18] = draw(st.integers(0, 140)).to_bytes(2, "big")
    if draw(_SOMETIMES):
        frame[14 + 20 + len(ip_options) + 12] = draw(st.integers(0, 15)) << 4
    # flags and fragment offset: don't fragment, more fragments, an offset, the reserved bit
    if draw(_SOMETIMES):
        flags = draw(st.sampled_from([0x4000, 0x2000, 0x0001, 0x1FFF, 0x8000]))
        frame[20:22] = flags.to_bytes(2, "big")
    edits = st.lists(st.tuples(st.integers(12, 60), st.integers(0, 255)), max_size=2)
    for pos, byte in draw(edits):
        if pos < len(frame):
            frame[pos] = byte
    cut = draw(st.integers(0, len(frame))) if draw(_SOMETIMES) else None
    return bytes(frame[:cut])


@settings(max_examples=400)
@given(frame=_edited_frames(), big_endian=st.booleans(),
       ts=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
def test_read_pcap_decodes_as_the_reference(tmp_path_factory, frame, big_endian, ts):
    path = tmp_path_factory.getbasetemp() / "reference.pcap"
    path.write_bytes(pcap_bytes([frame], big_endian=big_endian, ts=ts))
    summary = IngestSummary()
    records = list(read_pcap(path, _FILTERED, summary))
    decoded = reference_decode(frame)
    if isinstance(decoded, str):
        outcome, want = decoded, []
    elif _FILTERED.matches(decoded[0], decoded[1]):
        outcome, want = "yielded", [(0, decoded[0], decoded[2], None, ts[0] * 1_000_000 + ts[1])]
    else:
        outcome, want = "filtered_out", []
    assert [(r.id, r.dst_port, r.payload, r.label, r.ts) for r in records] == want
    counters = {"frames": 1, "truncated": 0, "non_ipv4_tcp": 0, "filtered_out": 0, "yielded": 0}
    counters[outcome] += 1
    assert dataclasses.asdict(summary) == counters


_ADDRESSES = st.binary(min_size=4, max_size=4)


@settings(max_examples=300)
@given(prefix_len=st.sampled_from([0, 8, 24, 32]), prefix_addr=_ADDRESSES, addr=_ADDRESSES,
       inside=st.booleans())
def test_traffic_filter_prefix_agrees_with_ipaddress(prefix_len, prefix_addr, addr, inside):
    # the prefix keeps its host bits (strict=False), as `--pcap-filter prefix=` builds it
    prefix = ipaddress.IPv4Network((prefix_addr, prefix_len), strict=False)
    if inside:
        # keep the prefix's network bits, so that the longer prefixes match too
        netmask = int(prefix.netmask)
        addr = (int(prefix.network_address) | int.from_bytes(addr, "big") & ~netmask
                & 0xFFFFFFFF).to_bytes(4, "big")
    flt = TrafficFilter(ports=frozenset({21}), dst_prefix=prefix)
    want = ipaddress.IPv4Address(addr) in prefix
    assert want or not inside
    assert flt.matches(21, addr) is want
    assert flt.matches(80, addr) is False


def test_traffic_filter_compares_by_ports_and_prefix():
    # the prefix's integer form is derived, so it is neither shown nor compared
    prefix = ipaddress.IPv4Network("172.16.0.0/16")
    flt = TrafficFilter(ports=frozenset({21}), dst_prefix=prefix)
    assert flt == TrafficFilter(ports=frozenset({21}), dst_prefix=prefix)
    assert hash(flt) == hash(TrafficFilter(ports=frozenset({21}), dst_prefix=prefix))
    assert flt != TrafficFilter(ports=frozenset({21}))
    assert repr(flt) == ("TrafficFilter(ports=frozenset({21}), "
                         "dst_prefix=IPv4Network('172.16.0.0/16'))")


def test_traffic_filter_requires_ports():
    with pytest.raises(ValueError):
        TrafficFilter(ports=frozenset())


@pytest.mark.parametrize("port", [-1, 65536, 99999, True])
def test_traffic_filter_range_checks_ports(port):
    with pytest.raises(ValueError, match=r"port must be within \[0, 65535\]"):
        TrafficFilter(ports=frozenset({21, port}))
    assert TrafficFilter(ports=frozenset({0, 65535})).matches(65535, bytes(4))


# JSON values of every type for every known key, so that lines get past json.loads
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=False),
    st.sampled_from(["legit", "attack:", "attack:x", "00", "0a1B", "zz", "abc", "\udcff"]),
    st.text(alphabet="0aZ:x\u00e9", max_size=6), st.lists(st.integers(), max_size=2),
)
_JSONL_LINES = st.one_of(
    st.dictionaries(st.sampled_from(["port", "payload_hex", "label", "ts", "x"]), _JSON_VALUES)
    .map(lambda obj: json.dumps(obj).encode("utf-8", "surrogatepass")),
    st.binary(max_size=24),
)


@settings(max_examples=200)
@given(lines=st.lists(_JSONL_LINES, max_size=6))
def test_jsonl_bytes_raise_only_corpus_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        records = list(read_jsonl(path))
    except CorpusError:
        return
    assert all(isinstance(r, PacketRecord) for r in records)


def _pcap_record(fields):
    """One record: a TCP frame cut, padded or edited, under an honest or a lying length."""
    payload, port, edits, cut, claimed = fields
    frame = bytearray(tcp_frame(payload, port))
    for pos, byte in edits:
        frame[pos % len(frame)] = byte
    frame = bytes(frame[:cut])
    return claimed if claimed is not None else len(frame), frame


_PCAP_RECORDS = st.tuples(
    st.binary(max_size=16),
    st.sampled_from([21, 80, 443]),
    st.lists(st.tuples(st.integers(0, 80), st.integers(0, 255)), max_size=3),
    st.one_of(st.none(), st.integers(0, 80)),
    st.one_of(st.none(), st.integers(0, 1 << 20)),
).map(_pcap_record)


@settings(max_examples=200)
@given(
    records=st.lists(_PCAP_RECORDS, max_size=5),
    big_endian=st.booleans(),
    snaplen=st.sampled_from([0, 60, 65535, 0xFFFFFFFF]),
    tail=st.binary(max_size=20),
)
def test_pcap_records_raise_only_corpus_error(tmp_path_factory, records, big_endian, snaplen,
                                              tail):
    endian = ">" if big_endian else "<"
    data = struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 1)
    for i, (claimed, frame) in enumerate(records):
        data += struct.pack(endian + "IIII", i, 0, claimed, len(frame)) + frame
    path = tmp_path_factory.getbasetemp() / "fuzz.pcap"
    path.write_bytes(data + tail)
    summary = IngestSummary()
    try:
        got = list(read_pcap(path, filt(21, 80, prefix="172.16.0.0/16"), summary))
    except CorpusError:
        return
    assert len(got) == summary.yielded <= summary.frames

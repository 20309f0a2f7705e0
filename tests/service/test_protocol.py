"""Tests for the profiling-service wire protocol."""

import dataclasses

import pytest

from repro.errors import ProtocolError
from repro.events import AbortReason, Event
from repro.profileme.registers import GroupRecord, PairedRecord
from repro.service.protocol import (MAX_FRAME_BYTES, WIRE_VERSION, _uv_decode,
                                    _uv_encode, check_ok, decode_push_payload,
                                    encode_frame, encode_push_payload,
                                    error_frame, hello_frame, ok_frame,
                                    parse_address, report_frame, split_frames)

from tests.analysis.test_database import make_record


def round_trip(sample):
    (clone,) = decode_push_payload(encode_push_payload([sample])[0])
    return clone


def single_record_payload(record):
    """(payload bytearray, offset of the record's length varint)."""
    payload = bytearray(encode_push_payload([record])[0])
    _, offset = _uv_decode(bytes(payload), 0)  # sample count
    return payload, offset + 1  # past the record tag


class TestRecordRoundTrip:
    def test_single_record_every_field(self):
        record = make_record(pc=0x40, events=Event.RETIRED | Event.DCACHE_MISS,
                             addr=4096,
                             latencies={"load_issue_to_completion": 17})
        assert round_trip(record) == record

    def test_offpath_record_without_opcode(self):
        record = dataclasses.replace(
            make_record(op=None, events=Event.ABORTED | Event.BAD_PATH),
            abort_reason=AbortReason.FETCH_DISCARD)
        clone = round_trip(record)
        assert clone == record
        assert clone.op is None
        assert clone.abort_reason is AbortReason.FETCH_DISCARD

    def test_none_latencies_survive(self):
        record = make_record(latencies={"data_ready_to_issue": None,
                                        "issue_to_retire_ready": None})
        clone = round_trip(record)
        assert clone.data_ready_to_issue is None
        assert clone.issue_to_retire_ready is None

    def test_pair_with_missing_second(self):
        pair = PairedRecord(first=make_record(pc=0x10), second=None,
                            intra_pair_cycles=None, intra_pair_distance=7)
        assert round_trip(pair) == pair

    def test_group_with_missing_members(self):
        group = GroupRecord(
            records=(make_record(pc=0x10), None, make_record(pc=0x30)),
            fetch_offsets=(0, None, 12), distances=(5, 5))
        assert round_trip(group) == group

    def test_unknown_tag_rejected(self):
        payload, offset = single_record_payload(make_record())
        payload[offset - 1] = 7  # no such sample tag
        with pytest.raises(ProtocolError, match="unknown sample tag"):
            decode_push_payload(bytes(payload))

    def test_malformed_record_rejected(self):
        # The record's length prefix claims one byte more than it holds.
        payload, offset = single_record_payload(make_record())
        length, end = _uv_decode(bytes(payload), offset)
        grown = bytearray()
        _uv_encode(grown, length + 1)
        payload[offset:end] = grown
        with pytest.raises(ProtocolError):
            decode_push_payload(bytes(payload) + b"\x00")

    def test_wrong_latency_count_rejected(self):
        # The presence byte announces one latency register more than the
        # record carries.
        record = make_record(latencies={"load_issue_to_completion": None})
        payload, offset = single_record_payload(record)
        _, body = _uv_decode(bytes(payload), offset)
        for _ in range(3):  # pc, fetch and done deltas: one byte each here
            body += 1
        presence = body + 2  # past the opcode and abort-reason bytes
        assert payload[presence] & 0x40 == 0
        payload[presence] |= 0x40  # load_issue_to_completion present
        with pytest.raises(ProtocolError):
            decode_push_payload(bytes(payload))


class TestFraming:
    def test_frame_round_trip(self):
        frame = report_frame(replay_dropped=3)
        frames, clean = split_frames(encode_frame(frame))
        assert clean == len(encode_frame(frame))
        assert frames == [frame]

    def test_split_keeps_only_complete_frames(self):
        data = encode_frame(hello_frame()) + encode_frame(ok_frame())
        frames, clean = split_frames(data + data[:5])  # torn trailing frame
        assert len(frames) == 2
        assert clean == len(data)

    def test_oversized_length_prefix_rejected(self):
        bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(ProtocolError, match="exceeds"):
            split_frames(bogus)

    def test_non_strict_salvages_prefix_before_corruption(self):
        good = encode_frame(hello_frame())
        bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        frames, clean = split_frames(good + bogus, strict=False)
        assert frames == [hello_frame()]
        assert clean == len(good)
        assert split_frames(bogus, strict=False) == ([], 0)

    def test_non_strict_stops_at_undecodable_body(self):
        # A frame appended after a torn one: the framing is lost, the
        # torn frame's claimed body swallows the next header, and its
        # bytes are not JSON.  Non-strict parsing keeps what precedes.
        good = encode_frame(hello_frame())
        torn = encode_frame(ok_frame())[:-3]
        data = good + torn + encode_frame(ok_frame())
        frames, clean = split_frames(data, strict=False)
        assert frames == [hello_frame()]
        assert clean == len(good)
        with pytest.raises(ProtocolError):
            split_frames(data)

    def test_hello_carries_version(self):
        assert hello_frame()["version"] == WIRE_VERSION == 2

    def test_check_ok_raises_on_error_frame(self):
        with pytest.raises(ProtocolError, match="server said: nope"):
            check_ok(error_frame("nope"), "test")
        with pytest.raises(ProtocolError, match="connection closed"):
            check_ok(None, "test")
        assert check_ok(ok_frame(x=1), "test")["x"] == 1


class TestAddressParsing:
    def test_host_port(self):
        assert parse_address("127.0.0.1:9137") == ("127.0.0.1", 9137)
        assert parse_address(("localhost", 80)) == ("localhost", 80)

    def test_bad_addresses(self):
        for bad in ("nohost", ":80", "host:", "host:banana"):
            with pytest.raises(ProtocolError):
                parse_address(bad)

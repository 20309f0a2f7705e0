"""Wire protocol v2: round-trip properties and adversarial frame fuzzing.

The binary encoding is the only encoding of sample data, so it must be
exact and safe.  Three obligations, each tested here:

* **Round trip** (Hypothesis): any encodable batch decodes back to equal
  samples, and re-encoding the decoded batch reproduces the original
  bytes — the encoding is canonical, so delta/varint state can never
  drift between peers.  Covers pc regressions (negative deltas), 64-bit
  wrap-around, empty batches, and paired/group samples.

* **Adversarial input**: every torn prefix of a valid frame, truncated
  varints, corrupted CRCs, unknown tags/ordinals, and oversized headers
  must produce a typed :class:`ProtocolError` — never an unhandled
  exception, never a silently wrong decode.  A live server fed garbage
  must keep serving other connections and account every refused frame.

* **Fused fold differential**: the signature-counting fold in
  :mod:`repro.service.fold` must produce byte-identical canonical
  exports to record-by-record aggregation, for any stream, flat or
  rolled up, with or without bucket retention and effective-address
  retention, and a malformed payload must leave the database as it was.
"""

import json
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.persistence import database_to_dict
from repro.errors import ProtocolError
from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode
from repro.profileme.registers import (GroupRecord, PairedRecord,
                                       ProfileRecord, sample_records)
from repro.service.fold import ShardFolder
from repro.service import protocol
from repro.service.protocol import (FRAME_PROBE_PUSH, FRAME_PUSH,
                                    MAX_FRAME_BYTES, V2_MAGIC, WIRE_VERSION,
                                    _sv_decode, _sv_encode,
                                    _uv_decode, _uv_encode,
                                    decode_probe_payload, decode_push_payload,
                                    encode_binary_frame, encode_frame,
                                    encode_probe_payload, encode_push_payload,
                                    hello_frame, plan_push_frames,
                                    recv_frame, send_frame, split_frames)


def canonical_json(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _payload(samples):
    """Payload bytes alone, without :func:`encode_push_payload`'s
    member count."""
    return encode_push_payload(samples)[0]


def _members(samples):
    """Records a batch holds, counting every pair/group member."""
    return sum(len(sample_records(sample)) for sample in samples)


# ----------------------------------------------------------------------
# Strategies.

_U64 = 2 ** 64 - 1

_latency = st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 20))

_records = st.builds(
    ProfileRecord,
    context=st.integers(min_value=0, max_value=7),
    # Full 64-bit range: shrinking deltas, wrap-sized deltas, regressions.
    pc=st.integers(min_value=0, max_value=_U64),
    op=st.one_of(st.none(), st.sampled_from(list(Opcode))),
    addr=st.one_of(st.none(), st.integers(min_value=0, max_value=_U64)),
    events=st.integers(min_value=0,
                       max_value=sum(int(e) for e in Event)).map(Event),
    abort_reason=st.sampled_from(list(AbortReason)),
    history=st.integers(min_value=0, max_value=_U64),
    fetch_to_map=_latency,
    map_to_data_ready=_latency,
    data_ready_to_issue=_latency,
    issue_to_retire_ready=_latency,
    retire_ready_to_retire=_latency,
    load_issue_to_completion=_latency,
    fetch_cycle=st.integers(min_value=0, max_value=_U64),
    done_cycle=st.integers(min_value=0, max_value=_U64),
)


# Records for the fold differential: few pcs and signature values, so
# counts really multiply, and fetch cycles across a few 64-cycle
# buckets, so members change bucket and stragglers arrive behind the
# current one.  Full-range records are mixed in.
_fold_latency = st.sampled_from((None, 0, 3, 1 << 20))

_fold_records = st.one_of(_records, st.builds(
    ProfileRecord,
    context=st.integers(min_value=0, max_value=1),
    pc=st.sampled_from((0x40, 0x44, 0x48, _U64)),
    op=st.sampled_from((None, Opcode.ADD, Opcode.SUB)),
    addr=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    events=st.sampled_from((Event.RETIRED,
                            Event.RETIRED | Event.DCACHE_MISS,
                            Event.ABORTED | Event.BAD_PATH)),
    abort_reason=st.sampled_from(list(AbortReason)[:2]),
    history=st.integers(min_value=0, max_value=1),
    fetch_to_map=_fold_latency,
    map_to_data_ready=_fold_latency,
    data_ready_to_issue=_fold_latency,
    issue_to_retire_ready=_fold_latency,
    retire_ready_to_retire=_fold_latency,
    load_issue_to_completion=_fold_latency,
    fetch_cycle=st.integers(min_value=0, max_value=300),
    done_cycle=st.integers(min_value=0, max_value=400),
))


def _samples_of(records):
    """Single, paired and N-way samples built from *records*."""

    @st.composite
    def groups(draw):
        members = draw(st.lists(st.one_of(st.none(), records),
                                min_size=1, max_size=4))
        offsets = draw(st.lists(
            st.one_of(st.none(),
                      st.integers(min_value=-1000, max_value=1000)),
            min_size=len(members), max_size=len(members)))
        distances = draw(st.lists(st.integers(min_value=0, max_value=500),
                                  max_size=3))
        return GroupRecord(records=tuple(members),
                           fetch_offsets=tuple(offsets),
                           distances=tuple(distances))

    return st.one_of(
        records,
        st.builds(PairedRecord, first=records,
                  second=st.one_of(st.none(), records),
                  intra_pair_cycles=st.one_of(
                      st.none(), st.integers(min_value=0, max_value=10_000)),
                  intra_pair_distance=st.one_of(
                      st.none(), st.integers(min_value=0, max_value=1000))),
        groups(),
    )


_batches = st.lists(_samples_of(_records), max_size=12)
_fold_batches = st.lists(_samples_of(_fold_records), max_size=12)


def _rec(**overrides):
    base = dict(context=0, pc=0x40, op=Opcode.LDA, addr=None,
                events=Event.RETIRED, abort_reason=AbortReason.NONE,
                history=0, fetch_to_map=1, map_to_data_ready=2,
                data_ready_to_issue=None, issue_to_retire_ready=None,
                retire_ready_to_retire=1, load_issue_to_completion=None,
                fetch_cycle=100, done_cycle=140)
    base.update(overrides)
    return ProfileRecord(**base)


# ----------------------------------------------------------------------
# Round-trip properties.


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(_batches)
    def test_push_payload_round_trips_byte_exact(self, batch):
        payload, members = encode_push_payload(batch)
        assert members == _members(batch)
        decoded = decode_push_payload(payload)
        assert decoded == batch
        # Canonical: re-encoding what was decoded reproduces the bytes,
        # so delta state cannot drift between encoder and decoder.
        assert _payload(decoded) == payload

    @settings(max_examples=80, deadline=None)
    @given(_batches)
    def test_v2_decodes_to_original_samples(self, batch):
        [(frame, top_level)] = plan_push_frames(batch)
        [decoded], _ = split_frames(frame)
        assert decode_push_payload(decoded["payload"]) == batch
        assert top_level == len(batch)
        assert decoded["count"] == _members(batch)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.text(min_size=1, max_size=40),
        st.one_of(st.none(), st.booleans(),
                  st.integers(min_value=-(2 ** 63), max_value=2 ** 63),
                  st.floats(allow_nan=False),
                  st.text(max_size=20)),
        max_size=8),
        st.integers(min_value=-1, max_value=2 ** 40))
    def test_probe_payload_round_trips(self, readings, tick):
        payload = encode_probe_payload(readings, tick)
        decoded, decoded_tick = decode_probe_payload(payload)
        assert decoded == readings
        assert decoded_tick == tick

    def test_empty_batch(self):
        payload = _payload([])
        assert decode_push_payload(payload) == []

    def test_pc_regression_and_wraparound_deltas(self):
        batch = [_rec(pc=_U64, fetch_cycle=10, done_cycle=11),
                 _rec(pc=0, fetch_cycle=5, done_cycle=6),  # regression
                 _rec(pc=_U64, fetch_cycle=_U64, done_cycle=0)]
        assert decode_push_payload(_payload(batch)) == batch

    def test_delta_chain_spans_pair_and_group_members(self):
        batch = [
            _rec(pc=0x1000),
            PairedRecord(first=_rec(pc=0x1004), second=_rec(pc=0x2000),
                         intra_pair_cycles=3, intra_pair_distance=1),
            GroupRecord(records=(_rec(pc=0x2004), None, _rec(pc=0x1000)),
                        fetch_offsets=(0, None, 7), distances=(4, 4)),
            _rec(pc=0x1004),
        ]
        payload, members = encode_push_payload(batch)
        assert decode_push_payload(payload) == batch
        assert members == 6

    def test_varint_zigzag_edges(self):
        for value in (0, -1, 1, -2, 2 ** 64, -(2 ** 64), 2 ** 70):
            out = bytearray()
            _sv_encode(out, value)
            decoded, offset = _sv_decode(bytes(out), 0)
            assert decoded == value and offset == len(out)
        out = bytearray()
        _uv_encode(out, 2 ** 64 - 1)
        assert _uv_decode(bytes(out), 0) == (2 ** 64 - 1, len(out))
        with pytest.raises(ProtocolError):
            _uv_encode(bytearray(), -1)

    def test_push_payload_is_compact(self):
        # A steady stream delta-codes pc and timestamps to one byte
        # each, so a record costs a little over a dozen bytes.
        batch = [_rec(pc=0x40 + 4 * i, fetch_cycle=100 + 7 * i,
                      done_cycle=140 + 7 * i) for i in range(256)]
        assert len(_payload(batch)) <= 16 * len(batch)


# ----------------------------------------------------------------------
# The encoder's input contract: what it accepts encodes canonically,
# what it refuses is a typed error.


def _encodes_like(odd, canonical):
    assert _payload([odd]) == _payload([canonical])


class TestEncoderContract:
    def test_plain_int_events(self):
        events = Event.RETIRED | Event.DCACHE_MISS
        _encodes_like(_rec(events=int(events)), _rec(events=events))

    def test_history_past_int64(self):
        # 2**1000 makes the record longer than 127 bytes, so its length
        # prefix is itself a multi-byte varint.
        for history in (2 ** 63, 2 ** 64 - 1, 2 ** 70, 2 ** 1000):
            batch = [_rec(history=history)]
            assert decode_push_payload(_payload(batch)) == batch

    def test_bool_fields_encode_as_ints(self):
        _encodes_like(
            _rec(context=True, history=False, addr=True, fetch_to_map=True,
                 data_ready_to_issue=False),
            _rec(context=1, history=0, addr=1, fetch_to_map=1,
                 data_ready_to_issue=0))

    @pytest.mark.parametrize("overrides", [
        {"context": -1}, {"fetch_to_map": -1},
        {"load_issue_to_completion": -300}, {"history": -(2 ** 64)},
        {"context": 1.5}, {"fetch_to_map": 2.0}, {"pc": 0.5},
        {"history": 1e20}, {"fetch_cycle": 100.0}, {"addr": 8.0},
        {"op": "ADD"}, {"op": 3}, {"op": AbortReason.NONE},
        {"abort_reason": "none"}, {"abort_reason": Opcode.ADD},
    ], ids=repr)
    def test_refused_record_fields_are_typed(self, overrides):
        record = _rec(**overrides)
        for sample in (record,
                       PairedRecord(first=_rec(), second=record,
                                    intra_pair_cycles=1,
                                    intra_pair_distance=1),
                       GroupRecord(records=(None, record),
                                   fetch_offsets=(None, 0), distances=())):
            with pytest.raises(ProtocolError):
                encode_push_payload([_rec(), sample])
            with pytest.raises(ProtocolError):
                plan_push_frames([sample])

    def test_group_with_mismatched_offsets_is_typed(self):
        group = GroupRecord(records=(_rec(), _rec(pc=0x44)),
                            fetch_offsets=(0,), distances=(1,))
        with pytest.raises(ProtocolError, match="2 records but 1 fetch"):
            encode_push_payload([group])

    @pytest.mark.parametrize("sample", [
        PairedRecord(first=_rec(), second=None, intra_pair_cycles=1.5,
                     intra_pair_distance=None),
        PairedRecord(first=_rec(), second=None, intra_pair_cycles=None,
                     intra_pair_distance="1"),
        GroupRecord(records=(_rec(),), fetch_offsets=(0.5,), distances=()),
        GroupRecord(records=(_rec(),), fetch_offsets=(0,), distances=(None,)),
        GroupRecord(records=None, fetch_offsets=(), distances=()),
    ], ids=["pair-cycles", "pair-distance", "group-offset",
            "group-distance", "group-records"])
    def test_refused_pair_and_group_framing_is_typed(self, sample):
        # The pair trailer and the group framing are checked like record
        # fields; these once escaped the encoder as a bare TypeError.
        with pytest.raises(ProtocolError):
            encode_push_payload([sample])

    def test_non_sample_is_typed(self):
        for sample in (None, "record", 7):
            with pytest.raises(ProtocolError):
                encode_push_payload([sample])


# ----------------------------------------------------------------------
# Client-side frame splitting (the 16 MiB cap, enforced at encode now).


class TestFrameSplitting:
    def _batch(self, n):
        return [_rec(pc=0x40 + 4 * i, history=i) for i in range(n)]

    @pytest.mark.parametrize("version", [WIRE_VERSION])
    def test_oversized_batch_splits_under_cap(self, version):
        cap = 4096
        batch = self._batch(600)
        plan = plan_push_frames(batch, max_bytes=cap)
        assert len(plan) > 1
        recovered = []
        for frame, top_level in plan:
            assert len(frame) - 4 <= cap  # length prefix excluded
            assert frame[4] == V2_MAGIC  # a binary data frame
            frames, _ = split_frames(frame)
            chunk = decode_push_payload(frames[0]["payload"])
            assert len(chunk) == top_level
            recovered.extend(chunk)
        assert recovered == batch
        assert sum(count for _, count in plan) == len(batch)

    def test_fitting_batch_is_encoded_once(self, monkeypatch):
        calls = []
        encode = protocol.encode_push_payload

        def counting_encode(samples):
            calls.append(len(samples))
            return encode(samples)

        monkeypatch.setattr(protocol, "encode_push_payload", counting_encode)
        plan = plan_push_frames(self._batch(256))
        assert len(plan) == 1
        assert calls == [256]

    def test_single_giant_sample_raises(self):
        sample = _rec(history=2 ** 64 - 1)
        with pytest.raises(ProtocolError):
            plan_push_frames([sample], max_bytes=8)

    def test_fitting_batch_is_one_frame(self):
        plan = plan_push_frames(self._batch(10))
        assert len(plan) == 1 and plan[0][1] == 10

    def test_encode_frame_refuses_oversize_json(self):
        with pytest.raises(ProtocolError):
            encode_frame({"kind": "push", "blob": "x" * MAX_FRAME_BYTES})


# ----------------------------------------------------------------------
# Adversarial frames: every malformation is a typed error.


def _valid_frame():
    batch = [_rec(pc=0x40 + 4 * i) for i in range(5)]
    return encode_binary_frame(FRAME_PUSH, *encode_push_payload(batch))


class TestAdversarialFrames:
    def test_torn_frame_at_every_split_point(self):
        # A torn trailing frame is salvage, not an error (the spill-file
        # contract): every prefix yields zero frames and no exception,
        # in both modes, and a full frame in front still parses.
        frame = _valid_frame()
        for cut in range(len(frame)):
            for strict in (True, False):
                frames, clean = split_frames(frame[:cut], strict=strict)
                assert frames == [] and clean == 0
                frames, clean = split_frames(frame + frame[:cut],
                                             strict=strict)
                assert len(frames) == 1 and clean == len(frame)

    def test_truncated_payload_at_every_byte_is_typed(self):
        batch = [_rec(pc=0x40 + 4 * i, addr=0x1000 * i) for i in range(4)]
        payload = _payload(batch)
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode_push_payload(payload[:cut])

    def test_corrupted_byte_never_escapes_protocolerror(self):
        frame = _valid_frame()
        body = frame[4:]
        for index in range(len(body)):
            corrupt = bytearray(body)
            corrupt[index] ^= 0xFF
            corrupt = bytes(corrupt)
            if corrupt[0] != V2_MAGIC:
                continue  # now a (broken) JSON frame, covered elsewhere
            # CRC catches payload damage; header damage is caught by the
            # type/flag/count checks or the CRC of a shifted payload.
            try:
                decoded = decode_push_payload(
                    _reframe(corrupt))
            except ProtocolError:
                continue
            # Survivors must be flips the format genuinely cannot see
            # (the sync flag bit); anything decodable must still be a
            # list of samples.
            assert isinstance(decoded, list)

    def test_crc_mismatch_is_reported_as_such(self):
        frame = bytearray(_valid_frame())
        frame[-1] ^= 0x01  # last payload byte
        with pytest.raises(ProtocolError, match="CRC"):
            split_frames(bytes(frame))

    def test_unknown_binary_frame_type(self):
        frame = encode_binary_frame(FRAME_PROBE_PUSH,
                                    encode_probe_payload({}, 0), 0)
        body = bytearray(frame[4:])
        body[1] = 77  # neither push nor probe_push
        rewrapped = struct.pack(">I", len(body)) + bytes(body)
        with pytest.raises(ProtocolError, match="frame type"):
            split_frames(rewrapped)

    def test_unknown_sample_tag(self):
        out = bytearray()
        _uv_encode(out, 1)
        out.append(9)  # no such tag
        with pytest.raises(ProtocolError, match="tag"):
            decode_push_payload(bytes(out))

    def test_unknown_opcode_and_abort_ordinals(self):
        payload = bytearray(_payload([_rec(op=None)]))
        # Layout: count, tag, length, pc, fetch, done deltas (all one
        # byte here), then op byte.  Find it by decoding the prefix.
        _, offset = _uv_decode(bytes(payload), 0)
        offset += 1  # tag
        _, offset = _uv_decode(bytes(payload), offset)  # record length
        for _ in range(3):
            _, offset = _sv_decode(bytes(payload), offset)
        payload[offset] = 255  # opcode ordinal far past the table
        with pytest.raises(ProtocolError, match="opcode"):
            decode_push_payload(bytes(payload))
        payload[offset] = 0
        payload[offset + 1] = 255
        with pytest.raises(ProtocolError, match="abort"):
            decode_push_payload(bytes(payload))

    def test_oversized_length_prefix(self):
        data = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"junk"
        with pytest.raises(ProtocolError, match="limit"):
            split_frames(data, strict=True)
        frames, clean = split_frames(data, strict=False)
        assert frames == [] and clean == 0

    def test_interleaved_v1_and_v2_frames_both_decode(self):
        # Binary data frames and JSON control frames share one stream.
        v2 = _valid_frame()
        v1 = encode_frame({"kind": "sync"})
        frames, clean = split_frames(v2 + v1 + v2)
        assert [f["kind"] for f in frames] == ["push", "sync", "push"]
        assert clean == len(v2 + v1 + v2)

    def test_garbage_prefix_is_rejected_not_crashed(self):
        junk = struct.pack(">I", 8) + b"\x00\x01\x02\x03\x04\x05\x06\x07"
        with pytest.raises(ProtocolError):
            split_frames(junk, strict=True)

    def test_trailing_garbage_after_valid_frame_salvages_prefix(self):
        frame = _valid_frame()
        data = frame + b"\xb2\x01partial"
        frames, clean = split_frames(data, strict=False)
        assert len(frames) == 1 and clean == len(frame)


def _reframe(body):
    """Extract the v2 payload from a (possibly corrupted) frame body,
    re-verifying nothing — used to aim corruption past the CRC check."""
    from repro.service.protocol import _decode_binary_body

    return _decode_binary_body(body)["payload"]


# ----------------------------------------------------------------------
# Live-server fuzzing: garbage on the socket must never take it down.


class TestServerSurvivesGarbage:
    @pytest.fixture()
    def server(self):
        from repro.service.server import ServerThread

        with ServerThread(port=0, shards=1) as thread:
            yield thread.server

    def _raw_socket(self, server):
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5.0)
        send_frame(sock, hello_frame())
        reply = recv_frame(sock)
        assert reply.get("kind") == "ok"
        return sock

    def test_corrupt_crc_then_clean_connection(self, server):
        from repro.service.client import ProfileClient

        sock = self._raw_socket(server)
        frame = bytearray(_valid_frame())
        frame[-1] ^= 0xFF
        sock.sendall(bytes(frame))
        reply = recv_frame(sock)  # the server's typed error
        assert reply.get("kind") == "error"
        assert "CRC" in reply.get("message", "")
        sock.close()
        # The server keeps serving: a fresh connection works end to end.
        with ProfileClient("%s:%d" % (server.host, server.port)) as client:
            assert client.push([_rec()])
            info = client.drain()
        assert info["dropped_batches"] == 0
        assert server.stats.protocol_errors == 1

    def test_json_data_frames_refused_then_clean_connection(self, server):
        from repro.service.client import ProfileClient

        for kind in ("push", "probe_push"):
            sock = self._raw_socket(server)
            send_frame(sock, {"kind": kind, "records": [], "readings": {}})
            reply = recv_frame(sock)
            sock.close()
            assert reply.get("kind") == "error"
            assert "must be wire v2" in reply.get("message", "")
        assert server.stats.protocol_errors == 2
        # Other connections are unaffected.
        with ProfileClient("%s:%d" % (server.host, server.port)) as client:
            assert client.push([_rec()])
            assert client.push_probes({"cpu0.core.retired": 1}, tick=1)
            client.drain()
            stats = client.query("stats")
        assert stats["total_samples"] == 1
        assert stats["stats"]["probe_pushes"] == 1

    def test_random_garbage_streams(self, server):
        import random

        rng = random.Random(0xC0FFEE)
        for _trial in range(20):
            sock = socket.create_connection((server.host, server.port),
                                            timeout=5.0)
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 200)))
            try:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)
                sock.recv(1 << 16)
            except OSError:
                pass
            finally:
                sock.close()
        # Still alive and well-behaved afterwards.
        from repro.service.client import ProfileClient

        with ProfileClient("%s:%d" % (server.host, server.port)) as client:
            assert client.push([_rec()])
            client.drain()
            assert client.query("stats")["total_samples"] == 1

    def test_valid_crc_malformed_payload_is_accounted_fold_error(
            self, server):
        sock = self._raw_socket(server)
        # One claimed sample, tag says record, then garbage the CRC
        # blesses: decodes start, fold fails, server accounts it.
        bad = bytearray()
        _uv_encode(bad, 1)
        bad.append(0)  # record tag
        _uv_encode(bad, 3)
        bad.extend(b"\xff\xff\xff")
        frame = encode_binary_frame(FRAME_PUSH, bytes(bad), 7)
        sock.sendall(frame)
        from repro.service.client import ProfileClient

        with ProfileClient("%s:%d" % (server.host, server.port)) as client:
            client.drain()
            stats = client.query("stats")["stats"]
        assert stats["fold_errors"] == 1
        assert stats["records"] == 0
        sock.close()


# ----------------------------------------------------------------------
# Fused-fold differential: the perf path must be invisible in results.


# (rollup_interval, retain_buckets, keep_addresses): flat, rolled up,
# and rolled up with one or two retained buckets, so retention evicts
# within a payload; flat and evicting shards also retain a few
# effective addresses per pc, so the cap is reached within a payload.
_FOLD_SETTINGS = ((0, 0, 0), (64, 0, 0), (64, 1, 0), (64, 2, 0),
                  (0, 0, 2), (64, 1, 3))


def _export(database):
    return canonical_json(database_to_dict(database))


def _member(out, record, state):
    """Append one record as :func:`protocol._encode_record` does;
    returns the offset of its opcode byte."""
    header = bytearray()
    _sv_encode(header, record.pc - state[0])
    _sv_encode(header, record.fetch_cycle - state[1])
    _sv_encode(header, record.done_cycle - record.fetch_cycle)
    start = len(out)
    state[:] = protocol._encode_record(out, record, *state)
    assert out[start] < 0x80  # one-byte length prefix
    return start + 1 + len(header)


def _pair_and_group_payload():
    """A payload holding a record, a pair and a 2-way group, byte by
    byte, with the spans the atomicity cases cut into."""
    pair = PairedRecord(first=_rec(pc=0x44, fetch_cycle=110),
                        second=_rec(pc=0x48, fetch_cycle=130),
                        intra_pair_cycles=10_000, intra_pair_distance=300)
    group = GroupRecord(records=(_rec(pc=0x4C, fetch_cycle=150),
                                 _rec(pc=0x50, fetch_cycle=190)),
                        fetch_offsets=(0, 5000), distances=(4000, 4000))
    samples = [_rec(pc=0x40), pair, group]
    out = bytearray()
    spans = {}
    state = [0, 0]
    _uv_encode(out, len(samples))
    out.append(0)
    _member(out, samples[0], state)
    out.append(1)
    _member(out, pair.first, state)
    out.append(1)
    start = len(out)
    spans["second_op"] = _member(out, pair.second, state)
    spans["pair_second"] = (start, len(out))
    out.append(0x03)
    start = len(out)
    _sv_encode(out, pair.intra_pair_cycles)
    _sv_encode(out, pair.intra_pair_distance)
    spans["pair_svarints"] = (start, len(out))
    out.append(2)
    _uv_encode(out, 2)
    for record in group.records:
        out.append(1)
        _member(out, record, state)
    start = len(out)
    for value in group.fetch_offsets:
        out.append(1)
        _sv_encode(out, value)
    spans["group_offsets"] = (start, len(out))
    _uv_encode(out, len(group.distances))
    start = len(out)
    for value in group.distances:
        _sv_encode(out, value)
    spans["group_distances"] = (start, len(out))
    assert bytes(out) == _payload(samples)
    return bytes(out), spans


class TestFoldDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_fold_batches, max_size=6))
    def test_fused_fold_matches_record_by_record(self, payload_batches):
        from repro.analysis.database import ProfileDatabase

        payloads = [_payload(batch) for batch in payload_batches]
        for interval, retain, keep in _FOLD_SETTINGS:
            folder = ShardFolder(rollup_interval=interval,
                                 retain_buckets=retain, keep_addresses=keep)
            reference = ProfileDatabase(rollup_interval=interval,
                                        retain_buckets=retain,
                                        keep_addresses=keep)
            database = folder.database
            for batch, payload in zip(payload_batches, payloads):
                assert folder.fold_payload(payload) == _members(batch)
                for sample in batch:
                    reference.add(sample)
                # Committed when the fold returns: nothing is pending.
                assert (database.total_samples, database.evicted_samples) \
                    == (reference.total_samples, reference.evicted_samples)
            assert _export(database) == _export(reference)

    def test_straggler_under_retention_matches_record_by_record(self):
        # One pc at ticks 50, 150, 50 with one retained bucket: tick 150
        # evicts bucket 0, so the second tick-50 sample is a straggler
        # older than the retained horizon, clamped into bucket 100.
        from repro.analysis.database import ProfileDatabase

        batch = [_rec(fetch_cycle=tick, done_cycle=tick + 10)
                 for tick in (50, 150, 50)]
        reference = ProfileDatabase(rollup_interval=100, retain_buckets=1)
        for record in batch:
            reference.add(record)
        assert (reference.total_samples, reference.evicted_samples) == (2, 1)
        for payloads in ([batch], [[record] for record in batch]):
            folder = ShardFolder(rollup_interval=100, retain_buckets=1)
            for samples in payloads:
                folder.fold_payload(_payload(samples))
            database = folder.snapshot_database()
            assert (database.total_samples, database.evicted_samples) == \
                (2, 1)
            assert _export(database) == _export(reference)

    def test_corrupt_payload_leaves_folder_untouched(self):
        folder = ShardFolder()
        good = [_rec(pc=0x40)]
        folder.fold_payload(_payload(good))
        before = canonical_json(
            database_to_dict(folder.snapshot_database()))
        bad = bytearray(_payload(
            [_rec(pc=0x44), _rec(pc=0x48, op=None)]))
        truncated = bytes(bad[:len(bad) - 2])
        with pytest.raises(ProtocolError):
            folder.fold_payload(truncated)
        after = canonical_json(
            database_to_dict(folder.snapshot_database()))
        assert after == before

    @pytest.mark.parametrize("span", ("pair_second", "pair_svarints",
                                      "group_offsets", "group_distances"))
    def test_truncated_pair_or_group_leaves_folder_untouched(self, span):
        payload, spans = _pair_and_group_payload()
        folder = ShardFolder(rollup_interval=64, retain_buckets=2)
        assert folder.fold_payload(payload) == 5
        before = _export(folder.database)
        start, end = spans[span]
        for cut in range(start, end):
            with pytest.raises(ProtocolError):
                decode_push_payload(payload[:cut])
            with pytest.raises(ProtocolError):
                folder.fold_payload(payload[:cut])
            assert _export(folder.database) == before
        assert folder.payloads_folded == 1

    def test_unknown_opcode_in_pair_second_leaves_folder_untouched(self):
        payload, spans = _pair_and_group_payload()
        folder = ShardFolder()
        folder.fold_payload(payload)
        before = _export(folder.database)
        corrupt = bytearray(payload)
        corrupt[spans["second_op"]] = 0xFF
        for fold in (decode_push_payload, folder.fold_payload):
            with pytest.raises(ProtocolError, match="opcode"):
                fold(bytes(corrupt))
        assert _export(folder.database) == before

    def test_retains_first_addresses_in_arrival_order(self):
        batch = [_rec(pc=0x40, addr=0x1000 + i) for i in range(5)]
        folder = ShardFolder(keep_addresses=3)
        folder.fold_payload(_payload(batch))
        database = folder.snapshot_database()
        assert database.total_samples == 5
        assert database.per_pc[0x40].addresses == [
            (0x1000 + i, False, False) for i in range(3)]

"""Wire protocol for the continuous-profiling service.

DCPI's daemon receives interrupt-delivered sample batches from every CPU
and folds them into a shared profile database; this module is the wire
format that plays the same role between :class:`~repro.service.client.
ProfileClient` producers and the :class:`~repro.service.server.
ProfileServer`.

**Framing.**  A frame is a 4-byte big-endian length prefix followed by
that many bytes of body.  Two body kinds share the framing and are
distinguished by the first body byte:

* :data:`V2_MAGIC` (0xB2) — a **data frame**: a struct-packed binary
  ``push`` or ``probe_push`` (see below), the only encoding of sample
  and probe data.
* ``{`` (0x7B) — a **control frame**: one UTF-8 JSON object (hello,
  sync, query, report, push_db and the ok/error replies).  A JSON
  ``push`` or ``probe_push`` (the retired v1 data encoding) is refused
  with a typed :class:`ProtocolError` naming wire v2.

0xB2 cannot open UTF-8 JSON, so the two kinds interleave on one
connection (and in one spill file) without ambiguity.

Frames above ``MAX_FRAME_BYTES`` are refused on *both* sides: a garbage
length prefix must not make a peer allocate gigabytes, and
:func:`plan_push_frames` splits oversized batches client-side so a
producer never emits a frame the server would refuse.  The same framing
is used in both directions and in the client's spill file, so a spill
replay is nothing more than re-sending stored frames.

**Versioning.**  Every conversation opens with a JSON ``hello`` frame
carrying :data:`WIRE_VERSION`; the server answers ok with the same
version, or a typed error for any other version.

**Binary frame layout.**  After the 4-byte length prefix::

    offset  size  field
    0       1     V2_MAGIC (0xB2)
    1       1     frame type (1 = push, 2 = probe_push)
    2       1     flags (bit 0: sync — request a per-frame ack)
    3       4     CRC-32 of the payload (zlib.crc32, big-endian)
    7       4     record count (big-endian; drop accounting without
                  decoding the payload)
    11      -     payload

The CRC is verified before any payload byte is interpreted, so a
corrupted frame is one typed :class:`ProtocolError` (and one accounted
drop), never a crash or a silently wrong fold.

**Payload encoding (push).**  ``uvarint count`` followed by *count*
samples.  Varints are LEB128 (7 data bits per byte, little-endian
groups, high bit = continuation); signed values use zigzag
(``n >= 0 -> 2n``, ``n < 0 -> -2n - 1``) so small deltas of either sign
stay short and arbitrary-precision Python ints (64-bit wrap-around
deltas included) survive exactly.  Each sample opens with a tag byte
(0 = single record, 1 = paired record, 2 = group record).  A single
record is::

    uvarint  length of the remainder of this record
    svarint  pc delta from the previous record in the batch (batch
             state starts at 0; members of pairs/groups participate in
             the same chain, in encode order)
    svarint  fetch_cycle delta from the previous record's fetch_cycle
    svarint  done_cycle delta from this record's own fetch_cycle
    -- signature (everything the profile database folds) --
    byte     opcode (0 = none/off-path, else Opcode index + 1)
    byte     abort reason (AbortReason index)
    byte     presence (bit 0: addr, bits 1..6: the six Table 1
             latency registers in LATENCY_FIELDS order)
    uvarint  events bit-field
    uvarint  context
    uvarint  history
    svarint  addr                  (only if present)
    uvarint  each present latency  (LATENCY_FIELDS order)

The length prefix lets a decoder skip a record in O(1), and the
signature — the suffix that excludes the per-sample timestamps — is a
stable byte string for "same static instruction, same event/latency
outcome".  The server's shard fold reads only each record's header and
counts every record — single, pair member or group member — by
``(rollup bucket, pc, signature)`` instead of decoding it to an object
and aggregating it field by field (see :mod:`repro.service.fold`).

A paired record is ``first record, byte second-present, [second
record], byte presence (bit 0: intra_pair_cycles, bit 1:
intra_pair_distance), [svarint cycles], [svarint distance]``.  A group
record is ``uvarint n, n * (byte present + [record]), n * (byte present
+ [svarint fetch_offset]), uvarint d, d * svarint distance``.

**Encoding** is one straight-line pass per record (:func:`_encode_record`
reads fields directly and writes varints of up to three bytes inline).
:func:`encode_push_payload` dispatches each sample once on its type and
also returns the member count it walked: the frame's record count.

**Payload encoding (probe_push)**: ``svarint tick, uvarint count``,
then per reading ``uvarint name-length, name UTF-8, value`` where a
value is one tag byte — 0 none, 1 int (svarint), 2 float (8-byte
big-endian double), 3 str (uvarint length + UTF-8), 4 true, 5 false.

**Messages** (``kind`` field; binary data frames decode to a dict
with the undecoded payload under ``payload``):

========== ============ ==============================================
kind        direction    meaning
========== ============ ==============================================
hello       c -> s       version handshake; server replies ok/error
push        c -> s       one batch of sample records (fire-and-forget
                         unless ``sync`` is set, then the server acks
                         with its drop accounting)
push_db     c -> s       a whole ``repro-profile`` document to merge
                         (how cached sweep results and multiprogrammed
                         sessions enter the service)
probe_push  c -> s       one probe-registry reading set (name -> value
                         at a cycle tick), folded into per-shard
                         ``ProbeSeries`` aggregates

sync        c -> s       barrier: ack only after every batch already
                         accepted on this connection has been folded
report      c -> s       producer-side loss counters (fire-and-forget),
                         e.g. batches a spill replay had to discard;
                         folded into the server's stats
query       c -> s       read command (top/latency/stats/convergence/
                         export); server replies ok with the data
ok / error  s -> c       responses
========== ============ ==============================================

Record serialization round-trips :class:`ProfileRecord`,
:class:`PairedRecord`, and :class:`GroupRecord` exactly — every field,
including ``None`` latencies and off-path records with no opcode — so a
database folded server-side from wire records is field-for-field
identical to one folded in-process from the original objects.
"""

import json
import struct
import zlib

from repro.errors import ProtocolError
from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode
from repro.profileme.registers import (GroupRecord, LATENCY_FIELDS,
                                       PairedRecord, ProfileRecord)

WIRE_VERSION = 2  # binary push/probe_push data frames, JSON control
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")

# v2 binary frame envelope (after the length prefix).
V2_MAGIC = 0xB2
FRAME_PUSH = 1
FRAME_PROBE_PUSH = 2
FLAG_SYNC = 0x01
_V2_HEADER = struct.Struct(">BBBII")  # magic, type, flags, crc32, count

# Wire ordinals for the two enums (definition order is the v2 format).
# The encoder looks ordinals up by id(): a dict keyed by the members
# would hash them through the Python-level Enum.__hash__.
_OPCODES = tuple(Opcode)
_OPCODE_WIRE = {id(op): i + 1 for i, op in enumerate(_OPCODES)}
_OPCODE_WIRE[id(None)] = 0  # off-path: no opcode
_ABORTS = tuple(AbortReason)
_ABORT_WIRE = {id(reason): i for i, reason in enumerate(_ABORTS)}

_TAG_RECORD = 0
_TAG_PAIR = 1
_TAG_GROUP = 2

_VAL_NONE = 0
_VAL_INT = 1
_VAL_FLOAT = 2
_VAL_STR = 3
_VAL_TRUE = 4
_VAL_FALSE = 5

_F64 = struct.Struct(">d")


# ----------------------------------------------------------------------
# Varints: LEB128 unsigned, zigzag signed.  Python ints are unbounded,
# so 64-bit wrap-around deltas (pc 2**64-1 -> 0) are just large varints.


def _uv_encode(out, value):
    """Append *value* (non-negative int) to bytearray *out* as LEB128."""
    if value < 0:
        raise ProtocolError("unsigned wire field cannot be negative: %r"
                            % (value,))
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _sv_encode(out, value):
    """Append *value* (any int) as a zigzag LEB128 varint."""
    _uv_encode(out, value * 2 if value >= 0 else -value * 2 - 1)


def _uv_decode(data, offset):
    """Read one LEB128 varint; returns (value, next offset)."""
    try:
        byte = data[offset]
    except IndexError:
        raise ProtocolError("truncated varint (frame ends mid-value)") \
            from None
    offset += 1
    if byte < 0x80:
        return byte, offset
    result = byte & 0x7F
    shift = 7
    while True:
        try:
            byte = data[offset]
        except IndexError:
            raise ProtocolError("truncated varint (frame ends mid-value)") \
                from None
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7


def _sv_decode(data, offset):
    value, offset = _uv_decode(data, offset)
    return (value >> 1) ^ -(value & 1), offset


# ----------------------------------------------------------------------
# Record <-> wire (struct-packed, delta/varint).


def _encode_record(out, record, prev_pc, prev_fetch):
    """Append one record after the batch's previous pc and fetch cycle;
    returns its ``(pc, fetch_cycle)``.  Varints of up to three bytes are
    written inline, longer ones by :func:`_uv_encode` (which refuses
    negatives); the length prefix is patched in at the end."""
    append = out.append
    start = len(out)
    append(0)  # length prefix
    pc = record.pc
    fetch = record.fetch_cycle
    for value in (pc - prev_pc, fetch - prev_fetch, record.done_cycle - fetch):
        value = value << 1 if value >= 0 else ~value << 1 | 1
        if value < 0x80:
            append(value)
        elif value < 0x4000:
            append(value & 0x7F | 0x80)
            append(value >> 7)
        else:
            _uv_encode(out, value)
    append(_OPCODE_WIRE[id(record.op)])
    append(_ABORT_WIRE[id(record.abort_reason)])
    addr = record.addr
    lat0, lat1, lat2, lat3, lat4, lat5 = (
        record.fetch_to_map, record.map_to_data_ready,
        record.data_ready_to_issue, record.issue_to_retire_ready,
        record.retire_ready_to_retire, record.load_issue_to_completion)
    append((addr is not None) | (lat0 is not None) << 1
           | (lat1 is not None) << 2 | (lat2 is not None) << 3
           | (lat3 is not None) << 4 | (lat4 is not None) << 5
           | (lat5 is not None) << 6)
    # events, context, history (three bytes in most real records).
    for value in (int(record.events), record.context, record.history):
        if 0 <= value < 0x80:
            append(value)
        elif 0 <= value < 0x200000:
            append(value & 0x7F | 0x80)
            if value < 0x4000:
                append(value >> 7)
            else:
                append(value >> 7 & 0x7F | 0x80)
                append(value >> 14)
        else:
            _uv_encode(out, value)
    if addr is not None:
        _uv_encode(out, addr << 1 if addr >= 0 else ~addr << 1 | 1)
    for value in (lat0, lat1, lat2, lat3, lat4, lat5):
        if value is not None:
            if 0 <= value < 0x80:
                append(value)
            else:
                _uv_encode(out, value)
    length = len(out) - start - 1
    if length < 0x80:
        out[start] = length
    else:
        prefix = bytearray()
        _uv_encode(prefix, length)
        out[start:start + 1] = prefix
    return pc, fetch


def _decode_single_v2(data, offset, state):
    """Decode one record encoded by :func:`_encode_record` (truncation
    surfaces as IndexError, which :func:`decode_push_payload` types)."""
    length, offset = _uv_decode(data, offset)
    end = offset + length
    if end > len(data):
        raise ProtocolError("truncated record (claims %d bytes past the "
                            "frame end)" % (end - len(data),))
    delta, offset = _sv_decode(data, offset)
    pc = state[0] = state[0] + delta
    delta, offset = _sv_decode(data, offset)
    fetch = state[1] = state[1] + delta
    delta, offset = _sv_decode(data, offset)
    done = fetch + delta
    op_byte = data[offset]
    abort_byte = data[offset + 1]
    presence = data[offset + 2]
    offset += 3
    if op_byte > len(_OPCODES):
        raise ProtocolError("unknown opcode ordinal %d" % (op_byte,))
    if abort_byte >= len(_ABORTS):
        raise ProtocolError("unknown abort-reason ordinal %d" % (abort_byte,))
    events, offset = _uv_decode(data, offset)
    context, offset = _uv_decode(data, offset)
    history, offset = _uv_decode(data, offset)
    addr = None
    if presence & 0x01:
        addr, offset = _sv_decode(data, offset)
    latencies = dict.fromkeys(LATENCY_FIELDS)
    for bit, name in enumerate(LATENCY_FIELDS):
        if presence & (1 << (bit + 1)):
            latencies[name], offset = _uv_decode(data, offset)
    if offset != end:
        raise ProtocolError("record length mismatch: %d bytes left over"
                            % (end - offset,))
    return ProfileRecord(
        context=context, pc=pc,
        op=None if op_byte == 0 else _OPCODES[op_byte - 1], addr=addr,
        events=Event(events), abort_reason=_ABORTS[abort_byte],
        history=history, fetch_cycle=fetch, done_cycle=done,
        **latencies), end


def _decode_sample_v2(data, offset, state):
    tag = data[offset]
    offset += 1
    if tag == _TAG_RECORD:
        return _decode_single_v2(data, offset, state)
    if tag == _TAG_PAIR:
        first, offset = _decode_single_v2(data, offset, state)
        second = None
        if data[offset]:
            second, offset = _decode_single_v2(data, offset + 1, state)
        else:
            offset += 1
        presence = data[offset]
        offset += 1
        cycles = distance = None
        if presence & 0x01:
            cycles, offset = _sv_decode(data, offset)
        if presence & 0x02:
            distance, offset = _sv_decode(data, offset)
        return PairedRecord(first=first, second=second,
                            intra_pair_cycles=cycles,
                            intra_pair_distance=distance), offset
    if tag == _TAG_GROUP:
        count, offset = _uv_decode(data, offset)
        records = []
        for _ in range(count):
            record = None
            if data[offset]:
                record, offset = _decode_single_v2(data, offset + 1, state)
            else:
                offset += 1
            records.append(record)
        offsets = []
        for _ in range(count):
            value = None
            if data[offset]:
                value, offset = _sv_decode(data, offset + 1)
            else:
                offset += 1
            offsets.append(value)
        dcount, offset = _uv_decode(data, offset)
        distances = []
        for _ in range(dcount):
            value, offset = _sv_decode(data, offset)
            distances.append(value)
        return GroupRecord(records=tuple(records),
                           fetch_offsets=tuple(offsets),
                           distances=tuple(distances)), offset
    raise ProtocolError("unknown sample tag %d" % (tag,))


def encode_push_payload(samples):
    """Encode a sequence of samples to ``(v2 payload bytes, members)``,
    *members* counting every record, pair and group members included.
    Each sample is dispatched once on its type; every record goes
    through :func:`_encode_record`."""
    out = bytearray()
    _uv_encode(out, len(samples))
    encode = _encode_record
    pc = fetch = members = 0
    try:
        for sample in samples:
            if isinstance(sample, PairedRecord):
                out.append(_TAG_PAIR)
                pc, fetch = encode(out, sample.first, pc, fetch)
                second = sample.second
                out.append(second is not None)
                if second is not None:
                    pc, fetch = encode(out, second, pc, fetch)
                    members += 1
                members += 1
                cycles = sample.intra_pair_cycles
                distance = sample.intra_pair_distance
                out.append((cycles is not None) | (distance is not None) << 1)
                if cycles is not None:
                    _sv_encode(out, cycles)
                if distance is not None:
                    _sv_encode(out, distance)
            elif isinstance(sample, GroupRecord):
                records = sample.records
                if len(sample.fetch_offsets) != len(records):
                    raise ProtocolError(
                        "group has %d records but %d fetch offsets"
                        % (len(records), len(sample.fetch_offsets)))
                out.append(_TAG_GROUP)
                _uv_encode(out, len(records))
                for record in records:
                    out.append(record is not None)
                    if record is not None:
                        pc, fetch = encode(out, record, pc, fetch)
                        members += 1
                for value in sample.fetch_offsets:
                    out.append(value is not None)
                    if value is not None:
                        _sv_encode(out, value)
                _uv_encode(out, len(sample.distances))
                for value in sample.distances:
                    _sv_encode(out, value)
            else:
                out.append(_TAG_RECORD)
                pc, fetch = encode(out, sample, pc, fetch)
                members += 1
    except (TypeError, KeyError, AttributeError) as exc:
        raise ProtocolError("sample not encodable as wire v2: %s"
                            % (exc,)) from exc
    return bytes(out), members


def decode_push_payload(payload):
    """Decode a v2 push payload back into sample objects."""
    count, offset = _uv_decode(payload, 0)
    state = [0, 0]
    samples = []
    try:
        for _ in range(count):
            sample, offset = _decode_sample_v2(payload, offset, state)
            samples.append(sample)
    except IndexError:
        raise ProtocolError("truncated batch (frame ends inside a "
                            "sample)") from None
    if offset != len(payload):
        raise ProtocolError("push payload has %d trailing bytes"
                            % (len(payload) - offset,))
    return samples


# ----------------------------------------------------------------------
# Header scan: what the shard fold reads instead of decoding samples.


def decode_signature(signature):
    """Validate + decode one signature span to fold-ready form.

    Returns ``(events bit-field, ((latency column, value), ...))``, the
    form :meth:`~repro.analysis.database.ProfileDatabase.fold_signatures`
    resolves signatures to (context, history and addr are checked and
    skipped: the profile database does not aggregate them).
    Raises :class:`ProtocolError` on any malformation — unknown
    ordinals, truncation, or trailing bytes.
    """
    if len(signature) < 3:
        raise ProtocolError("truncated record header")
    if signature[0] > len(_OPCODES):
        raise ProtocolError("unknown opcode ordinal %d" % (signature[0],))
    if signature[1] >= len(_ABORTS):
        raise ProtocolError("unknown abort-reason ordinal %d"
                            % (signature[1],))
    presence = signature[2]
    events, offset = _uv_decode(signature, 3)
    _, offset = _uv_decode(signature, offset)  # context
    _, offset = _uv_decode(signature, offset)  # history
    if presence & 0x01:
        _, offset = _sv_decode(signature, offset)  # addr
    latencies = []
    for column in range(len(LATENCY_FIELDS)):
        if presence & (1 << (column + 1)):
            value, offset = _uv_decode(signature, offset)
            latencies.append((column, value))
    if offset != len(signature):
        raise ProtocolError("record length mismatch: %d bytes left over"
                            % (len(signature) - offset,))
    return events, tuple(latencies)


def _scan_member(data, offset, state, limit):
    """Read one record's header; returns ``(pc, tick, signature, end)``.

    *state* is the batch's ``[pc, fetch_cycle]`` delta chain, advanced
    in place; *limit* is the payload length.  The header varints are
    inlined for their single-byte case (steady-state streams delta-code
    to one byte); multi-byte values take the full decoder.  A header
    that overruns the record leaves an empty signature, which
    :func:`decode_signature` refuses.
    """
    try:
        byte = data[offset]
        if byte < 0x80:
            offset += 1
            end = offset + byte
        else:
            length, offset = _uv_decode(data, offset)
            end = offset + length
        if end > limit:
            raise ProtocolError("truncated record (claims %d bytes past the "
                                "frame end)" % (end - limit,))
        byte = data[offset]
        if byte < 0x80:
            pc = state[0] + ((byte >> 1) ^ -(byte & 1))
            offset += 1
        else:
            delta, offset = _sv_decode(data, offset)
            pc = state[0] + delta
        byte = data[offset]
        if byte < 0x80:
            tick = state[1] + ((byte >> 1) ^ -(byte & 1))
            offset += 1
        else:
            delta, offset = _sv_decode(data, offset)
            tick = state[1] + delta
        if data[offset] < 0x80:  # done-cycle delta, unused
            offset += 1
        else:
            _, offset = _sv_decode(data, offset)
    except IndexError:
        raise ProtocolError("truncated varint (frame ends mid-value)") \
            from None
    state[0] = pc
    state[1] = tick
    return pc, tick, data[offset:end], end


def scan_push_payload(payload):
    """Every record of a push payload, in wire order, as
    ``(pc, tick, signature, end)`` — pair and group members included.

    Parses and validates the sample framing (tags, the pair trailer,
    the group's present bytes, fetch offsets and distances) without
    building sample objects; signatures are validated by the caller.
    """
    scan = _scan_member
    members = []
    append = members.append
    count, offset = _uv_decode(payload, 0)
    state = [0, 0]
    limit = len(payload)
    try:
        for _ in range(count):
            tag = payload[offset]
            if tag == _TAG_RECORD:
                member = scan(payload, offset + 1, state, limit)
                append(member)
                offset = member[3]
            elif tag == _TAG_PAIR:
                member = scan(payload, offset + 1, state, limit)
                append(member)
                offset = member[3]
                if payload[offset]:  # second member present
                    member = scan(payload, offset + 1, state, limit)
                    append(member)
                    offset = member[3]
                else:
                    offset += 1
                presence = payload[offset]
                offset += 1
                for present in (presence & 0x01, presence & 0x02):
                    if present:  # cycles, distance: step over the varint
                        while payload[offset] > 0x7F:
                            offset += 1
                        offset += 1
            elif tag == _TAG_GROUP:
                size, offset = _uv_decode(payload, offset + 1)
                for _ in range(size):
                    present = payload[offset]
                    offset += 1
                    if present:
                        member = scan(payload, offset, state, limit)
                        append(member)
                        offset = member[3]
                for _ in range(size):  # fetch offsets
                    if payload[offset]:
                        offset += 1
                        while payload[offset] > 0x7F:
                            offset += 1
                    offset += 1
                distances, offset = _uv_decode(payload, offset)
                for _ in range(distances):
                    while payload[offset] > 0x7F:
                        offset += 1
                    offset += 1
            else:
                raise ProtocolError("unknown sample tag %d" % (tag,))
    except IndexError:
        raise ProtocolError("truncated batch (frame ends inside a "
                            "sample)") from None
    if offset != limit:
        raise ProtocolError("push payload has %d trailing bytes"
                            % (limit - offset,))
    return members


def encode_probe_payload(readings, tick):
    """Encode one probe-registry reading set to v2 payload bytes."""
    out = bytearray()
    _sv_encode(out, int(tick))
    _uv_encode(out, len(readings))
    for name, value in readings.items():
        encoded = str(name).encode("utf-8")
        _uv_encode(out, len(encoded))
        out += encoded
        if value is None:
            out.append(_VAL_NONE)
        elif value is True:
            out.append(_VAL_TRUE)
        elif value is False:
            out.append(_VAL_FALSE)
        elif isinstance(value, int):
            out.append(_VAL_INT)
            _sv_encode(out, value)
        elif isinstance(value, float):
            out.append(_VAL_FLOAT)
            out += _F64.pack(value)
        elif isinstance(value, str):
            encoded = value.encode("utf-8")
            out.append(_VAL_STR)
            _uv_encode(out, len(encoded))
            out += encoded
        else:
            raise ProtocolError("probe value %r is not wire-encodable"
                                % (value,))
    return bytes(out)


def decode_probe_payload(payload):
    """Decode v2 probe payload bytes; returns (readings dict, tick)."""
    tick, offset = _sv_decode(payload, 0)
    count, offset = _uv_decode(payload, offset)
    readings = {}
    for _ in range(count):
        length, offset = _uv_decode(payload, offset)
        end = offset + length
        if end > len(payload):
            raise ProtocolError("truncated probe name")
        try:
            name = bytes(payload[offset:end]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("probe name is not UTF-8: %s"
                                % (exc,)) from exc
        offset = end
        try:
            tag = payload[offset]
        except IndexError:
            raise ProtocolError("truncated probe value") from None
        offset += 1
        if tag == _VAL_NONE:
            value = None
        elif tag == _VAL_TRUE:
            value = True
        elif tag == _VAL_FALSE:
            value = False
        elif tag == _VAL_INT:
            value, offset = _sv_decode(payload, offset)
        elif tag == _VAL_FLOAT:
            if offset + 8 > len(payload):
                raise ProtocolError("truncated probe float")
            (value,) = _F64.unpack_from(payload, offset)
            offset += 8
        elif tag == _VAL_STR:
            length, offset = _uv_decode(payload, offset)
            end = offset + length
            if end > len(payload):
                raise ProtocolError("truncated probe string")
            try:
                value = bytes(payload[offset:end]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError("probe string is not UTF-8: %s"
                                    % (exc,)) from exc
            offset = end
        else:
            raise ProtocolError("unknown probe value tag %d" % (tag,))
        readings[name] = value
    if offset != len(payload):
        raise ProtocolError("probe payload has %d trailing bytes"
                            % (len(payload) - offset,))
    return readings, tick


# ----------------------------------------------------------------------
# Framing.


def encode_frame(obj):
    """Serialize one JSON message to its length-prefixed wire bytes."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte limit"
                            % (len(body), MAX_FRAME_BYTES))
    return _HEADER.pack(len(body)) + body


def encode_binary_frame(frame_type, payload, count, sync=False):
    """Wrap v2 *payload* bytes in the binary envelope + length prefix."""
    body_len = _V2_HEADER.size + len(payload)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte limit"
                            % (body_len, MAX_FRAME_BYTES))
    header = _V2_HEADER.pack(V2_MAGIC, frame_type,
                             FLAG_SYNC if sync else 0,
                             zlib.crc32(payload) & 0xFFFFFFFF, count)
    return _HEADER.pack(body_len) + header + payload


def plan_push_frames(samples, sync=False, max_bytes=MAX_FRAME_BYTES):
    """Encode a sequence of samples as ``(frame bytes, top-level sample
    count)`` pairs.

    The batch is encoded once; only when that frame would exceed
    *max_bytes* is it halved and each half planned recursively, so the
    server never receives a frame it would refuse.  The per-frame counts
    let the sender keep its delivery accounting exact when a split frame
    spills or is lost.  A single sample too large for a frame raises —
    there is no smaller unit to split into.
    """
    payload, members = encode_push_payload(samples)
    if _V2_HEADER.size + len(payload) <= max_bytes:
        return [(encode_binary_frame(FRAME_PUSH, payload, members, sync=sync),
                 len(samples))]
    if len(samples) <= 1:
        raise ProtocolError("a single sample exceeds the %d-byte frame "
                            "limit; it cannot be split" % (max_bytes,))
    middle = len(samples) // 2
    return (plan_push_frames(samples[:middle], sync=sync,
                             max_bytes=max_bytes)
            + plan_push_frames(samples[middle:], sync=sync,
                               max_bytes=max_bytes))


def encode_probe_frame(readings, tick, sync=False):
    """One binary probe_push frame."""
    return encode_binary_frame(FRAME_PROBE_PUSH,
                               encode_probe_payload(readings, tick),
                               len(readings), sync=sync)


def _decode_binary_body(body):
    if len(body) < _V2_HEADER.size:
        raise ProtocolError("binary frame of %d bytes is shorter than its "
                            "%d-byte header" % (len(body), _V2_HEADER.size))
    magic, frame_type, flags, crc, count = _V2_HEADER.unpack_from(body)
    payload = body[_V2_HEADER.size:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ProtocolError("binary frame CRC mismatch (corrupt payload)")
    if frame_type == FRAME_PUSH:
        kind = "push"
    elif frame_type == FRAME_PROBE_PUSH:
        kind = "probe_push"
    else:
        raise ProtocolError("unknown binary frame type %d" % (frame_type,))
    return {"kind": kind, "count": count, "payload": payload,
            "sync": bool(flags & FLAG_SYNC)}


def _decode_body(body):
    if body and body[0] == V2_MAGIC:
        return _decode_binary_body(body)
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("frame body is not JSON: %s" % (exc,)) from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame body must be a JSON object, got %s"
                            % (type(obj).__name__,))
    if obj.get("kind") in ("push", "probe_push"):
        raise ProtocolError("JSON %s frame refused: data frames must be "
                            "wire v%d binary" % (obj["kind"], WIRE_VERSION))
    return obj


def split_frames(data, strict=True):
    """Parse a byte buffer into (decoded frames, clean prefix length).

    Used to replay a spill file: trailing bytes past the last complete
    frame (an append interrupted mid-write) are reported, not raised, so
    a crashed producer's spill loses at most its final partial frame.

    With ``strict=False``, corruption (an oversized length prefix or an
    undecodable body — e.g. frames appended *after* a torn one, so the
    stream framing is lost) also stops the parse instead of raising:
    the caller gets every frame before the damage plus the clean prefix
    length, and can see from ``clean_length < len(data)`` that bytes
    were unsalvageable.
    """
    frames = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        (length,) = _HEADER.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            if strict:
                raise ProtocolError(
                    "frame of %d bytes exceeds the %d-byte limit"
                    % (length, MAX_FRAME_BYTES))
            break
        end = offset + _HEADER.size + length
        if end > len(data):
            break
        try:
            frames.append(_decode_body(data[offset + _HEADER.size:end]))
        except ProtocolError:
            if strict:
                raise
            break
        offset = end
    return frames, offset


async def read_frame(reader, max_bytes=MAX_FRAME_BYTES):
    """Read one frame from an asyncio stream; None on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte limit"
                            % (length, max_bytes))
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _decode_body(body)


async def write_frame(writer, obj):
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(obj))
    await writer.drain()


def send_frame(sock, obj):
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(obj))


def recv_frame(sock, max_bytes=MAX_FRAME_BYTES):
    """Read one frame from a blocking socket; None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte limit"
                            % (length, max_bytes))
    return _decode_body(_recv_exact(sock, length))


def _recv_exact(sock, count, allow_eof=False):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            if allow_eof and not data:
                return None
            raise ProtocolError("connection closed mid-frame")
        data += chunk
    return data


# ----------------------------------------------------------------------
# Message constructors / helpers.


def hello_frame():
    return {"kind": "hello", "version": WIRE_VERSION}


def push_db_frame(document):
    """A whole ``repro-profile`` document for the server to merge."""
    return {"kind": "push_db", "database": document}


def sync_frame():
    return {"kind": "sync"}


def report_frame(**counters):
    """Producer-side loss counters, e.g. ``replay_dropped=1``."""
    return {"kind": "report", "counters": counters}


def query_frame(command, **params):
    return {"kind": "query", "command": command, "params": params}


def epoch_range_params(since=None, until=None, limit=None):
    """Validate + normalize the ``epochs`` query's parameter set.

    *since*/*until* bound the bucket tick range ``[since, until)``;
    *limit* keeps only the newest N buckets.  Raises
    :class:`ProtocolError` on non-integer values, an empty range
    (``since >= until``), or ``limit < 1`` — client-side, so malformed
    queries never reach the server.
    """
    params = {}
    try:
        if since is not None:
            params["since"] = int(since)
        if until is not None:
            params["until"] = int(until)
        if limit is not None:
            params["limit"] = int(limit)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("epoch range parameters must be integers: %s"
                            % (exc,)) from None
    if "since" in params and "until" in params \
            and params["since"] >= params["until"]:
        raise ProtocolError("empty epoch range: since %d >= until %d"
                            % (params["since"], params["until"]))
    if "limit" in params and params["limit"] < 1:
        raise ProtocolError("limit must be >= 1, got %d" % params["limit"])
    return params


def ok_frame(**data):
    frame = {"kind": "ok"}
    frame.update(data)
    return frame


def error_frame(message):
    return {"kind": "error", "message": message}


def check_ok(frame, context):
    """Raise :class:`ProtocolError` unless *frame* is an ok response."""
    if frame is None:
        raise ProtocolError("%s: connection closed before a reply" % context)
    if frame.get("kind") == "error":
        raise ProtocolError("%s: server said: %s"
                            % (context, frame.get("message")))
    if frame.get("kind") != "ok":
        raise ProtocolError("%s: unexpected reply kind %r"
                            % (context, frame.get("kind")))
    return frame


def parse_address(address):
    """Parse ``host:port`` (or a ``(host, port)`` pair) to (host, port)."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    text = str(address)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ProtocolError("address must be host:port, got %r" % (text,))
    try:
        return host, int(port)
    except ValueError:
        raise ProtocolError("bad port in address %r" % (text,)) from None

"""Shard folding: wire payloads -> :class:`ProfileDatabase` aggregates.

One :class:`ShardFolder` owns one shard's database.  Each shard worker
process of :mod:`repro.service.workers` runs one; the in-process
reference fold (``ProfileDatabase.add`` record by record) is what its
results are checked against.

**The fast path.**  A v2 push payload keeps each record's *signature*
(opcode, abort reason, events, context, history, addr, latencies — see
:mod:`repro.service.protocol`) as a contiguous byte span after the
delta-coded pc/timestamps.  The database aggregates per ``(pc, events,
latencies)``, and real sample streams repeat a small set of signatures
per pc (the same static instruction keeps taking the same cache misses
and latencies), so instead of decoding every record and walking all
event flags and latency registers per sample, the folder counts
``(rollup bucket, pc, signature-bytes)`` triples in a dict and folds
each distinct triple into the database's columns *once per flush*,
multiplying by its count.  A signature
is fully decoded (and therefore validated) the first time it is seen;
after that a repeated sample costs three varint decodes, one slice, and
one dict increment.

**Atomicity.**  A payload folds entirely or not at all: counts are
staged in per-call scratch and merged only after the whole payload has
parsed, so a payload that is corrupt halfway through (valid CRC can
still carry a malformed record — e.g. a truncated varint or an unknown
opcode ordinal) raises one :class:`ProtocolError` and leaves the
database untouched.  The caller accounts the drop using the frame
header's record count, which is exactly what did not get folded.

**Exactness.**  The fold is plain integer arithmetic — ``samples += n``
and ``total_sq += n * v * v`` is the same integer as ``n`` repetitions
of ``add_record`` — so a flushed folder's database is field-for-field
identical to one built record-by-record, and exports stay byte-identical
(canonical JSON) between the fused and in-process paths.  When
the shard retains effective addresses (``keep_addresses > 0``) the fast
path is disabled entirely: address retention is capped per pc in arrival
order, which multiplication cannot reproduce.
"""

from repro.analysis.database import ProfileDatabase
from repro.errors import ProtocolError
from repro.profileme.registers import LATENCY_FIELDS
from repro.service.protocol import (_decode_sample_v2, _sv_decode,
                                    _uv_decode, decode_probe_payload,
                                    decode_push_payload)

# Distinct (pc, signature) pairs held between flushes.  Bounds memory
# under adversarial streams where every record has a fresh signature;
# ordinary streams flush far below this.
DEFAULT_MEMO_LIMIT = 65536

_TAG_RECORD = 0


def _decode_signature(signature):
    """Validate + decode one signature span to fold-ready form.

    Returns ``(events bit-field, ((latency column, value), ...))`` —
    exactly the arguments of
    :meth:`~repro.analysis.database.ProfileDatabase.fold_signature`, so
    a flush resolves each memoized signature straight to the database's
    interned column-increment plan.  Raises :class:`ProtocolError` on
    any malformation — unknown ordinals, truncation, or trailing bytes.
    """
    if len(signature) < 3:
        raise ProtocolError("truncated record header")
    from repro.service.protocol import _ABORTS, _OPCODES

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


class ShardFolder:
    """Folds wire traffic for one shard into its profile database."""

    def __init__(self, keep_addresses=0, memo_limit=DEFAULT_MEMO_LIMIT,
                 rollup_interval=0, retain_buckets=0):
        self.database = ProfileDatabase(keep_addresses=keep_addresses,
                                        rollup_interval=rollup_interval,
                                        retain_buckets=retain_buckets)
        self.payloads_folded = 0  # fold calls that fully succeeded
        self._memo_limit = memo_limit
        # (bucket tick, pc, signature bytes) -> pending sample count;
        # the bucket tick is the record's rollup-bucket start (0 with
        # rollup disabled), so memoized repeats land in the right bucket.
        self._counts = {}
        self._signatures = {}  # signature bytes -> _decode_signature(...)

    # ------------------------------------------------------------------
    # Folding.

    def fold_payload(self, payload):
        """Fold one v2 push payload; returns the record count folded."""
        if self.database.keep_addresses:
            return self.fold_samples(decode_push_payload(payload))
        uv_decode, sv_decode = _uv_decode, _sv_decode
        signatures = self._signatures
        staged = {}
        fresh = {}
        extras = []
        count, offset = uv_decode(payload, 0)
        state = [0, 0]
        folded = 0
        end_of_data = len(payload)
        interval = self.database.rollup_interval
        for _ in range(count):
            try:
                tag = payload[offset]
            except IndexError:
                raise ProtocolError("truncated batch (missing sample tag)") \
                    from None
            if tag == _TAG_RECORD:
                offset += 1
                # The header varints are inlined for their single-byte
                # fast path (steady-state streams delta-code to one
                # byte); multi-byte values take the full decoder.  This
                # loop runs per record on the ingest hot path — the
                # call overhead of three decoder invocations per record
                # is the difference between being fold-bound and
                # decode-bound.
                try:
                    byte = payload[offset]
                    if byte < 0x80:
                        length = byte
                        offset += 1
                    else:
                        length, offset = uv_decode(payload, offset)
                    end = offset + length
                    if end > end_of_data:
                        raise ProtocolError(
                            "truncated record (claims %d bytes past the "
                            "frame end)" % (end - end_of_data,))
                    byte = payload[offset]
                    if byte < 0x80:
                        pc = state[0] = \
                            state[0] + ((byte >> 1) ^ -(byte & 1))
                        offset += 1
                    else:
                        delta, offset = sv_decode(payload, offset)
                        pc = state[0] = state[0] + delta
                    byte = payload[offset]
                    if byte < 0x80:
                        tick = state[1] = \
                            state[1] + ((byte >> 1) ^ -(byte & 1))
                        offset += 1
                    else:
                        delta, offset = sv_decode(payload, offset)
                        tick = state[1] = state[1] + delta
                    if payload[offset] < 0x80:  # done-cycle delta, unused
                        offset += 1
                    else:
                        _, offset = sv_decode(payload, offset)
                except IndexError:
                    raise ProtocolError("truncated varint (frame ends "
                                        "mid-value)") from None
                signature = payload[offset:end]
                if interval:
                    key = (tick - tick % interval, pc, signature)
                else:
                    key = (0, pc, signature)
                pending = staged.get(key)
                if pending is None:
                    # First sight (this payload): make sure the
                    # signature is decodable before it can be counted.
                    if signature not in signatures \
                            and signature not in fresh:
                        fresh[signature] = _decode_signature(signature)
                    staged[key] = 1
                else:
                    staged[key] = pending + 1
                offset = end
                folded += 1
            else:
                sample, offset = _decode_sample_v2(payload, offset, state)
                extras.append(sample)
        if offset != end_of_data:
            raise ProtocolError("push payload has %d trailing bytes"
                                % (end_of_data - offset,))
        # The whole payload parsed: commit.
        signatures.update(fresh)
        counts = self._counts
        for key, pending in staged.items():
            counts[key] = counts.get(key, 0) + pending
        database = self.database
        for sample in extras:
            before = database.total_samples
            database.add(sample)
            folded += database.total_samples - before
        if len(counts) > self._memo_limit:
            self.flush()
        self.payloads_folded += 1
        return folded

    def fold_samples(self, samples):
        """Fold decoded sample objects one by one (the address-retaining
        path of :meth:`fold_payload`)."""
        database = self.database
        before = database.total_samples
        for sample in samples:
            database.add(sample)
        self.payloads_folded += 1
        return database.total_samples - before

    def fold_probe_payload(self, payload):
        """Fold one v2 probe_push payload."""
        readings, tick = decode_probe_payload(payload)
        self.database.add_probe_readings(readings, tick)
        self.payloads_folded += 1
        return len(readings)

    def merge_document(self, document):
        """Merge a pushed ``repro-profile`` document into the shard."""
        other = ProfileDatabase.from_dict(document)
        self.flush()
        self.database.merge(other)
        self.payloads_folded += 1
        return other.total_samples

    # ------------------------------------------------------------------
    # Flushing.

    def flush(self):
        """Apply pending (bucket, pc, signature) counts to the database.

        Each distinct signature resolves once to an events bit-field and
        latency column plan; the fold then writes straight into the
        database's columns, multiplied by the pending count.
        """
        counts = self._counts
        if not counts:
            return
        fold_signature = self.database.fold_signature
        signatures = self._signatures
        for (tick, pc, signature), n in counts.items():
            events, latencies = signatures[signature]
            fold_signature(pc, n, events, latencies, tick=tick)
        counts.clear()
        if len(signatures) > self._memo_limit:
            signatures.clear()

    def snapshot_database(self):
        """Flush and return the shard database (live object, not a copy)."""
        self.flush()
        return self.database

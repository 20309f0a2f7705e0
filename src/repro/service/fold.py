"""Shard folding: wire payloads -> :class:`ProfileDatabase` aggregates.

One :class:`ShardFolder` owns one shard's database.  Each shard worker
process of :mod:`repro.service.workers` runs one; the in-process
reference fold (``ProfileDatabase.add`` record by record) is what its
results are checked against.

**The fast path.**  A v2 push payload keeps each record's *signature*
(opcode, abort reason, events, context, history, addr, latencies — see
:mod:`repro.service.protocol`) as a contiguous byte span after the
delta-coded pc/timestamps.  The database aggregates per ``(pc, events,
latencies)``, so the folder never builds record objects:
:func:`~repro.service.protocol.scan_push_payload` reads each record's
length and three timestamp deltas and slices its signature, with one
member scanner for single records, both members of a pair and every
present member of an N-way group alike (the pair trailer and the group
framing are parsed and validated around it).
Members are counted by ``(pc, signature)`` per rollup bucket, and each
distinct key folds into the database's columns once, multiplied by its
count.  A signature is fully decoded (and therefore validated) the
first time it is seen and memoized; after that a repeated member costs
its header varints, one slice and one count.

**The commit rule.**  Counts are committed in member order, one *run*
at a time: a run ends at every member whose rollup bucket differs from
the previous member's, and at the end of the payload.  Nothing is held
between payloads, so a snapshot barrier finds no deferred fold work.
Within a run every member routes to the same bucket, so folding the
run's counts in one go is the same as adding its members one by one;
committing at each bucket change keeps bucket creation, epoch rollup
and retention eviction in arrival order, which makes the fold exact
under ``retain_buckets`` even when ticks go backwards.

**Atomicity.**  A payload folds entirely or not at all: the whole
payload is scanned and every new signature decoded before the first
run is committed, so a payload that is corrupt halfway through (a valid
CRC can still carry a malformed record — e.g. a truncated varint or an
unknown opcode ordinal) raises one :class:`ProtocolError` and leaves
the database untouched.  The caller accounts the drop using the frame
header's record count, which is exactly what did not get folded.

**Exactness.**  The fold is plain integer arithmetic — ``samples += n``
and ``total_sq += n * v * v`` is the same integer as ``n`` repetitions
of ``add_record`` — so the folder's database is field-for-field
identical to one built record by record, and exports stay
byte-identical (canonical JSON) between the fused and in-process paths.
When the shard retains effective addresses (``keep_addresses > 0``) the
fast path is disabled entirely: address retention is capped per pc in
arrival order, which multiplication cannot reproduce.
"""

from collections import Counter

from repro.analysis.database import ProfileDatabase
from repro.profileme.registers import sample_records
from repro.service.protocol import (decode_probe_payload, decode_push_payload,
                                    decode_signature, scan_push_payload)

# Distinct signatures held in the decode memo.  Bounds memory under
# adversarial streams where every record has a fresh signature; the
# memo is dropped and rebuilt past it.
DEFAULT_MEMO_LIMIT = 65536


class ShardFolder:
    """Folds wire traffic for one shard into its profile database."""

    def __init__(self, keep_addresses=0, memo_limit=DEFAULT_MEMO_LIMIT,
                 rollup_interval=0, retain_buckets=0):
        self.database = ProfileDatabase(keep_addresses=keep_addresses,
                                        rollup_interval=rollup_interval,
                                        retain_buckets=retain_buckets)
        self.payloads_folded = 0  # fold calls that fully succeeded
        self._memo_limit = memo_limit
        self._signatures = {}  # signature bytes -> decode_signature(...)

    # ------------------------------------------------------------------
    # Folding.

    def fold_payload(self, payload):
        """Fold one v2 push payload; returns the record count folded."""
        database = self.database
        if database.keep_addresses:
            # Per-pc address retention: add records one by one.
            records = [record for sample in decode_push_payload(payload)
                       for record in sample_records(sample)]
            for record in records:
                database.add_record(record)
            self.payloads_folded += 1
            return len(records)
        members = scan_push_payload(payload)
        # Split the members into runs that share a rollup bucket.
        interval = database.rollup_interval
        if interval:
            runs = []
            bucket = None
            for pc, tick, signature, _ in members:
                start = tick - tick % interval
                if start != bucket:
                    keys = []
                    runs.append((start, keys))
                    bucket = start
                keys.append((pc, signature))
        else:
            runs = [(0, [(pc, signature)
                         for pc, _, signature, _ in members])]
        runs = [(start, Counter(keys)) for start, keys in runs]
        # Decode every new signature before anything is committed.
        signatures = self._signatures
        if len(signatures) > self._memo_limit:
            signatures.clear()
        for _, counts in runs:
            for _, signature in counts:
                if signature not in signatures:
                    signatures[signature] = decode_signature(signature)
        for start, counts in runs:
            database.fold_signatures(counts, signatures, tick=start)
        self.payloads_folded += 1
        return len(members)

    def fold_probe_payload(self, payload):
        """Fold one v2 probe_push payload."""
        readings, tick = decode_probe_payload(payload)
        self.database.add_probe_readings(readings, tick)
        self.payloads_folded += 1
        return len(readings)

    def merge_document(self, document):
        """Merge a pushed ``repro-profile`` document into the shard."""
        other = ProfileDatabase.from_dict(document)
        self.database.merge(other)
        self.payloads_folded += 1
        return other.total_samples

    # ------------------------------------------------------------------
    # Barriers.

    def flush(self):
        """A no-op: every payload is committed before its fold returns,
        so nothing is pending between payloads."""

    def snapshot_database(self):
        """The shard database (live object, not a copy)."""
        return self.database

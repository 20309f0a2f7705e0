"""Property tests for the columnar data plane.

Two invariants guard the struct-of-arrays rewrite:

* **Columnar == legacy scalar.**  The columnar fold must be
  record-for-record identical to the straightforward per-record scalar
  aggregation the database used to do (walk the event flags, update a
  per-name latency triple).  The reference implementation is embedded
  here, frozen at the legacy semantics, and compared field-for-field
  and by top-k ranking.

* **Rollup commutes with merge.**  Splitting a sample stream across
  shards and merging their bucketed databases must equal bucketing the
  whole stream in one database — ``rollup(a + b) ==
  rollup(a).merge(rollup(b))`` when both sides bucket on the same
  boundaries.  This is what makes sharded continuous ingest exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.database import (AGGREGATED_EVENTS, ProfileDatabase,
                                     decompose_events)
from repro.analysis.persistence import canonical_json, database_to_dict
from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode
from repro.profileme.registers import LATENCY_FIELDS, ProfileRecord

_EVENT_CHOICES = (
    Event.RETIRED,
    Event.RETIRED | Event.DCACHE_MISS,
    Event.RETIRED | Event.BRANCH_TAKEN,
    Event.RETIRED | Event.BRANCH_TAKEN | Event.MISPREDICT,
    Event.RETIRED | Event.DCACHE_MISS | Event.L2_MISS,
    Event.RETIRED | Event.ICACHE_MISS | Event.ITB_MISS,
    Event.ABORTED | Event.BAD_PATH,
    Event.ABORTED | Event.MISPREDICT,
)

_latency = st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 20))

_records = st.builds(
    ProfileRecord,
    context=st.just(0),
    pc=st.sampled_from([0x10, 0x14, 0x20, 0x40, (1 << 64) - 8]),
    op=st.sampled_from([Opcode.ADD, Opcode.LD, Opcode.BEQ]),
    addr=st.just(None),
    events=st.sampled_from(_EVENT_CHOICES),
    abort_reason=st.just(AbortReason.NONE),
    history=st.just(0),
    fetch_to_map=_latency,
    map_to_data_ready=_latency,
    data_ready_to_issue=_latency,
    issue_to_retire_ready=_latency,
    retire_ready_to_retire=_latency,
    load_issue_to_completion=_latency,
    fetch_cycle=st.integers(min_value=0, max_value=4000),
    done_cycle=st.integers(min_value=0, max_value=4000),
)


def legacy_scalar_fold(records):
    """The pre-columnar reference aggregation: one dict row per pc,
    per-record flag walk, per-name (count, total, total_sq) triples."""
    rows = {}
    for record in records:
        row = rows.get(record.pc)
        if row is None:
            row = rows[record.pc] = {
                "samples": 0, "taken": 0, "events": {}, "latencies": {}}
        row["samples"] += 1
        for flag in decompose_events(record.events):
            row["events"][flag] = row["events"].get(flag, 0) + 1
        if record.events & Event.BRANCH_TAKEN:
            row["taken"] += 1
        for name in LATENCY_FIELDS:
            value = getattr(record, name)
            if value is not None:
                count, total, total_sq = row["latencies"].get(name, (0, 0, 0))
                row["latencies"][name] = (count + 1, total + value,
                                          total_sq + value * value)
    return rows


def legacy_top_by_event(rows, flag, limit):
    """The legacy ranking over :func:`legacy_scalar_fold` rows: count
    descending, ties by ascending pc, zero-count pcs included."""
    ranked = sorted(((row["events"].get(flag, 0), -pc)
                     for pc, row in rows.items()), reverse=True)[:limit]
    return [(-negated_pc, count) for count, negated_pc in ranked]


@settings(max_examples=60, deadline=None)
@given(records=st.lists(_records, max_size=120))
def test_columnar_fold_matches_legacy_scalar_fold(records):
    db = ProfileDatabase()
    for record in records:
        db.add(record)
    reference = legacy_scalar_fold(records)
    assert sorted(db.pcs()) == sorted(reference)
    assert db.total_samples == sum(row["samples"]
                                   for row in reference.values())
    for pc, row in reference.items():
        profile = db.profile(pc)
        assert profile.samples == row["samples"]
        assert profile.taken_count == row["taken"]
        for flag in AGGREGATED_EVENTS:
            assert profile.event_count(flag) == row["events"].get(flag, 0)
        for name in LATENCY_FIELDS:
            aggregate = profile.latency(name)
            assert (aggregate.count, aggregate.total, aggregate.total_sq) \
                == row["latencies"].get(name, (0, 0, 0))
    for flag in (Event.RETIRED, Event.DCACHE_MISS, Event.ICACHE_MISS):
        assert db.top_by_event(flag, limit=3) == \
            legacy_top_by_event(reference, flag, limit=3)


@settings(max_examples=40, deadline=None)
@given(records_a=st.lists(_records, max_size=80),
       records_b=st.lists(_records, max_size=80),
       interval=st.sampled_from([16, 100, 1024]))
def test_rollup_commutes_with_merge(records_a, records_b, interval):
    def bucketed(streams):
        db = ProfileDatabase(rollup_interval=interval)
        for record in sorted(streams, key=lambda r: r.fetch_cycle):
            db.add(record)
        return db

    split = bucketed(records_a)
    split.merge(bucketed(records_b))
    combined = bucketed(records_a + records_b)
    assert canonical_json(database_to_dict(split)) == \
        canonical_json(database_to_dict(combined))


@settings(max_examples=40, deadline=None)
@given(records=st.lists(_records, max_size=120),
       interval=st.sampled_from([16, 100]))
def test_rollup_preserves_totals_against_flat(records, interval):
    flat = ProfileDatabase()
    rolled = ProfileDatabase(rollup_interval=interval)
    for record in sorted(records, key=lambda r: r.fetch_cycle):
        flat.add(record)
        rolled.add(record)
    assert rolled.total_samples == flat.total_samples
    for pc in flat.pcs():
        assert rolled.profile(pc) == flat.profile(pc)

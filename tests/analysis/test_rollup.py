"""Tests for the time-bucketed rollup plane of :class:`ProfileDatabase`.

Covers bucket routing by fetch cycle, exponential epoch rollup
(8 aligned buckets -> one coarser epoch), bounded retention with
eviction accounting (``ingested == retained + evicted``), straggler
clamping, the versioned bucketed document (round-trip + legacy load),
and pickling (worker checkpoint blobs carry buckets).
"""

import dataclasses
import pickle

import pytest

from repro.analysis.database import EPOCH_SPANS, ProfileDatabase
from repro.analysis.persistence import (BUCKETED_FORMAT_VERSION,
                                        canonical_json, database_from_dict,
                                        database_to_dict)
from repro.errors import AnalysisError
from repro.events import Event

from tests.analysis.test_database import make_record


def tick_record(tick, pc=0x10, events=Event.RETIRED, latencies=None):
    record = make_record(pc=pc, events=events, latencies=latencies)
    return dataclasses.replace(record, fetch_cycle=tick)


class TestValidation:
    def test_negative_interval_rejected(self):
        with pytest.raises(AnalysisError):
            ProfileDatabase(rollup_interval=-1)

    def test_retention_requires_interval(self):
        with pytest.raises(AnalysisError):
            ProfileDatabase(retain_buckets=4)


class TestBucketRouting:
    def test_samples_land_in_their_interval_bucket(self):
        db = ProfileDatabase(rollup_interval=100)
        db.add(tick_record(5))
        db.add(tick_record(99))
        db.add(tick_record(100))
        db.add(tick_record(250))
        epochs = db.epoch_summaries()
        assert [(e["level"], e["start"], e["span"], e["samples"])
                for e in epochs] == \
            [(0, 0, 100, 2), (0, 100, 100, 1), (0, 200, 100, 1)]
        assert db.bucket_count == 3
        assert db.total_samples == 4

    def test_flat_database_has_no_epochs(self):
        db = ProfileDatabase()
        db.add(make_record())
        assert db.epoch_summaries() == []
        assert db.bucket_count == 0

    @pytest.mark.parametrize("tick", (-5, -10 ** 6, 2 ** 70))
    def test_flat_database_takes_any_tick(self, tick):
        # A flat database is one bucket that covers every tick: a
        # negative or huge fetch cycle never reaches bucket routing.
        db = ProfileDatabase()
        reference = ProfileDatabase()
        db.add(tick_record(tick))
        db.add(tick_record(0))
        counts = {(0x10, b"sig"): 3}
        signatures = {b"sig": (int(Event.RETIRED), ((0, 2),))}
        db.fold_signatures(counts, signatures, tick=tick)
        for _ in range(2):
            reference.add(tick_record(0))
        reference.fold_signatures(counts, signatures)
        assert db.total_samples == 5
        assert db.samples_at(0x10) == 5
        assert db.bucket_count == 0
        assert db.epoch_summaries() == []
        assert canonical_json(database_to_dict(db)) == \
            canonical_json(database_to_dict(reference))

    def test_straggler_folds_into_covering_bucket(self):
        db = ProfileDatabase(rollup_interval=100)
        db.add(tick_record(50))
        db.add(tick_record(450))
        db.add(tick_record(70))  # late sample for the first bucket
        epochs = db.epoch_summaries()
        assert epochs[0]["samples"] == 2
        assert db.total_samples == 3

    def test_aggregates_match_flat_database(self):
        flat = ProfileDatabase()
        rolled = ProfileDatabase(rollup_interval=50)
        records = [tick_record(tick, pc=0x10 + 8 * (tick % 3),
                               events=Event.RETIRED | Event.DCACHE_MISS,
                               latencies={"fetch_to_map": tick % 7})
                   for tick in range(0, 1200, 13)]
        for record in records:
            flat.add(record)
            rolled.add(record)
        assert rolled.total_samples == flat.total_samples
        assert rolled.pcs() == flat.pcs()
        for pc in flat.pcs():
            assert rolled.profile(pc) == flat.profile(pc)
        assert rolled.top_by_event(Event.DCACHE_MISS) == \
            flat.top_by_event(Event.DCACHE_MISS)


class TestEpochRollup:
    def test_eight_buckets_roll_into_one_coarser_epoch(self):
        db = ProfileDatabase(rollup_interval=100)
        for tick in range(0, 1000, 100):  # ten level-0 buckets
            db.add(tick_record(tick))
        epochs = db.epoch_summaries()
        # The first aligned octet (starts 0..700) rolled into one
        # level-1 epoch spanning 800 cycles; the current coarse block
        # stays at full resolution.
        assert [(e["level"], e["start"], e["span"], e["samples"])
                for e in epochs] == \
            [(1, 0, 800, 8), (0, 800, 100, 1), (0, 900, 100, 1)]
        assert db.total_samples == 10

    def test_level_one_epochs_roll_into_level_two(self):
        interval = 10
        db = ProfileDatabase(rollup_interval=interval)
        level2_span = interval * EPOCH_SPANS[1] * 8
        # Cross the first level-2 boundary: one sample per bucket far
        # enough that every level-1 epoch of the first block closes.
        for tick in range(0, 2 * level2_span, interval):
            db.add(tick_record(tick))
        levels = {e["level"] for e in db.epoch_summaries()}
        assert 2 in levels
        assert sum(e["samples"] for e in db.epoch_summaries()) == \
            db.total_samples

    def test_rollup_preserves_per_pc_aggregates(self):
        db = ProfileDatabase(rollup_interval=100)
        for tick in range(0, 2000, 100):
            db.add(tick_record(tick, pc=0x40,
                               latencies={"fetch_to_map": 4}))
        profile = db.profile(0x40)
        assert profile.samples == 20
        assert profile.latency("fetch_to_map").count == 20
        assert profile.latency("fetch_to_map").mean == 4


class TestRetention:
    def test_oldest_buckets_evicted_past_cap(self):
        db = ProfileDatabase(rollup_interval=100, retain_buckets=3)
        for tick in range(0, 1000, 100):
            db.add(tick_record(tick))
        assert db.bucket_count <= 3
        assert db.evicted_samples > 0
        assert db.ingested_samples == 10
        assert db.total_samples + db.evicted_samples == 10
        assert db.total_samples == \
            sum(e["samples"] for e in db.epoch_summaries())

    def test_current_bucket_is_never_evicted(self):
        db = ProfileDatabase(rollup_interval=100, retain_buckets=1)
        for tick in range(0, 500, 100):
            db.add(tick_record(tick))
        assert db.bucket_count == 1
        assert db.epoch_summaries()[-1]["start"] == 400

    def test_straggler_older_than_horizon_is_clamped_not_dropped(self):
        db = ProfileDatabase(rollup_interval=100, retain_buckets=2)
        for tick in range(0, 1000, 100):
            db.add(tick_record(tick))
        before = db.total_samples
        db.add(tick_record(5))  # its bucket was evicted long ago
        assert db.total_samples == before + 1
        assert db.ingested_samples == 11


class TestMergeBuckets:
    def test_bucketed_merge_aligns_on_boundaries(self):
        a = ProfileDatabase(rollup_interval=100)
        b = ProfileDatabase(rollup_interval=100)
        both = ProfileDatabase(rollup_interval=100)
        ticks_a = [0, 50, 150, 420]
        ticks_b = [20, 160, 300, 430]
        for tick in ticks_a:
            a.add(tick_record(tick))
        for tick in ticks_b:
            b.add(tick_record(tick))
        for tick in sorted(ticks_a + ticks_b):
            both.add(tick_record(tick))
        a.merge(b)
        assert canonical_json(database_to_dict(a)) == \
            canonical_json(database_to_dict(both))

    def test_flat_merges_into_current_bucket(self):
        flat = ProfileDatabase()
        flat.add(make_record(pc=0x80))
        db = ProfileDatabase(rollup_interval=100)
        db.add(tick_record(250, pc=0x10))
        db.merge(flat)
        assert db.total_samples == 2
        assert db.epoch_summaries()[-1]["samples"] == 2
        assert db.samples_at(0x80) == 1

    def test_merge_accumulates_eviction_accounting(self):
        a = ProfileDatabase(rollup_interval=100, retain_buckets=2)
        b = ProfileDatabase(rollup_interval=100, retain_buckets=2)
        for tick in range(0, 800, 100):
            a.add(tick_record(tick))
            b.add(tick_record(tick + 10))
        ingested = a.ingested_samples + b.ingested_samples
        a.merge(b)
        assert a.ingested_samples == ingested


class TestBucketedPersistence:
    def test_flat_document_keeps_version_one(self):
        db = ProfileDatabase()
        db.add(make_record())
        doc = database_to_dict(db)
        assert doc["version"] == 1
        assert "buckets" not in doc

    def test_bucketed_round_trip(self):
        db = ProfileDatabase(rollup_interval=100, retain_buckets=4)
        for tick in range(0, 1200, 70):
            db.add(tick_record(tick, pc=0x10 + 8 * (tick % 2),
                               events=Event.RETIRED | Event.MISPREDICT,
                               latencies={"issue_to_retire_ready": 3}))
        doc = database_to_dict(db)
        assert doc["version"] == BUCKETED_FORMAT_VERSION
        clone = database_from_dict(doc)
        assert clone.rollup_interval == db.rollup_interval
        assert clone.retain_buckets == db.retain_buckets
        assert clone.total_samples == db.total_samples
        assert clone.evicted_samples == db.evicted_samples
        assert clone.epoch_summaries() == db.epoch_summaries()
        for pc in db.pcs():
            assert clone.profile(pc) == db.profile(pc)
        assert canonical_json(database_to_dict(clone)) == \
            canonical_json(doc)

    def test_bucketed_round_trip_keeps_addresses(self):
        db = ProfileDatabase(keep_addresses=2, rollup_interval=100)
        db.add(tick_record(10))
        db.add(make_record(pc=0x10, addr=0x2000,
                           events=Event.RETIRED | Event.DCACHE_MISS))
        clone = database_from_dict(database_to_dict(db))
        assert clone.profile(0x10).addresses == \
            db.profile(0x10).addresses

    def test_rollup_disabled_export_is_byte_identical_to_legacy(self):
        # The hard correctness gate: with rollup off, nothing about the
        # document changed — same keys, same canonical bytes.
        db = ProfileDatabase()
        for tick in range(0, 400, 30):
            db.add(tick_record(tick, pc=0x10 + 8 * (tick % 3)))
        doc = database_to_dict(db)
        assert sorted(doc) == ["format", "keep_addresses", "per_pc",
                               "total_samples", "version"]
        clone = database_from_dict(doc)
        assert canonical_json(database_to_dict(clone)) == \
            canonical_json(doc)


class TestPickling:
    def test_bucketed_database_round_trips_through_pickle(self):
        db = ProfileDatabase(rollup_interval=100, retain_buckets=4)
        for tick in range(0, 900, 60):
            db.add(tick_record(tick, latencies={"fetch_to_map": 2}))
        clone = pickle.loads(pickle.dumps(db))
        assert clone.total_samples == db.total_samples
        assert clone.evicted_samples == db.evicted_samples
        assert clone.epoch_summaries() == db.epoch_summaries()
        assert clone.profile(0x10) == db.profile(0x10)
        # The clone keeps folding correctly (plans are rebuilt lazily).
        clone.add(tick_record(901))
        assert clone.total_samples == db.total_samples + 1

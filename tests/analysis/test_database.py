"""Tests for the per-PC profile database."""

import pytest

from repro.analysis.database import ProfileDatabase
from repro.events import AbortReason, Event
from repro.isa.opcodes import Opcode
from repro.profileme.registers import PairedRecord, ProfileRecord


def make_record(pc=0x10, events=Event.RETIRED, addr=None,
                latencies=None, op=Opcode.ADD):
    fields = dict(fetch_to_map=2, map_to_data_ready=1, data_ready_to_issue=0,
                  issue_to_retire_ready=1, retire_ready_to_retire=3,
                  load_issue_to_completion=None)
    fields.update(latencies or {})
    return ProfileRecord(context=0, pc=pc, op=op, addr=addr, events=events,
                         abort_reason=AbortReason.NONE, history=0,
                         fetch_cycle=0, done_cycle=10, **fields)


class TestAggregation:
    def test_counts_and_events(self):
        db = ProfileDatabase()
        db.add(make_record())
        db.add(make_record(events=Event.RETIRED | Event.DCACHE_MISS))
        db.add(make_record(events=Event.ABORTED | Event.BAD_PATH))
        profile = db.profile(0x10)
        assert profile.samples == 3
        assert profile.retired_samples == 2
        assert profile.event_count(Event.DCACHE_MISS) == 1
        assert profile.event_count(Event.ABORTED) == 1
        assert profile.event_fraction(Event.DCACHE_MISS) == pytest.approx(1 / 3)

    def test_latency_streaming_moments(self):
        db = ProfileDatabase()
        for value in (2, 4, 6):
            db.add(make_record(latencies={"fetch_to_map": value}))
        aggregate = db.profile(0x10).latency("fetch_to_map")
        assert aggregate.count == 3
        assert aggregate.mean == 4
        assert aggregate.variance == pytest.approx(8 / 3)

    def test_none_latencies_skipped(self):
        db = ProfileDatabase()
        db.add(make_record(latencies={"issue_to_retire_ready": None}))
        profile = db.profile(0x10)
        assert profile.latency("issue_to_retire_ready").count == 0
        assert profile.latency("fetch_to_map").count == 1

    def test_pair_unpacked_into_both_members(self):
        db = ProfileDatabase()
        pair = PairedRecord(first=make_record(pc=0x10),
                            second=make_record(pc=0x20),
                            intra_pair_cycles=3, intra_pair_distance=5)
        db.add(pair)
        assert db.samples_at(0x10) == 1
        assert db.samples_at(0x20) == 1
        assert db.total_samples == 2

    def test_incomplete_pair(self):
        db = ProfileDatabase()
        db.add(PairedRecord(first=make_record(), second=None,
                            intra_pair_cycles=None,
                            intra_pair_distance=None))
        assert db.total_samples == 1

    def test_branch_direction_profile(self):
        db = ProfileDatabase()
        db.add(make_record(events=Event.RETIRED | Event.BRANCH_TAKEN,
                           op=Opcode.BNE))
        db.add(make_record(op=Opcode.BNE))
        assert db.profile(0x10).taken_count == 1


class TestAddressRetention:
    def test_addresses_capped(self):
        db = ProfileDatabase(keep_addresses=2)
        for index in range(5):
            db.add(make_record(addr=index * 8,
                               events=Event.RETIRED | Event.DCACHE_MISS))
        assert len(db.profile(0x10).addresses) == 2
        addr, dmiss, tmiss = db.profile(0x10).addresses[0]
        assert dmiss and not tmiss

    def test_disabled_by_default(self):
        db = ProfileDatabase()
        db.add(make_record(addr=8))
        assert db.profile(0x10).addresses == []


class TestQueries:
    def test_top_by_event(self):
        db = ProfileDatabase()
        for _ in range(3):
            db.add(make_record(pc=0x10,
                               events=Event.RETIRED | Event.DCACHE_MISS))
        db.add(make_record(pc=0x20,
                           events=Event.RETIRED | Event.DCACHE_MISS))
        top = db.top_by_event(Event.DCACHE_MISS, limit=1)
        assert top == [(0x10, 3)]

    def test_pcs_sorted(self):
        db = ProfileDatabase()
        db.add(make_record(pc=0x20))
        db.add(make_record(pc=0x10))
        assert db.pcs() == [0x10, 0x20]

    def test_missing_pc(self):
        db = ProfileDatabase()
        assert db.profile(0x99) is None
        assert db.samples_at(0x99) == 0


class TestSetProfile:
    def test_replaces_row_and_leaves_total_samples(self):
        source = ProfileDatabase()
        for _ in range(3):
            source.add(make_record(events=Event.RETIRED | Event.DCACHE_MISS))
        db = ProfileDatabase()
        db.add(make_record(pc=0x40))
        db.set_profile(0x40, source.profile(0x10))
        profile = db.profile(0x40)
        assert profile.samples == 3
        assert profile.event_count(Event.DCACHE_MISS) == 3
        assert profile.latency("fetch_to_map").count == 3
        assert db.total_samples == 1  # the loader sets it itself

    def test_per_pc_is_read_only(self):
        db = ProfileDatabase()
        db.add(make_record())
        with pytest.raises(TypeError):
            db.per_pc[0x20] = db.profile(0x10)
        assert list(db.per_pc) == [0x10]


class TestMerge:
    def test_merge_adds_counts_and_latencies(self):
        a = ProfileDatabase()
        b = ProfileDatabase()
        a.add(make_record())
        b.add(make_record())
        b.add(make_record(pc=0x20))
        a.merge(b)
        assert a.samples_at(0x10) == 2
        assert a.samples_at(0x20) == 1
        assert a.total_samples == 3
        assert a.profile(0x10).latency("fetch_to_map").count == 2


class TestTopTieOrder:
    """top_by_event ranks (count desc, pc asc) — deterministic under
    any shard-merge order, so ``repro query top`` output is stable."""

    def test_ties_rank_by_ascending_pc(self):
        db = ProfileDatabase()
        for pc in (0x30, 0x10, 0x20):
            db.add(make_record(pc=pc))
        assert db.top_by_event(Event.RETIRED, limit=3) == \
            [(0x10, 1), (0x20, 1), (0x30, 1)]

    def test_tie_at_the_cut_is_deterministic(self):
        db = ProfileDatabase()
        db.add(make_record(pc=0x50))
        db.add(make_record(pc=0x50))
        for pc in (0x40, 0x20, 0x30):
            db.add(make_record(pc=pc))
        # Three PCs tie at one sample; a limit of 2 keeps the lowest.
        assert db.top_by_event(Event.RETIRED, limit=2) == \
            [(0x50, 2), (0x20, 1)]

    def test_merge_order_does_not_change_ranking(self):
        def shard(pcs):
            db = ProfileDatabase()
            for pc in pcs:
                db.add(make_record(pc=pc))
            return db

        shards = [shard([0x10, 0x30]), shard([0x30, 0x20]),
                  shard([0x20, 0x10])]
        rankings = []
        for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            merged = ProfileDatabase()
            for i in order:
                merged.merge(shards[i])
            rankings.append(merged.top_by_event(Event.RETIRED, limit=3))
        assert rankings[0] == rankings[1] == rankings[2] == \
            [(0x10, 2), (0x20, 2), (0x30, 2)]

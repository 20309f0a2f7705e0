"""Tests for bottleneck metrics and diagnosis."""

import pytest

from repro.analysis.bottlenecks import (diagnose, instruction_metrics,
                                        rank_agreement, top_bottlenecks)
from repro.analysis.concurrency import PairAnalyzer
from repro.analysis.database import ProfileDatabase
from repro.events import Event

from tests.analysis.test_concurrency import pair, record
from tests.analysis.test_database import make_record


def _database_with(pcs):
    db = ProfileDatabase()
    for pc, latency in pcs:
        db.add(make_record(pc=pc,
                           latencies={"issue_to_retire_ready": latency}))
    return db


class TestInstructionMetrics:
    def test_total_latency_scales_with_interval(self):
        db = _database_with([(0x10, 5)])
        metrics = instruction_metrics(db, mean_interval=100)
        metric = metrics[0]
        # chain: 2 + 1 + 0 + 5 = 8 cycles, one sample, S=100.
        assert metric.total_latency == pytest.approx(800)
        assert metric.wasted_slots is None

    def test_waste_attached_from_pair_analyzer(self):
        db = _database_with([(0x10, 5)])
        analyzer = PairAnalyzer(mean_interval=100, pair_window=8,
                                issue_width=4)
        analyzer.add(pair(record(pc=0x10), record(pc=0x20, retired=False),
                          intra=0))
        metrics = instruction_metrics(db, 100, pair_analyzer=analyzer)
        by_pc = {m.pc: m for m in metrics}
        assert by_pc[0x10].wasted_slots is not None

    def test_aborted_only_pc_has_zero_latency(self):
        db = ProfileDatabase()
        db.add(make_record(pc=0x30, events=Event.ABORTED,
                           latencies={"issue_to_retire_ready": None}))
        metrics = instruction_metrics(db, 100)
        assert metrics[0].total_latency == 0


class TestRanking:
    def test_top_by_latency(self):
        db = _database_with([(0x10, 50), (0x20, 1)])
        metrics = instruction_metrics(db, 10)
        top = top_bottlenecks(metrics, key="total_latency", limit=1)
        assert top[0].pc == 0x10

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            top_bottlenecks([], key="nonsense")

    def test_rank_agreement_detects_divergence(self):
        # Two instructions: latency ranks A > B but waste ranks B > A
        # (A's long in-progress window is fully covered by useful work;
        # B's short window is completely wasted).
        db = _database_with([(0xA, 50), (0xB, 10)])
        analyzer = PairAnalyzer(mean_interval=10, pair_window=200,
                                issue_width=4)
        for _ in range(4):
            analyzer.add(pair(record(pc=0xA, i2rr=5),
                              record(pc=0x99), intra=0))
        for _ in range(4):
            analyzer.add(pair(record(pc=0xB, i2rr=40),
                              record(pc=0x99, retired=False), intra=500))
        metrics = instruction_metrics(db, 10, pair_analyzer=analyzer)
        by_pc = {m.pc: m for m in metrics}
        assert by_pc[0xA].total_latency > by_pc[0xB].total_latency
        assert by_pc[0xA].wasted_slots < by_pc[0xB].wasted_slots
        pearson_r, spearman_r = rank_agreement(metrics)
        assert spearman_r <= 0.0  # rankings disagree


class TestDiagnose:
    def test_orders_by_contribution(self):
        db = ProfileDatabase()
        db.add(make_record(latencies={"issue_to_retire_ready": 40,
                                      "fetch_to_map": 2}))
        contributions, notes = diagnose(db.profile(0x10))
        assert contributions[0][0] == "issue_to_retire_ready"
        assert "execution latency" in contributions[0][2]

    def test_notes_mention_events(self):
        db = ProfileDatabase()
        db.add(make_record(events=Event.RETIRED | Event.DCACHE_MISS))
        _, notes = diagnose(db.profile(0x10))
        assert any("D-cache miss" in note for note in notes)

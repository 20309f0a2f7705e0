"""Tests for pipeline-state reconstruction and conditional concurrency."""

import pytest

from repro.analysis.pipeline_state import (PipelineStateEstimator,
                                           conditional_concurrency,
                                           memory_shadow_overlap, stage_at)
from repro.analysis.concurrency import stage_times
from repro.errors import AnalysisError
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import fig7_three_loops

from tests.analysis.test_concurrency import pair, record


class TestStageAt:
    def test_stage_progression(self):
        times = stage_times(record(f2m=2, m2d=2, d2i=3, i2rr=4, rr2r=5), 0)
        # fetch=0, data_ready=4, issue=7, retire_ready=11, retire=16.
        assert stage_at(times, 0) == "frontend"
        assert stage_at(times, 3) == "frontend"
        assert stage_at(times, 4) == "queue"
        assert stage_at(times, 7) == "execute"
        assert stage_at(times, 10) == "execute"
        assert stage_at(times, 11) == "waiting_retire"
        assert stage_at(times, 15) == "waiting_retire"
        assert stage_at(times, 16) is None

    def test_before_fetch_is_none(self):
        times = stage_times(record(), 10)
        assert stage_at(times, 5) is None

    def test_aborted_truncates(self):
        aborted = record(retired=False)
        times = stage_times(aborted, 0)
        assert stage_at(times, times.retire_ready) is None


class TestPipelineStateEstimator:
    def test_occupancy_from_synthetic_pair(self):
        estimator = PipelineStateEstimator(max_offset=16)
        estimator.add(pair(record(), record(pc=0x20), intra=2))
        profile = estimator.profile()
        assert set(profile) == {"frontend", "queue", "execute",
                                "waiting_retire"}
        # Two anchors were accumulated (each member once).
        assert estimator.anchors == 2
        total = sum(sum(v) for v in profile.values())
        assert total > 0

    def test_rejects_empty(self):
        with pytest.raises(AnalysisError):
            PipelineStateEstimator().profile()

    def test_incomplete_pairs_ignored(self):
        estimator = PipelineStateEstimator()
        estimator.add(pair(record(), None))
        assert estimator.anchors == 0

    def test_real_run_occupancy_sane(self):
        program, _ = fig7_three_loops(iterations=150)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=30, paired=True, pair_window=64, seed=11)))
        estimator = PipelineStateEstimator(max_offset=32)
        for sample in run.pairs:
            estimator.add(sample)
        profile = estimator.profile()
        # Probabilities, so within [0, 1].
        for series in profile.values():
            assert all(0.0 <= v <= 1.0 for v in series)
        # Some occupancy must be observed in frontend and execute.
        assert estimator.mean_occupancy("frontend") > 0.0
        assert estimator.mean_occupancy("execute") > 0.0


class TestConditionalConcurrency:
    def test_default_buckets_hit_vs_miss(self):
        from repro.events import Event
        from repro.isa.opcodes import Opcode
        from repro.profileme.registers import ProfileRecord

        def load(miss, pc=0x10):
            base = record(pc=pc, op=Opcode.LD)
            events = base.events | (Event.DCACHE_MISS if miss
                                    else Event.NONE)
            return ProfileRecord(**{**base.__dict__, "events": events})

        pairs = [
            pair(load(miss=False), record(pc=0x99), intra=0),
            pair(load(miss=True), record(pc=0x99, retired=False), intra=0),
        ]
        buckets = conditional_concurrency(pairs)
        assert set(buckets) == {"hit", "miss"}
        assert buckets["hit"].rate > buckets["miss"].rate

    def test_pc_filter(self):
        pairs = [pair(record(pc=0x10), record(pc=0x99), intra=0)]
        buckets = conditional_concurrency(
            pairs, predicate=lambda r: "all", pcs={0x42})
        assert buckets == {}

    def test_custom_predicate(self):
        pairs = [pair(record(pc=0x10), record(pc=0x99), intra=0)]
        buckets = conditional_concurrency(
            pairs, predicate=lambda r: r.retired)
        assert True in buckets
        assert buckets[True].anchors >= 1


class TestMemoryShadowOverlap:
    def _load_pair(self, completion, intra):
        from repro.isa.opcodes import Opcode
        from repro.profileme.registers import ProfileRecord

        base = record(pc=0x10, op=Opcode.LD)
        anchor = ProfileRecord(**{
            **base.__dict__, "load_issue_to_completion": completion})
        return pair(anchor, record(pc=0x99), intra=intra)

    def test_partner_inside_long_shadow(self):
        from repro.analysis.concurrency import PairTimeline

        p = self._load_pair(completion=80, intra=5)
        timeline = PairTimeline(p)
        assert memory_shadow_overlap(p.first, timeline.first, p.second,
                                     timeline.second)

    def test_partner_outside_short_shadow(self):
        from repro.analysis.concurrency import PairTimeline

        # Hit: shadow of 2 cycles; partner issues at intra+3 >= end.
        p = self._load_pair(completion=2, intra=5)
        timeline = PairTimeline(p)
        assert not memory_shadow_overlap(p.first, timeline.first, p.second,
                                         timeline.second)

    def test_non_load_anchor_never_overlaps(self):
        from repro.analysis.concurrency import PairTimeline

        p = pair(record(pc=0x10), record(pc=0x99), intra=0)
        timeline = PairTimeline(p)
        assert not memory_shadow_overlap(p.first, timeline.first, p.second,
                                         timeline.second)

    def test_shadow_with_miss_events(self):
        from repro.events import Event
        from repro.isa.opcodes import Opcode
        from repro.profileme.registers import ProfileRecord

        base = record(pc=0x10, op=Opcode.LD)
        miss_anchor = ProfileRecord(**{
            **base.__dict__, "load_issue_to_completion": 80,
            "events": base.events | Event.DCACHE_MISS})
        hit_anchor = ProfileRecord(**{
            **base.__dict__, "load_issue_to_completion": 2})
        buckets = conditional_concurrency(
            [pair(miss_anchor, record(pc=0x99), intra=5),
             pair(hit_anchor, record(pc=0x99), intra=5)],
            overlap=memory_shadow_overlap)
        assert buckets["miss"].rate > buckets["hit"].rate

"""Tests for the event-counter baseline (section 2.2 behaviours)."""

import pytest
from collections import Counter

from repro.counters.counter import CounterConfig, CounterEvent
from repro.errors import ConfigError
from repro.engine.session import SessionSpec, run_session
from repro.workloads import fig2_loop


def _memory_loop():
    def body(b):
        b.ld(4, 2, 0)

    from repro.isa.builder import ProgramBuilder

    b = ProgramBuilder(name="ldloop")
    b.alloc("x", 1, init=[5])
    b.begin_function("main")
    b.ldi(1, 60)
    b.li_addr(2, "x")
    b.label("loop")
    b.ld(4, 2, 0)
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.halt()
    b.end_function()
    return b.build(entry="main")


class TestCounting:
    def test_counts_dcache_refs(self):
        program = _memory_loop()
        counter = run_session(SessionSpec(
            program=program,
            counter=CounterConfig(event=CounterEvent.DCACHE_REF,
                                  period=5))).counter
        # 60 loads issued on the good path, plus wrong-path loads.
        assert counter.events_counted >= 60
        assert counter.overflows >= 10

    def test_retired_inst_event(self, tiny_program):
        result = run_session(SessionSpec(
            program=tiny_program,
            counter=CounterConfig(event=CounterEvent.RETIRED_INST,
                                  period=10)))
        assert result.counter.events_counted == result.core.retired

    def test_samples_have_ground_truth(self):
        program = _memory_loop()
        counter = run_session(SessionSpec(
            program=program,
            counter=CounterConfig(event=CounterEvent.DCACHE_REF,
                                  period=4))).counter
        assert counter.samples
        for sample in counter.samples:
            assert sample.delivered_cycle >= (sample.event_cycle
                                              + counter.config.skid_cycles)

    def test_period_validation(self):
        with pytest.raises(ConfigError):
            CounterConfig(event=CounterEvent.DCACHE_REF, period=0)
        with pytest.raises(ConfigError):
            CounterConfig(event=CounterEvent.DCACHE_REF, period=5,
                          skid_cycles=-1)


class TestAttribution:
    def test_inorder_attribution_is_sharp(self):
        program, load_pc = fig2_loop(iterations=150, nop_count=100)
        counter = run_session(SessionSpec(
            program=program,
            counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=7,
                                  skid_cycles=6),
            core_kind="inorder")).counter
        offsets = Counter(s.delivered_pc - load_pc for s in counter.samples)
        assert len(offsets) == 1  # one sharp peak
        (offset, _), = offsets.items()
        assert offset > 0  # ... and it is NOT at the causing instruction

    def test_ooo_attribution_is_smeared(self):
        program, load_pc = fig2_loop(iterations=150, nop_count=100)
        counter = run_session(SessionSpec(
            program=program,
            counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=7,
                                  skid_cycles=6, skid_jitter_cycles=8),
            core_kind="ooo")).counter
        offsets = Counter(s.delivered_pc - load_pc for s in counter.samples)
        assert len(offsets) >= 4  # spread over many instructions
        peak = max(offsets.values()) / len(counter.samples)
        assert peak < 0.6

    def test_never_attributes_to_causing_instruction(self):
        program, load_pc = fig2_loop(iterations=100, nop_count=50)
        for kind in ("inorder", "ooo"):
            counter = run_session(SessionSpec(
                program=program,
                counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=5),
                core_kind=kind)).counter
            assert counter.samples
            assert all(s.delivered_pc != s.event_pc
                       for s in counter.samples)


class TestBlindSpots:
    def test_uninterruptible_range_defers_delivery(self):
        program, load_pc = fig2_loop(iterations=150, nop_count=100)
        # Block delivery across the whole loop body: samples pile up
        # beyond it (section 2.2's "blind spots").
        blocked = [(0, program.pc_limit - 8)]
        counter = run_session(SessionSpec(
            program=program,
            counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=6),
            uninterruptible=blocked)).counter
        for sample in counter.samples:
            assert sample.delivered_pc >= program.pc_limit - 8

    def test_fully_blocked_delivers_nothing(self):
        program, _ = fig2_loop(iterations=50, nop_count=20)
        counter = run_session(SessionSpec(
            program=program,
            counter=CounterConfig(event=CounterEvent.DCACHE_REF, period=6),
            uninterruptible=[(0, program.pc_limit)])).counter
        assert counter.samples == []
        assert counter.overflows > 0

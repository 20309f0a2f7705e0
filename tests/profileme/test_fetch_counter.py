"""Tests for the Fetched Instruction Counter."""

import pytest

from repro.cpu.probes import (SLOT_EMPTY, SLOT_INST, SLOT_OFFPATH,
                              empty_slot, inst_slot, offpath_slot)
from repro.errors import ConfigError, SimulationError
from repro.profileme.fetch_counter import (CountMode,
                                           FetchedInstructionCounter)


class _FakeDyn:
    def __init__(self, pc):
        self.pc = pc


def _slots(pattern):
    """Build slots from a pattern string: i=inst, o=offpath, e=empty."""
    slots = []
    for index, ch in enumerate(pattern):
        if ch == "i":
            slots.append(inst_slot(_FakeDyn(index * 4)))
        elif ch == "o":
            slots.append(offpath_slot(index * 4))
        else:
            slots.append(empty_slot())
    return slots


def _landing(counter, slots):
    """Walk one cycle's counted slots as the unit does; the selected slot."""
    for slot in counter.counted(slots):
        if counter.advance(1):
            return slot
    return None


class TestInstructionMode:
    def test_counts_only_instructions(self):
        counter = FetchedInstructionCounter(CountMode.INSTRUCTIONS)
        counter.write(3)
        assert len(counter.counted(_slots("ioe"))) == 1
        assert not counter.advance(1)  # a quiet cycle, counted in bulk
        assert _landing(counter, _slots("eoi")) is None  # 1 counted
        assert counter.remaining == 1
        assert _landing(counter, _slots("iiii")).pc == 0  # 3rd instruction

    def test_never_selects_offpath_or_empty(self):
        counter = FetchedInstructionCounter(CountMode.INSTRUCTIONS)
        counter.write(1)
        assert counter.counted(_slots("ooee")) == []
        assert _landing(counter, _slots("ooee")) is None
        slot = _landing(counter, _slots("oi"))
        assert slot.kind == SLOT_INST and slot.pc == 4

    def test_disarmed_after_fire(self):
        counter = FetchedInstructionCounter(CountMode.INSTRUCTIONS)
        counter.write(1)
        assert _landing(counter, _slots("i")).pc == 0
        assert counter.remaining is None
        assert _landing(counter, _slots("iiii")) is None


class TestOpportunityMode:
    def test_counts_every_slot(self):
        counter = FetchedInstructionCounter(CountMode.FETCH_OPPORTUNITIES)
        counter.write(6)
        assert len(counter.counted(_slots("eoie"))) == 4
        assert not counter.advance(4)  # a stalled cycle still counts
        slot = _landing(counter, _slots("eoii"))
        assert slot.kind == SLOT_OFFPATH and slot.pc == 4

    def test_can_select_empty_slot(self):
        counter = FetchedInstructionCounter(CountMode.FETCH_OPPORTUNITIES)
        counter.write(2)
        assert _landing(counter, _slots("ie")).kind == SLOT_EMPTY


class TestCountdown:
    def test_bulk_advance_fires_on_the_last_slot(self):
        counter = FetchedInstructionCounter()
        counter.write(5)
        assert not counter.advance(4)
        assert counter.remaining == 1
        assert counter.advance(1)
        assert counter.remaining is None

    def test_overshoot_raises(self):
        counter = FetchedInstructionCounter()
        counter.write(3)
        with pytest.raises(SimulationError):
            counter.advance(4)

    def test_disarmed_counter_ignores_advance(self):
        counter = FetchedInstructionCounter()
        assert not counter.advance(10)
        assert counter.remaining is None


class TestValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            FetchedInstructionCounter("instructions")

    def test_rejects_nonpositive_value(self):
        counter = FetchedInstructionCounter()
        with pytest.raises(ConfigError):
            counter.write(0)

    def test_disarm(self):
        counter = FetchedInstructionCounter()
        counter.write(5)
        counter.disarm()
        assert _landing(counter, _slots("iiii")) is None

"""Tests for the ground-truth collector."""

import pytest

from repro.analysis.groundtruth import GroundTruthCollector
from repro.cpu.ooo.core import OutOfOrderCore
from repro.events import Event
from repro.isa.interpreter import Interpreter


def collect(program, **options):
    core = OutOfOrderCore(program)
    truth = core.add_probe(GroundTruthCollector(**options))
    core.run()
    return core, truth


def test_retired_counts_match_interpreter(memory_program):
    core, truth = collect(memory_program)
    expected = Interpreter(memory_program).run_to_halt()
    assert truth.total_retired == expected
    per_pc_total = sum(t.retired for t in truth.per_pc.values())
    assert per_pc_total == expected


def test_fetched_partition(memory_program):
    core, truth = collect(memory_program)
    assert truth.total_fetched == truth.total_retired + truth.total_aborted
    for pc, t in truth.per_pc.items():
        assert t.fetched == t.retired + t.aborted


def test_event_counts_present(memory_program):
    _, truth = collect(memory_program)
    misses = sum(t.count_event(Event.DCACHE_MISS)
                 for t in truth.per_pc.values())
    assert misses >= 1  # cold misses on the array


def test_retire_series(tiny_program):
    _, truth = collect(tiny_program, collect_retire_series=True)
    assert sum(truth.retire_series.values()) == truth.total_retired
    ipc = truth.windowed_ipc(window_cycles=10)
    assert ipc
    assert all(v >= 0 for v in ipc)


def test_windowed_ipc_requires_flag(tiny_program):
    _, truth = collect(tiny_program)
    with pytest.raises(ValueError):
        truth.windowed_ipc(30)


def test_exact_wasted_slots(tiny_program):
    core, truth = collect(tiny_program, collect_intervals=True,
                          collect_issue_series=True)
    pc = max(truth.per_pc, key=lambda p: truth.per_pc[p].retired)
    waste = truth.wasted_issue_slots(pc, issue_width=4)
    # waste = available - used; available >= used is not guaranteed per
    # pc... but both are nonnegative and bounded by 4 slots/cycle.
    intervals = truth.intervals[pc]
    available = 4 * sum(end - start for start, end in intervals)
    assert waste <= available


def test_exact_wasted_slots_requires_flags(tiny_program):
    _, truth = collect(tiny_program)
    with pytest.raises(ValueError):
        truth.wasted_issue_slots(0, issue_width=4)


def test_latency_sums_only_retired(memory_program):
    _, truth = collect(memory_program)
    for t in truth.per_pc.values():
        assert t.latency_count == t.retired

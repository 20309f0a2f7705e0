"""Tests for the in-order core model."""

import pytest

from repro.branch.predictors import BranchPredictor
from repro.cpu.inorder.core import InOrderCore
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.probes import Probe
from repro.cpu.warm import WarmState
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import Interpreter
from repro.mem.hierarchy import MemoryHierarchy
from repro.workloads import suite_program

from tests.conftest import counting_loop


class RetireWatcher(Probe):
    def __init__(self):
        self.retired = []

    def on_retire(self, dyninst, cycle):
        self.retired.append((dyninst, cycle))


def test_architectural_state_matches_interpreter(memory_program):
    core = InOrderCore(memory_program)
    core.run()
    ref = Interpreter(memory_program)
    ref.run_to_halt()
    assert core.architectural_registers() == ref.state.regs.snapshot()


def test_retire_stream_in_order_with_monotonic_cycles(call_program):
    core = InOrderCore(call_program)
    watcher = core.add_probe(RetireWatcher())
    core.run()
    cycles = [cycle for _, cycle in watcher.retired]
    assert cycles == sorted(cycles)
    seqs = [d.seq for d, _ in watcher.retired]
    assert seqs == sorted(seqs)


def test_in_order_never_out_of_order_issue(memory_program):
    core = InOrderCore(memory_program)
    watcher = core.add_probe(RetireWatcher())
    core.run()
    issues = [d.issue_cycle for d, _ in watcher.retired]
    assert issues == sorted(issues)


def test_dependent_chain_slower_than_independent():
    def serial(b):
        for _ in range(8):
            b.mul(4, 4, 4)

    def parallel(b):
        for reg in range(4, 12):
            b.lda(reg, reg, 1)

    slow = InOrderCore(counting_loop(iterations=50, body=serial))
    slow_cycles = slow.run()
    fast = InOrderCore(counting_loop(iterations=50, body=parallel))
    fast_cycles = fast.run()
    assert slow_cycles > 2 * fast_cycles


def test_out_of_order_beats_in_order_on_miss_overlap():
    """The motivating observation: OoO hides independent miss latency."""
    from repro.workloads import fig7_three_loops

    program, _ = fig7_three_loops(iterations=50)
    inorder = InOrderCore(program)
    inorder_cycles = inorder.run()
    ooo = OutOfOrderCore(program)
    ooo_cycles = ooo.run()
    assert ooo_cycles < inorder_cycles


def test_max_retired_limit(tiny_program):
    core = InOrderCore(tiny_program)
    core.run(max_retired=3)
    assert core.retired == 3
    assert not core.halted


def test_mispredict_penalty_counted(tiny_program):
    core = InOrderCore(tiny_program)
    core.run()
    assert core.mispredicts >= 1


def test_ipc_reported(tiny_program):
    core = InOrderCore(tiny_program)
    core.run()
    assert 0 < core.ipc <= core.config.issue_width


def _prefetch_loop():
    b = ProgramBuilder(name="pf-loop")
    b.alloc("arr", 4096)
    b.begin_function("main")
    b.li_addr(2, "arr")
    b.ldi(1, 40)
    b.label("loop")
    b.prefetch(2, 512)
    b.ld(3, 2, 0)
    b.st(3, 2, 8)
    b.lda(2, 2, 64)
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.halt()
    b.end_function()
    return b.build(entry="main")


@pytest.mark.parametrize("workload", ["memory_program", "call_program",
                                      "prefetch", "gcc", "perl"])
def test_warm_state_matches_interpreter_plus_observe(workload, request):
    """The core warms caches, TLBs and predictors only through WarmState.

    Its final warm state equals the reference interpreter's retired
    stream fed through ``WarmState.observe`` (gcc and perl add indirect
    jumps; the prefetch loop adds prefetches and stores).
    """
    def build():
        if workload == "prefetch":
            return _prefetch_loop()
        if workload in ("gcc", "perl"):
            return suite_program(workload, scale=1)
        return request.getfixturevalue(workload)

    core = InOrderCore(build())
    core.run()
    reference = WarmState(MemoryHierarchy(core.config.memory),
                          BranchPredictor(core.config.predictor))
    retired = 0
    for entry in Interpreter(build()).run():
        reference.observe(entry.pc, entry.inst, entry.taken, entry.next_pc,
                          entry.eff_addr)
        retired += 1
    assert retired == core.retired
    assert core.warm.signature() == reference.signature()

"""Tests for the reference interpreter."""

import pytest

from repro.errors import SimulationError
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import Interpreter, functional_trace
from repro.isa.opcodes import Opcode


def test_counting_loop_retires_expected_instructions(tiny_program):
    interp = Interpreter(tiny_program)
    retired = interp.run_to_halt()
    # ldi*2 + 10 * (lda, lda, bne) + halt
    assert retired == 2 + 10 * 3 + 1
    assert interp.state.regs.read(3) == 10


def test_memory_program_sums_array(memory_program):
    from repro.isa.builder import DATA_BASE

    interp = Interpreter(memory_program)
    interp.run_to_halt()
    assert interp.state.regs.read(3) == sum(range(1, 33))
    out_addr = DATA_BASE + 32 * 8  # "out" follows the 32-word array
    assert interp.state.memory.read(out_addr) == sum(range(1, 33))


def test_call_program_returns(call_program):
    interp = Interpreter(call_program)
    interp.run_to_halt()
    # r3 doubles after increment 8 times: x -> 2*(x+1)
    value = 0
    for _ in range(8):
        value = 2 * (value + 1)
    assert interp.state.regs.read(3) == value


def test_trace_records_branch_outcomes(tiny_program):
    trace = functional_trace(tiny_program)
    branches = [e for e in trace if e.inst.op is Opcode.BNE]
    assert len(branches) == 10
    assert all(e.taken for e in branches[:-1])
    assert branches[-1].taken is False


def test_trace_records_effective_addresses(memory_program):
    trace = functional_trace(memory_program)
    loads = [e for e in trace if e.inst.is_load]
    assert len(loads) == 32
    addrs = [e.eff_addr for e in loads]
    assert addrs == sorted(addrs)
    assert all(a % 8 == 0 for a in addrs)


def test_runaway_program_raises():
    b = ProgramBuilder()
    b.label("spin")
    b.br("spin")
    program = b.build()
    with pytest.raises(SimulationError, match="did not halt"):
        Interpreter(program).run_to_halt(max_instructions=100)


def test_control_transfer_to_invalid_pc_raises():
    b = ProgramBuilder()
    b.ldi(1, 0x9999)
    b.jmp(1)
    program = b.build()
    interp = Interpreter(program)
    interp.step()
    with pytest.raises(SimulationError, match="invalid PC"):
        interp.step()


def test_run_generator_stops_at_limit(tiny_program):
    assert len(list(Interpreter(tiny_program).run(max_instructions=5))) == 5


def test_zero_register_reads_zero():
    b = ProgramBuilder()
    b.ldi(31, 77)  # write to R31 is discarded
    b.add(1, 31, 31)
    b.halt()
    interp = Interpreter(b.build())
    interp.run_to_halt()
    assert interp.state.regs.read(31) == 0
    assert interp.state.regs.read(1) == 0


def test_jsr_saves_return_address(call_program):
    trace = functional_trace(call_program)
    jsr = next(e for e in trace if e.inst.op is Opcode.JSR)
    ret = next(e for e in trace if e.inst.op is Opcode.RET)
    assert ret.next_pc == jsr.pc + 4


def test_every_instruction_carries_a_dispatch_handler(tiny_program):
    from repro.isa.stepfns import HANDLERS

    for inst in tiny_program.instructions:
        assert inst.exec_fn is HANDLERS[inst.op]


def test_dispatch_matches_trace_across_opcodes(memory_program, call_program):
    # The per-opcode handlers drive step(); cross-check their outcomes
    # against the architectural results the older ladder produced.
    for program, expected_r3 in ((memory_program, sum(range(1, 33))),
                                 (call_program, 510)):
        interp = Interpreter(program)
        interp.run_to_halt()
        assert interp.state.regs.read(3) == expected_r3


def test_snapshot_restore_round_trip(memory_program):
    interp = Interpreter(memory_program)
    for _ in range(10):
        interp.step()
    snap = interp.state.snapshot()
    finished = Interpreter(memory_program)
    finished.run_to_halt()

    resumed = Interpreter(memory_program)
    resumed.state.restore(snap)
    resumed.run_to_halt()
    assert resumed.state.regs.snapshot() == finished.state.regs.snapshot()
    assert resumed.state.memory.snapshot() == finished.state.memory.snapshot()
    # The snapshot is a copy: mutating the restored run never aliases it.
    assert snap.pc != resumed.state.pc


def test_interpreter_accepts_external_state(memory_program):
    from repro.isa.state import ArchState

    state = ArchState(memory_program)
    interp = Interpreter(memory_program, state=state)
    assert interp.state is state
    interp.run_to_halt()
    assert state.halted

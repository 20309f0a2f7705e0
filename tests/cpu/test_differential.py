"""Differential testing: both timing cores must match the interpreter.

Hypothesis generates random (but always-terminating) programs — loops
over random bodies of ALU ops, memory traffic, data-dependent branches
and calls — and asserts that the out-of-order core's committed
architectural state is identical to the reference interpreter's.  This is
the single strongest correctness check on the speculation machinery:
any bug in squash/rollback/forwarding shows up as state divergence.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.inorder.core import InOrderCore
from repro.cpu.ooo.core import OutOfOrderCore
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import Interpreter

# One random "operation" in a loop body: (kind, params).
_ops = st.sampled_from(["add", "xor", "mul", "fadd", "load", "store",
                        "branch", "chain"])
_bodies = st.lists(st.tuples(_ops, st.integers(0, 7), st.integers(0, 7)),
                   min_size=1, max_size=12)


def build_random_program(bodies, iterations):
    """Deterministically assemble a terminating program from draws."""
    b = ProgramBuilder(name="random")
    b.alloc("data", 64, init=list(range(100, 164)))
    b.begin_function("main")
    b.ldi(15, b.address_of("data"))
    for reg in range(2, 12):
        b.ldi(reg, reg * 3 + 1)
    label_count = 0
    for loop_index, body in enumerate(bodies):
        counter = 13
        b.ldi(counter, iterations)
        loop = "loop_%d" % loop_index
        b.label(loop)
        for op_index, (kind, a, c) in enumerate(body):
            r1 = 2 + a
            r2 = 2 + c
            if kind == "add":
                b.add(r1, r1, r2)
            elif kind == "xor":
                b.xor(r1, r1, r2)
            elif kind == "mul":
                b.mul(r1, r1, r2)
            elif kind == "fadd":
                b.fadd(r1, r1, r2)
            elif kind == "load":
                b.ldi(14, (a * 8 + c) % 64)
                b.sll(14, 14, 3)
                b.add(14, 14, 15)
                b.ld(r1, 14, 0)
            elif kind == "store":
                b.ldi(14, (a + c * 5) % 64)
                b.sll(14, 14, 3)
                b.add(14, 14, 15)
                b.st(r1, 14, 0)
            elif kind == "branch":
                label_count += 1
                skip = "skip_%d" % label_count
                b.ldi(14, 1)
                b.and_(14, r1, 14)
                b.beq(14, skip)
                b.lda(r2, r2, 1)
                b.label(skip)
            elif kind == "chain":
                b.mul(r1, r1, r1)
                b.lda(r1, r1, 1)
        b.lda(counter, counter, -1)
        b.bne(counter, loop)
    b.halt()
    b.end_function()
    return b.build(entry="main")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bodies=st.lists(_bodies, min_size=1, max_size=3),
       iterations=st.integers(min_value=1, max_value=12))
def test_ooo_core_matches_interpreter(bodies, iterations):
    program = build_random_program(bodies, iterations)
    ref = Interpreter(program)
    ref.run_to_halt(max_instructions=200_000)

    core = OutOfOrderCore(program)
    core.run(max_cycles=500_000)
    assert core.halted, "core failed to finish a terminating program"
    assert core.architectural_registers() == ref.state.regs.snapshot()
    for addr, value in ref.state.memory.snapshot().items():
        assert core.memory.read(addr) == value
    assert core.retired == ref.retired


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bodies=st.lists(_bodies, min_size=1, max_size=2),
       iterations=st.integers(min_value=1, max_value=8))
def test_inorder_core_matches_interpreter(bodies, iterations):
    program = build_random_program(bodies, iterations)
    ref = Interpreter(program)
    ref.run_to_halt(max_instructions=100_000)

    core = InOrderCore(program)
    core.run()
    assert core.architectural_registers() == ref.state.regs.snapshot()
    assert core.retired == ref.retired


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bodies=st.lists(_bodies, min_size=1, max_size=2),
       iterations=st.integers(min_value=1, max_value=8),
       rob=st.sampled_from([8, 16, 48]),
       iq=st.sampled_from([4, 8]))
def test_ooo_correct_under_tight_resources(bodies, iterations, rob, iq):
    """Correctness must not depend on window sizes."""
    from repro.cpu.config import MachineConfig

    program = build_random_program(bodies, iterations)
    ref = Interpreter(program)
    ref.run_to_halt(max_instructions=100_000)

    config = MachineConfig.alpha21264_like(rob_entries=rob, iq_entries=iq,
                                           phys_regs=40, lsq_entries=6)
    core = OutOfOrderCore(program, config=config)
    core.run(max_cycles=500_000)
    assert core.halted
    assert core.architectural_registers() == ref.state.regs.snapshot()

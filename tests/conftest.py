"""Shared test fixtures and program-building helpers."""

import pytest

from repro.isa.builder import ProgramBuilder


def counting_loop(iterations=10, body=None, name="loop-prog"):
    """A simple counted loop; *body* is a callable emitting the loop body.

    Registers: r1 = countdown, r3 = accumulator.  Returns the program.
    """
    b = ProgramBuilder(name=name)
    b.begin_function("main")
    b.ldi(1, iterations)
    b.ldi(3, 0)
    b.label("loop")
    if body is not None:
        body(b)
    b.lda(3, 3, 1)
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.halt()
    b.end_function()
    return b.build(entry="main")


def entry_block(program):
    """*program*'s shared trace-cache block at its entry, compiled on first
    use by a one-instruction fast-forward."""
    from repro.cpu.tracecache import blocks
    from repro.cpu.warm import WarmState, fast_forward
    from repro.isa.interpreter import Interpreter

    fast_forward(Interpreter(program), WarmState(), 1)
    return blocks(program)[program.entry]


@pytest.fixture
def tiny_program():
    """10-iteration empty loop."""
    return counting_loop(iterations=10)


@pytest.fixture
def memory_program():
    """Loop summing an array through loads/stores."""
    b = ProgramBuilder(name="memsum")
    b.alloc("arr", 32, init=list(range(1, 33)))
    b.alloc("out", 1)
    b.begin_function("main")
    b.ldi(1, 32)
    b.li_addr(2, "arr")
    b.ldi(3, 0)
    b.label("loop")
    b.ld(4, 2, 0)
    b.add(3, 3, 4)
    b.lda(2, 2, 8)
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.li_addr(5, "out")
    b.st(3, 5, 0)
    b.halt()
    b.end_function()
    return b.build(entry="main")


@pytest.fixture
def call_program():
    """main calls a leaf function in a loop (exercises JSR/RET)."""
    b = ProgramBuilder(name="calls")
    b.begin_function("main")
    b.ldi(1, 8)
    b.ldi(3, 0)
    b.label("loop")
    b.jsr("double", ra=26)
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.halt()
    b.end_function()
    b.begin_function("double")
    b.lda(3, 3, 1)
    b.add(3, 3, 3)
    b.ret(26)
    b.end_function()
    return b.build(entry="main")

"""Tests for natural-loop detection."""

from repro.isa.builder import ProgramBuilder
from repro.isa.loops import (dominators, find_loops, forward_edges,
                             loop_of_pc)


def nested_loop_program():
    b = ProgramBuilder(name="nested")
    b.begin_function("main")
    b.ldi(1, 3)
    b.label("outer")  # header of the outer loop
    b.ldi(2, 4)
    b.label("inner")  # header of the inner loop
    b.lda(3, 3, 1)
    b.lda(2, 2, -1)
    b.bne(2, "inner")
    b.lda(1, 1, -1)
    b.bne(1, "outer")
    b.halt()
    b.end_function()
    return b.build(entry="main")


def two_function_loops():
    b = ProgramBuilder(name="twofn")
    b.begin_function("main")
    b.ldi(1, 5)
    b.label("mloop")
    b.jsr("leaf", ra=26)
    b.lda(1, 1, -1)
    b.bne(1, "mloop")
    b.halt()
    b.end_function()
    b.begin_function("leaf")
    b.ldi(2, 3)
    b.label("lloop")
    b.lda(2, 2, -1)
    b.bne(2, "lloop")
    b.ret(26)
    b.end_function()
    return b.build(entry="main")


class TestForwardEdges:
    def test_conditional_has_two_successors(self):
        program = nested_loop_program()
        edges = forward_edges(program)
        inner_bne = program.pc_of_label("inner") + 8  # lda, lda, bne
        assert sorted(edges[inner_bne]) == sorted(
            [program.pc_of_label("inner"), inner_bne + 4])

    def test_jsr_falls_through(self):
        program = two_function_loops()
        edges = forward_edges(program)
        jsr_pc = 4
        assert edges[jsr_pc] == [8]  # the return point, not the callee

    def test_halt_and_ret_terminate(self):
        program = two_function_loops()
        edges = forward_edges(program)
        ret_pc = program.functions["leaf"][1] - 4
        assert edges[ret_pc] == []


class TestDominators:
    def test_entry_dominates_everything(self):
        program = nested_loop_program()
        edges = forward_edges(program)
        dom = dominators(0, edges, program.functions["main"])
        for node, doms in dom.items():
            assert 0 in doms
            assert node in doms

    def test_inner_header_dominates_inner_body(self):
        program = nested_loop_program()
        edges = forward_edges(program)
        dom = dominators(0, edges, program.functions["main"])
        inner = program.pc_of_label("inner")
        assert inner in dom[inner + 8]  # the inner bne


class TestFindLoops:
    def test_nested_loops_found(self):
        program = nested_loop_program()
        loops = find_loops(program)
        assert len(loops) == 2
        by_header = {l.header: l for l in loops}
        outer = by_header[program.pc_of_label("outer")]
        inner = by_header[program.pc_of_label("inner")]
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert inner.body < outer.body

    def test_innermost_attribution(self):
        program = nested_loop_program()
        loops = find_loops(program)
        inner_body_pc = program.pc_of_label("inner")
        innermost = loop_of_pc(loops, inner_body_pc)
        assert innermost.header == program.pc_of_label("inner")
        # A pc only in the outer loop attributes to the outer loop.
        outer_only = program.pc_of_label("outer")
        assert loop_of_pc(loops, outer_only).header == outer_only

    def test_loops_per_function(self):
        program = two_function_loops()
        loops = find_loops(program)
        assert {l.function for l in loops} == {"main", "leaf"}

    def test_straightline_code_has_no_loop(self):
        b = ProgramBuilder(name="line")
        b.begin_function("main")
        b.nop(4)
        b.halt()
        b.end_function()
        program = b.build(entry="main")
        assert find_loops(program) == []
        assert loop_of_pc([], 0) is None

    def test_suite_members_have_loops(self):
        from repro.workloads import suite_program

        program = suite_program("compress", scale=1)
        loops = find_loops(program)
        assert loops
        # Every phase function contains at least one loop.
        functions_with_loops = {l.function for l in loops}
        assert any(name.startswith("phase_")
                   for name in functions_with_loops)

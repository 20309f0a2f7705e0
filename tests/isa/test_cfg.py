"""Tests for the backward control-flow graph."""

from repro.isa.builder import ProgramBuilder
from repro.isa.cfg import (CALL, INDIRECT, RETURN, SEQ, TAKEN,
                           ControlFlowGraph, edge_counts,
                           observed_indirect_targets)
from repro.isa.interpreter import functional_trace


def diamond_program():
    """if/else diamond inside a loop."""
    b = ProgramBuilder(name="diamond")
    b.begin_function("main")
    b.ldi(1, 4)
    b.label("loop")
    b.bne(3, "odd")
    b.lda(3, 3, 1)  # even arm
    b.br("join")
    b.label("odd")
    b.lda(3, 3, -1)
    b.label("join")
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.halt()
    b.end_function()
    return b.build(entry="main")


class TestIntraproceduralEdges:
    def test_merge_point_has_both_arm_predecessors(self):
        program = diamond_program()
        cfg = ControlFlowGraph(program)
        join = program.pc_of_label("join")
        preds = cfg.predecessors(join)
        kinds = {(e.pred, e.kind) for e in preds}
        # br from even arm (TAKEN) and fall-through from odd arm (SEQ).
        br_pc = program.pc_of_label("odd") - 4
        odd_last = join - 4
        assert (br_pc, TAKEN) in kinds
        assert (odd_last, SEQ) in kinds

    def test_conditional_edges_carry_direction_bits(self):
        program = diamond_program()
        cfg = ControlFlowGraph(program)
        odd = program.pc_of_label("odd")
        taken_edges = [e for e in cfg.predecessors(odd) if e.taken_bit == 1]
        assert len(taken_edges) == 1
        # The fall-through successor of the same branch gets bit 0.
        branch_pc = taken_edges[0].pred
        fallthrough = branch_pc + 4
        bits = [e.taken_bit for e in cfg.predecessors(fallthrough)
                if e.pred == branch_pc]
        assert bits == [0]

    def test_loop_backedge(self):
        program = diamond_program()
        cfg = ControlFlowGraph(program)
        loop = program.pc_of_label("loop")
        back = [e for e in cfg.predecessors(loop) if e.taken_bit == 1]
        assert len(back) == 1


class TestInterproceduralEdges:
    def _program(self):
        b = ProgramBuilder(name="callret")
        b.begin_function("main")
        b.jsr("leaf", ra=26)
        b.nop()
        b.halt()
        b.end_function()
        b.begin_function("leaf")
        b.nop()
        b.ret(26)
        b.end_function()
        return b.build(entry="main")

    def test_call_edge_only_interprocedural(self):
        program = self._program()
        cfg = ControlFlowGraph(program)
        leaf = program.pc_of_label("leaf")
        assert cfg.predecessors(leaf) == []
        inter = cfg.predecessors(leaf, interprocedural=True)
        assert [(e.pred, e.kind) for e in inter] == [(0, CALL)]

    def test_return_edge_at_post_call_point(self):
        program = self._program()
        cfg = ControlFlowGraph(program)
        post_call = 4  # instruction after the JSR
        assert cfg.predecessors(post_call) == []
        inter = cfg.predecessors(post_call, interprocedural=True)
        ret_pc = program.pc_of_label("leaf") + 4
        assert [(e.pred, e.kind) for e in inter] == [(ret_pc, RETURN)]

    def test_expected_call_site_filters(self):
        b = ProgramBuilder(name="twocalls")
        b.begin_function("main")
        b.jsr("leaf", ra=26)
        b.jsr("leaf", ra=26)
        b.halt()
        b.end_function()
        b.begin_function("leaf")
        b.ret(26)
        b.end_function()
        program = b.build(entry="main")
        cfg = ControlFlowGraph(program)
        leaf = program.pc_of_label("leaf")
        unfiltered = cfg.predecessors(leaf, interprocedural=True)
        assert len(unfiltered) == 2
        filtered = cfg.predecessors(leaf, interprocedural=True,
                                    expected_call_site=4)
        assert [(e.pred, e.kind) for e in filtered] == [(4, CALL)]


class TestIndirectEdges:
    def test_observed_jmp_targets_become_edges(self):
        b = ProgramBuilder(name="switch")
        b.begin_function("main")
        b.jump_table("tbl", ["case0"])
        b.ldi(2, b.address_of("tbl"))
        b.ld(3, 2, 0)
        b.jmp(3)
        b.label("case0")
        b.halt()
        b.end_function()
        program = b.build(entry="main")
        trace = functional_trace(program)
        observed = observed_indirect_targets(trace)
        cfg = ControlFlowGraph(program, observed)
        case0 = program.pc_of_label("case0")
        kinds = [(e.pred, e.kind) for e in cfg.predecessors(case0)]
        jmp_pc = case0 - 4
        assert (jmp_pc, INDIRECT) in kinds


def test_edge_counts_from_trace():
    program = diamond_program()
    trace = functional_trace(program)
    counts = edge_counts(trace)
    loop = program.pc_of_label("loop")
    backedge_count = counts.get((program.pc_limit - 8, loop), 0)
    assert backedge_count == 3  # 4 iterations -> 3 taken back edges
    total = sum(counts.values())
    assert total == len(trace) - 1

"""Tests for the PREFETCH instruction and the profile-guided pass."""

import pytest

from repro.analysis.optimize import (detect_stride, insert_instructions,
                                     insert_prefetches, plan_prefetches)
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.inorder.core import InOrderCore
from repro.errors import AnalysisError
from repro.engine.session import SessionSpec, run_session
from repro.isa.builder import ProgramBuilder
from repro.isa.instruction import Instruction
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import Opcode
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import stall_kernel


class TestPrefetchInstruction:
    def _program(self):
        b = ProgramBuilder(name="pf")
        b.alloc("arr", 64, init=list(range(64)))
        b.begin_function("main")
        b.li_addr(2, "arr")
        b.prefetch(2, 0)
        b.ld(3, 2, 0)
        b.halt()
        b.end_function()
        return b.build(entry="main")

    def test_architecturally_noop(self):
        program = self._program()
        interp = Interpreter(program)
        interp.run_to_halt()
        assert interp.state.regs.read(3) == 0  # arr[0] == 0

    def test_warms_cache_in_ooo_core(self):
        program = self._program()
        core = OutOfOrderCore(program)
        core.run()
        assert core.architectural_registers()[3] == 0
        # The prefetch performed the (only) miss; loads were still
        # counted as references.
        assert core.hierarchy.l1d.accesses >= 2

    def test_inorder_core_executes_prefetch(self):
        program = self._program()
        core = InOrderCore(program)
        core.run()
        assert core.architectural_registers()[3] == 0

    def test_prefetch_never_blocks_retirement(self):
        # A prefetch of an uncached line completes in one cycle.
        b = ProgramBuilder(name="pf-fast")
        b.alloc("arr", 32768)
        b.begin_function("main")
        b.li_addr(2, "arr")
        b.ldi(1, 50)
        b.label("loop")
        b.prefetch(2, 0)
        b.lda(2, 2, 4096)
        b.lda(1, 1, -1)
        b.bne(1, "loop")
        b.halt()
        b.end_function()
        program = b.build(entry="main")
        core = OutOfOrderCore(program)
        cycles = core.run()
        # 200 instructions; with blocking misses this would cost
        # thousands of cycles.
        assert cycles < 1500


class TestInsertInstructions:
    def test_relocates_and_preserves_semantics(self, memory_program):
        ref = Interpreter(memory_program)
        ref.run_to_halt()
        # Insert a NOP after every load.
        insertions = {}
        for pc, _ in memory_program.listing():
            if memory_program.fetch(pc).is_load:
                insertions[pc] = [Instruction(op=Opcode.NOP)]
        moved = insert_instructions(memory_program, insertions)
        assert len(moved) == len(memory_program) + 1  # one static load
        got = Interpreter(moved)
        got.run_to_halt()
        assert got.state.regs.snapshot() == ref.state.regs.snapshot()

    def test_rejects_invalid_pc(self, memory_program):
        with pytest.raises(AnalysisError):
            insert_instructions(memory_program,
                                {99999: [Instruction(op=Opcode.NOP)]})

    def test_rejects_indirect_jumps(self):
        b = ProgramBuilder(name="jmp")
        b.ldi(1, 8)
        b.jmp(1)
        b.halt()
        program = b.build()
        with pytest.raises(AnalysisError, match="indirect"):
            insert_instructions(program, {0: [Instruction(op=Opcode.NOP)]})


class TestStrideDetection:
    def test_detects_unique_updater(self):
        program = stall_kernel("dcache_miss", iterations=10)
        loads = [pc for pc, _ in program.listing()
                 if program.fetch(pc).is_load]
        assert detect_stride(program, loads[0]) == 64

    def test_ambiguous_updater_returns_none(self):
        b = ProgramBuilder(name="ambig")
        b.begin_function("main")
        b.ld(3, 2, 0)
        b.lda(2, 2, 8)
        b.lda(2, 2, 16)
        b.halt()
        b.end_function()
        program = b.build(entry="main")
        assert detect_stride(program, 0) is None


class TestPrefetchPass:
    def _profiled_kernel(self):
        program = stall_kernel("dcache_miss", iterations=400)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=20, seed=3)))
        return program, run

    def test_plans_target_missing_load(self):
        program, run = self._profiled_kernel()
        plans = plan_prefetches(program, run.database, lookahead=6)
        assert len(plans) == 1
        plan = plans[0]
        assert program.fetch(plan.load_pc).is_load
        assert plan.stride == 64
        assert plan.displacement == 6 * 64
        assert plan.miss_fraction > 0.9

    def test_insertion_preserves_results_and_speeds_up(self):
        program, run = self._profiled_kernel()
        plans = plan_prefetches(program, run.database, lookahead=8)
        improved = insert_prefetches(program, plans)

        ref = Interpreter(program)
        ref.run_to_halt()
        got = Interpreter(improved)
        got.run_to_halt()
        assert got.state.regs.snapshot() == ref.state.regs.snapshot()

        before = OutOfOrderCore(program)
        before_cycles = before.run()
        after = OutOfOrderCore(improved)
        after_cycles = after.run()
        assert after_cycles < 0.8 * before_cycles

    def test_no_plans_without_misses(self):
        from tests.conftest import counting_loop

        program = counting_loop(iterations=500)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=20, seed=3)))
        assert plan_prefetches(program, run.database) == []


class TestPlanApplicationStaleness:
    """Regression tests: plans are valid only against the program they
    were computed from, and one program's plans must be applied in a
    single call (PCs shift as instructions are inserted)."""

    def _two_load_program(self):
        b = ProgramBuilder(name="twoloads")
        b.alloc("a", 256)
        b.alloc("b", 256)
        b.begin_function("main")
        b.li_addr(2, "a")
        b.li_addr(4, "b")
        b.ldi(1, 16)
        b.label("loop")
        b.ld(3, 2, 0)
        b.lda(2, 2, 8)
        b.ld(5, 4, 0)
        b.lda(4, 4, 16)
        b.lda(1, 1, -1)
        b.bne(1, "loop")
        b.halt()
        b.end_function()
        return b.build(entry="main")

    def _plans_for(self, program):
        from repro.analysis.optimize import PrefetchPlan, detect_stride

        plans = []
        for index, inst in enumerate(program.instructions):
            if not inst.is_load:
                continue
            pc = index * 4
            stride = detect_stride(program, pc)
            plans.append(PrefetchPlan(load_pc=pc, base_reg=inst.src1,
                                      displacement=inst.imm + 6 * stride,
                                      stride=stride, miss_fraction=1.0))
        return plans

    def test_two_plans_in_same_function_apply_in_one_call(self):
        from repro.analysis.optimize import insert_prefetches_with_map

        program = self._two_load_program()
        plans = self._plans_for(program)
        assert len(plans) == 2
        improved, remap = insert_prefetches_with_map(program, plans)
        # Both prefetches landed immediately after their loads, even
        # though the first insertion shifted the second load's PC.
        for plan in plans:
            assert improved.fetch(remap[plan.load_pc]).is_load
            after = improved.fetch(remap[plan.load_pc] + 4)
            assert after.op is Opcode.PREFETCH
            assert after.src1 == plan.base_reg
        # Architectural results are unchanged.
        ref = Interpreter(program)
        ref.run_to_halt()
        got = Interpreter(improved)
        got.run_to_halt()
        assert got.state.regs.snapshot() == ref.state.regs.snapshot()
        assert got.state.memory.snapshot() == ref.state.memory.snapshot()

    def test_stale_plan_against_relocated_program_is_rejected(self):
        from repro.analysis.optimize import (insert_prefetches,
                                             insert_prefetches_with_map)

        program = self._two_load_program()
        plans = self._plans_for(program)
        # Applying the first plan moves the second load; re-applying the
        # *original* second plan against the new image must fail loudly
        # instead of silently instrumenting the wrong instruction.
        shifted = insert_prefetches(program, plans[:1])
        with pytest.raises(AnalysisError, match="stale prefetch plan"):
            insert_prefetches_with_map(shifted, plans[1:])

    def test_plan_at_invalid_pc_is_rejected(self):
        from repro.analysis.optimize import (PrefetchPlan,
                                             insert_prefetches_with_map)

        program = self._two_load_program()
        bogus = PrefetchPlan(load_pc=program.pc_limit + 64, base_reg=2,
                             displacement=0, stride=8, miss_fraction=1.0)
        with pytest.raises(AnalysisError, match="stale prefetch plan"):
            insert_prefetches_with_map(program, [bogus])

    def test_identical_duplicate_plans_fold(self):
        from repro.analysis.optimize import insert_prefetches_with_map

        program = self._two_load_program()
        plan = self._plans_for(program)[0]
        improved, remap = insert_prefetches_with_map(program, [plan, plan])
        new_pc = remap[plan.load_pc]
        assert improved.fetch(new_pc + 4).op is Opcode.PREFETCH
        # Only one PREFETCH was inserted for the duplicated plan.
        assert len(improved.instructions) == len(program.instructions) + 1

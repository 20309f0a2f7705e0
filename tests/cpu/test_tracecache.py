"""Decoded-block trace cache: exact equivalence with the reference interpreter.

The trace cache (repro.cpu.tracecache) compiles basic blocks into fused
step functions that ``fast_forward`` runs.  Its correctness contract is
byte-exactness: a fast-forward must produce the identical architectural
state, warm-state signature and sample records as the reference
``Interpreter.run`` plus ``WarmState.observe`` per retired instruction —
including across in-place Program mutations, which must invalidate the
program's blocks via the ``Program.version`` counter.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.predictors import BranchPredictor, StaticDirectionPredictor
from repro.cpu import tracecache
from repro.cpu.functional import FunctionalProfiler
from repro.cpu.tracecache import MAX_BLOCK, blocks
from repro.cpu.warm import WarmState, fast_forward
from repro.isa.builder import ProgramBuilder
from repro.isa.instruction import Instruction
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import Opcode
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.tlb import TlbConfig
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

from tests.conftest import counting_loop, entry_block


def reference_forward(interp, warm, count):
    """The plain side: ``Interpreter.run`` plus ``WarmState.observe``."""
    done = 0
    for entry in interp.run(max_instructions=count):
        warm.observe(entry.pc, entry.inst, entry.taken, entry.next_pc,
                     entry.eff_addr)
        done += 1
    return done


def run_pair(program_factory, count, chunks=None, mutate=None,
             warm_factory=lambda program: WarmState()):
    """Run the cached fast-forward and the reference in lockstep.

    Returns ``[cached, plain]`` sides.  *chunks* splits the run into
    segments; *mutate* is an optional ``(program, segment_index) ->
    None`` callback applied between segments to BOTH programs,
    exercising cache invalidation.  *warm_factory* builds each side's
    warm state from its program.
    """
    sides = []
    for forward in (fast_forward, reference_forward):
        program = program_factory()
        interp = Interpreter(program)
        warm = warm_factory(program)
        done = 0
        for index, chunk in enumerate(chunks or [count]):
            done += forward(interp, warm, chunk)
            if mutate is not None:
                mutate(program, index)
        sides.append((interp, warm, done))
    return sides


def assert_sides_equal(cached, plain):
    interp_c, warm_c, done_c = cached
    interp_p, warm_p, done_p = plain
    assert done_c == done_p
    assert interp_c.state.pc == interp_p.state.pc
    assert interp_c.state.halted == interp_p.state.halted
    assert interp_c.state.regs._values == interp_p.state.regs._values
    assert interp_c.state.memory._words == interp_p.state.memory._words
    assert warm_c.signature() == warm_p.signature()


WORKLOADS = ("compress", "gcc", "go", "ijpeg", "li", "perl", "povray",
             "vortex")


class TestSuiteEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_fast_forward_matches_plain(self, name):
        cached, plain = run_pair(lambda: suite_program(name, scale=1),
                                 50_000)
        assert_sides_equal(cached, plain)

    def test_chunked_fast_forward_matches(self):
        # Chunk boundaries force mid-block spills on the cached side.
        chunks = [1, 2, 3, 7, 50, 1, 499, 1000, 13, 40_000]
        cached, plain = run_pair(
            lambda: suite_program("compress", scale=1), sum(chunks),
            chunks=chunks)
        assert_sides_equal(cached, plain)


def small_geometry_warm(program):
    """Warm state on 32-byte lines, 4 KiB pages and 4-way L1s."""
    config = HierarchyConfig(
        l1i=CacheConfig(name="l1i", size_bytes=8 * 1024, line_bytes=32,
                        associativity=4),
        l1d=CacheConfig(name="l1d", size_bytes=8 * 1024, line_bytes=32,
                        associativity=4),
        itlb=TlbConfig(name="itlb", entries=16, page_bytes=4096),
        dtlb=TlbConfig(name="dtlb", entries=16, page_bytes=4096))
    return WarmState(hierarchy=MemoryHierarchy(config))


def static_predictor_warm(program):
    """Warm state whose direction predictor is BTFN plus one flipped hint."""
    conditional = [pc for pc, _ in program.listing()
                   if program.fetch(pc).is_conditional]
    hints = {conditional[0]: not program.fetch(conditional[0]).target
             < conditional[0]}
    return WarmState(predictor=BranchPredictor(
        direction=StaticDirectionPredictor(program, hints=hints)))


class TestWarmGeometries:
    """The inline hit path reads shifts, masks and the predictor from the
    warm state it is handed, so one block serves any configuration."""

    @pytest.mark.parametrize("warm_factory",
                             (small_geometry_warm, static_predictor_warm))
    @pytest.mark.parametrize("name", ("compress", "gcc", "li"))
    def test_fast_forward_matches_plain(self, name, warm_factory):
        cached, plain = run_pair(lambda: suite_program(name, scale=1),
                                 30_000, chunks=[5, 995, 29_000],
                                 warm_factory=warm_factory)
        assert_sides_equal(cached, plain)

    def test_one_cache_serves_two_geometries(self):
        # Blocks compiled while warming the default hierarchy must warm
        # a differently shaped one exactly as the interpreter does.
        program = suite_program("compress", scale=1)
        fast_forward(Interpreter(program), WarmState(), 20_000)
        compiled = dict(blocks(program))
        assert compiled
        sides = []
        for forward in (fast_forward, reference_forward):
            interp = Interpreter(program)
            warm = small_geometry_warm(program)
            done = forward(interp, warm, 20_000)
            sides.append((interp, warm, done))
        assert_sides_equal(*sides)
        assert all(blocks(program)[pc] is block
                   for pc, block in compiled.items())


# Operands around the signed/unsigned boundaries of a 64-bit word.
_EDGES = (0, 1, 2, 2 ** 63 - 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1,
          2 ** 64 - 2, 2 ** 64 - 1)


def _signed_ops_program():
    b = ProgramBuilder(name="signed-ops")
    b.begin_function("main")
    b.cmplt(3, 1, 2)
    b.cmplt(4, 2, 1)
    b.cmple(5, 1, 2)
    b.cmple(6, 2, 1)
    b.mul(7, 1, 2)
    b.fmul(8, 1, 2)
    b.fdiv(9, 1, 2)
    b.fdiv(10, 2, 1)
    b.halt()
    b.end_function()
    return b.build(entry="main")


@pytest.mark.parametrize("a", _EDGES)
def test_signed_ops_match_interpreter_at_edges(a):
    program = _signed_ops_program()
    for b in _EDGES:
        sides = []
        for forward in (fast_forward, reference_forward):
            interp = Interpreter(program)
            interp.state.regs.write(1, a)
            interp.state.regs.write(2, b)
            warm = WarmState()
            done = forward(interp, warm, 100)
            sides.append((interp, warm, done))
        assert blocks(program)[program.entry].fused is not None
        assert_sides_equal(*sides)


class TestProfilerEquivalence:
    @pytest.mark.parametrize("name", ("compress", "li", "go"))
    def test_fused_records_match_observed(self, name):
        runs = []
        signatures = []
        for collect_truth in (False, True):
            profiler = FunctionalProfiler(
                suite_program(name, scale=1),
                profile=ProfileMeConfig(mean_interval=23, seed=9),
                collect_truth=collect_truth, keep_records=True)
            runs.append(profiler.run())
            signatures.append(profiler.warm.signature())
        fused, observed = runs
        assert fused.retired == observed.retired
        # Covers the memory hierarchy and the predictor's outcome
        # counts (every mispredict) on both sides.
        assert signatures[0] == signatures[1]
        assert fused.hierarchy.stats() == observed.hierarchy.stats()
        key = [(r.pc, int(r.events), r.history, r.fetch_cycle)
               for r in fused.records]
        assert key == [(r.pc, int(r.events), r.history, r.fetch_cycle)
                       for r in observed.records]

    def test_fused_respects_instruction_limit(self):
        profiler = FunctionalProfiler(
            suite_program("compress", scale=1),
            profile=ProfileMeConfig(mean_interval=1000, seed=2),
            collect_truth=False)
        run = profiler.run(max_instructions=12_345)
        assert run.retired == 12_345


class TestInvalidation:
    def test_version_bump_drops_blocks(self, tiny_program):
        block = entry_block(tiny_program)
        assert entry_block(tiny_program) is block
        tiny_program.note_mutation()
        assert tiny_program.entry not in blocks(tiny_program)
        assert entry_block(tiny_program) is not block

    def test_patch_mid_session_changes_execution(self):
        # Patch the loop-body accumulator step from +1 to +5 after three
        # iterations; cached and plain runs must agree on the final sum.
        def factory():
            return counting_loop(iterations=10)

        def mutate(program, index):
            if index == 0:
                # entry+8 is `lda r3, r3, 1` (see counting_loop).
                pc = program.entry + 8
                old = program.fetch(pc)
                assert old.op is Opcode.LDA and old.dest == 3
                program.patch(pc, Instruction(
                    op=Opcode.LDA, dest=3, src1=3, src2=None, imm=5))

        # 3 iterations * 3 loop insts + 2 setup = 11 instructions.
        cached, plain = run_pair(factory, 200, chunks=[11, 189],
                                 mutate=mutate)
        assert_sides_equal(cached, plain)
        regs = cached[0].state.regs._values
        # 3 iterations at +1, 7 at +5.
        assert regs[3] == 3 + 7 * 5

    def test_replace_instructions_invalidates(self, tiny_program):
        block = entry_block(tiny_program)
        tiny_program.replace_instructions(list(tiny_program.instructions))
        assert tiny_program.version == 1
        # A stale fused block would execute the old code; the next
        # fast-forward must recompile against the (identical) new list.
        fresh = entry_block(tiny_program)
        assert fresh is not block
        assert fresh.entry == tiny_program.entry


class TestBlockLimits:
    def test_blocks_are_bounded(self):
        program = suite_program("gcc", scale=1)
        interp = Interpreter(program)
        warm = WarmState()
        fast_forward(interp, warm, 20_000)
        assert blocks(program)
        assert all(b.length <= MAX_BLOCK for b in blocks(program).values())


@settings(max_examples=15, deadline=None)
@given(chunks=st.lists(st.integers(min_value=1, max_value=700),
                       min_size=1, max_size=12),
       patch_at=st.integers(min_value=0, max_value=11),
       increment=st.integers(min_value=0, max_value=9))
def test_property_cached_equals_plain_with_mutation(chunks, patch_at,
                                                    increment):
    """Cached == plain for arbitrary chunking and a mid-run body patch."""
    def factory():
        return counting_loop(iterations=300)

    def mutate(program, index):
        if index == patch_at:
            program.patch(program.entry + 8, Instruction(
                op=Opcode.LDA, dest=3, src1=3, src2=None, imm=increment))

    cached, plain = run_pair(factory, sum(chunks), chunks=chunks,
                             mutate=mutate)
    assert_sides_equal(cached, plain)


class TestTransformCorpus:
    """The PGO transforms are the mutation source the cache must survive:
    passes build relocated images with ``insert_instructions`` and
    install them into live Program objects via ``replace_instructions``."""

    def test_relocated_program_matches_plain(self):
        # Cached == plain on a program that *is* an insert_instructions
        # output (prefetch-style NOP padding after every 5th PC).
        from repro.analysis.optimize import insert_instructions
        from repro.isa.instruction import INSTRUCTION_BYTES

        def factory():
            base = counting_loop(iterations=500)
            insertions = {
                pc: [Instruction(op=Opcode.NOP, dest=None, src1=None,
                                 src2=None, imm=0)]
                for pc in range(0, base.pc_limit, 5 * INSTRUCTION_BYTES)}
            return insert_instructions(base, insertions)

        cached, plain = run_pair(factory, 3_000,
                                 chunks=[1, 7, 100, 2_892])
        assert_sides_equal(cached, plain)

    def test_insert_instructions_installed_mid_session(self):
        # A PGO pass relocates mid-run and installs the new image into
        # the live program with replace_instructions; the cached run
        # must drop its decoded blocks and track the plain interpreter.
        from repro.analysis.optimize import insert_instructions_with_map

        def factory():
            return counting_loop(iterations=50)

        def mutate(program, index):
            if index != 1:
                return
            # Append after the final instruction: existing PCs (and the
            # running interpreter's pc) are unaffected, but the program
            # image — and therefore every decoded block — changed.
            last_pc = program.pc_limit - 8
            relocated, remap = insert_instructions_with_map(
                program, {last_pc: [Instruction(
                    op=Opcode.NOP, dest=None, src1=None, src2=None,
                    imm=0)]})
            assert remap[program.entry] == program.entry
            version_before = program.version
            program.replace_instructions(list(relocated.instructions))
            assert program.version == version_before + 1

        cached, plain = run_pair(factory, 152, chunks=[9, 13, 130],
                                 mutate=mutate)
        assert_sides_equal(cached, plain)


class TestSharedBlocks:
    """Blocks belong to the Program: sessions after the first reuse them."""

    @staticmethod
    def _two_speed(program):
        from repro.engine.session import SessionSpec, run_session

        return run_session(SessionSpec(
            program=program, exec_mode="two-speed", window=200,
            max_retired=20_000,
            profile=ProfileMeConfig(mean_interval=2_000, seed=5)))

    def test_second_session_compiles_nothing(self, monkeypatch):
        compiled = []
        original = tracecache.compile_block

        def counting(program, entry):
            compiled.append(entry)
            return original(program, entry)

        monkeypatch.setattr(tracecache, "compile_block", counting)
        program = suite_program("compress", scale=1)
        first = self._two_speed(program)
        assert compiled
        del compiled[:]
        second = self._two_speed(program)
        assert compiled == []
        assert second.stats.retired == first.stats.retired
        assert second.database.total_samples == first.database.total_samples
        # A version bump drops the blocks: the next session recompiles.
        program.note_mutation()
        third = self._two_speed(program)
        assert compiled
        assert third.stats.retired == first.stats.retired

    def test_blocks_dropped_with_program(self):
        import gc

        program = counting_loop(iterations=3)
        fast_forward(Interpreter(program), WarmState(), 10)
        key = id(program)
        assert key in tracecache._CACHES
        del program
        gc.collect()
        assert key not in tracecache._CACHES

"""Tests for profile-guided static branch hints."""

from repro.analysis.optimize import branch_hints_from_profile
from repro.branch.predictors import BranchPredictor, StaticDirectionPredictor
from repro.cpu.ooo.core import OutOfOrderCore
from repro.engine.session import SessionSpec, run_session
from repro.isa.builder import ProgramBuilder
from repro.profileme.unit import ProfileMeConfig


def forward_taken_program(iterations=600):
    """A branch that is heavily taken *forward*: BTFN's worst case."""
    b = ProgramBuilder(name="fwd-taken")
    b.begin_function("main")
    b.ldi(1, iterations)
    b.ldi(16, 321)
    b.ldi(27, 6364136223846793005)
    b.ldi(28, 1442695040888963407)
    b.label("loop")
    b.mul(16, 16, 27)
    b.add(16, 16, 28)
    b.srl(2, 16, 33)
    b.ldi(3, 255)
    b.and_(2, 2, 3)
    b.ldi(3, 230)
    b.cmplt(4, 2, 3)
    b.bne(4, "skip")  # forward branch, taken ~90% of the time
    b.lda(5, 5, 1)
    b.lda(5, 5, 2)
    b.label("skip")
    b.lda(1, 1, -1)
    b.bne(1, "loop")
    b.halt()
    b.end_function()
    return b.build(entry="main")


def _mispredicts(program, direction):
    predictor = BranchPredictor(direction=direction)
    core = OutOfOrderCore(program, predictor=predictor)
    core.run()
    return core.mispredicts


class TestStaticDirectionPredictor:
    def test_btfn_default(self):
        program = forward_taken_program()
        predictor = StaticDirectionPredictor(program)
        loop_bne = program.pc_limit - 8  # backward branch
        forward_bne = next(
            pc for pc, _ in program.listing()
            if program.fetch(pc).is_conditional
            and program.fetch(pc).target > pc)
        assert predictor.predict(loop_bne, 0)  # backward -> taken
        assert not predictor.predict(forward_bne, 0)  # forward -> not

    def test_hints_override(self):
        program = forward_taken_program()
        forward_bne = next(
            pc for pc, _ in program.listing()
            if program.fetch(pc).is_conditional
            and program.fetch(pc).target > pc)
        predictor = StaticDirectionPredictor(program,
                                             hints={forward_bne: True})
        assert predictor.predict(forward_bne, 0)

    def test_hints_ignore_non_branches(self):
        program = forward_taken_program()
        predictor = StaticDirectionPredictor(program, hints={0: True})
        assert predictor.predict(0, 0) is False  # pc 0 is not a branch


class TestProfileGuidedHints:
    def test_hints_reduce_static_mispredicts(self):
        program = forward_taken_program()

        # Profile with the default (gshare) machine.
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=10, seed=1)))
        hints = branch_hints_from_profile(run.database, program)
        forward_bne = next(
            pc for pc, _ in program.listing()
            if program.fetch(pc).is_conditional
            and program.fetch(pc).target > pc)
        assert hints.get(forward_bne) is True  # profile saw ~90% taken

        btfn = _mispredicts(program,
                            StaticDirectionPredictor(program))
        hinted = _mispredicts(program,
                              StaticDirectionPredictor(program,
                                                       hints=hints))
        # BTFN mispredicts the hot forward branch ~90% of the time;
        # the hint flips that to ~10%.
        assert hinted < 0.45 * btfn

    def test_static_hints_beat_gshare_on_biased_branches(self):
        """An honest surprise: on short runs of heavily biased branches
        (compress-like), profile hints beat gshare, which pays cold-start
        and aliasing costs.  This is why real ISAs grew hint bits."""
        from repro.workloads import suite_program

        program = suite_program("compress", scale=1)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=25, seed=1)))
        hints = branch_hints_from_profile(run.database, program)
        hinted = _mispredicts(program,
                              StaticDirectionPredictor(program,
                                                       hints=hints))
        gshare = _mispredicts(program, None)
        assert hinted < gshare

    def test_gshare_beats_static_on_history_patterns(self):
        """Dynamic history wins where directions are *patterned* rather
        than biased: a fixed 4-trip inner loop's exit is perfectly
        predictable from history and unpredictable statically."""
        b = ProgramBuilder(name="patterned")
        b.begin_function("main")
        b.ldi(1, 400)
        b.label("outer")
        b.ldi(2, 4)
        b.label("inner")
        b.lda(3, 3, 1)
        b.lda(2, 2, -1)
        b.bne(2, "inner")  # T T T N repeated: history-predictable
        b.lda(1, 1, -1)
        b.bne(1, "outer")
        b.halt()
        b.end_function()
        program = b.build(entry="main")

        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=10, seed=1)))
        hints = branch_hints_from_profile(run.database, program)
        hinted = _mispredicts(program,
                              StaticDirectionPredictor(program,
                                                       hints=hints))
        gshare = _mispredicts(program, None)
        assert gshare < 0.5 * hinted

"""Two-speed execution: hand-off soundness and estimate fidelity.

The two-speed engine alternates the functional interpreter (between
samples) with bounded detailed OOO windows (around samples).  Its
correctness rests on one property: both engines implement the *same*
architecture, so handing register/memory/PC state across the boundary
can never change what the program computes.  These tests pin that
property directly (fast-forward vs detailed-to-halt, and an alternating
hand-off schedule vs the plain interpreter), pin the shared warm-state
contract (FunctionalProfiler and fast_forward warm identically), and
then check the sampled *estimates* a two-speed run produces against a
full detailed run through the Figure 3 envelope.
"""

import pytest

from repro.analysis.estimators import ratio_within_envelope
from repro.cpu.functional import FunctionalProfiler
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.probes import Probe
from repro.cpu.warm import WarmState, fast_forward
from repro.engine.session import SessionSpec, run_session
from repro.errors import ConfigError
from repro.events import Event
from repro.isa.interpreter import Interpreter
from repro.profileme.unit import ProfileMeConfig, ProfileMeUnit
from repro.workloads import classic_kernel, stall_kernel
from repro.workloads.suite import suite_program

from tests.conftest import counting_loop


def _programs():
    return [
        ("counting-loop", counting_loop(iterations=200)),
        ("compress", suite_program("compress", scale=1)),
        ("li", suite_program("li", scale=1)),
        ("dep-chain", stall_kernel("dep_chain", iterations=120)),
        ("daxpy", classic_kernel("daxpy", n=64)[0]),
    ]


PROGRAMS = _programs()


class _RetireLog(Probe):
    """Retired-path per-PC counts and conditional outcomes from a core."""

    def __init__(self):
        self.retired = {}
        self.taken = {}

    def on_retire(self, dyninst, cycle):
        pc = dyninst.pc
        self.retired[pc] = self.retired.get(pc, 0) + 1
        if dyninst.inst.is_conditional and dyninst.actual_taken:
            self.taken[pc] = self.taken.get(pc, 0) + 1


def _interpret(program):
    """Run *program* on the plain interpreter; return (interp, log)."""
    interp = Interpreter(program)
    log = _RetireLog.__new__(_RetireLog)
    log.retired = {}
    log.taken = {}
    while True:
        entry = interp.step()
        if entry is None:
            break
        log.retired[entry.pc] = log.retired.get(entry.pc, 0) + 1
        if entry.inst.is_conditional and entry.taken:
            log.taken[entry.pc] = log.taken.get(entry.pc, 0) + 1
    return interp, log


# ----------------------------------------------------------------------
# Hand-off property: the two engines retire identical architectural
# state, so hand-off points can never diverge silently.


class TestHandoffEquivalence:
    @pytest.mark.parametrize("name,program", PROGRAMS,
                             ids=[p[0] for p in PROGRAMS])
    def test_fast_forward_matches_detailed_to_halt(self, name, program):
        interp = Interpreter(program)
        warm = WarmState()
        fast_forward(interp, warm, 10**9)
        assert interp.state.halted

        core = OutOfOrderCore(program)
        log = _RetireLog()
        core.add_probe(log)
        core.run()

        assert core.retired == interp.retired
        assert core.architectural_registers() == interp.state.regs.snapshot()
        assert core.memory.snapshot() == interp.state.memory.snapshot()

        _, ref = _interpret(program)
        assert log.retired == ref.retired  # same retired-path PC counts
        assert log.taken == ref.taken  # same conditional outcomes

    @pytest.mark.parametrize("name,program", PROGRAMS,
                             ids=[p[0] for p in PROGRAMS])
    def test_alternating_handoff_matches_interpreter(self, name, program):
        """Arbitrary hand-off boundaries reproduce the reference run."""
        ref = Interpreter(program)
        ref.run_to_halt()

        interp = Interpreter(program)
        warm = WarmState()
        state = interp.state
        sizes = (137, 61, 333, 89, 210)
        index = 0
        while not state.halted:
            fast_forward(interp, warm, sizes[index % len(sizes)])
            index += 1
            if state.halted:
                break
            core = OutOfOrderCore(program, hierarchy=warm.hierarchy,
                                  predictor=warm.predictor, ghr=warm.ghr)
            core.inject_state(state.regs.snapshot(), state.memory, state.pc)
            core.run(max_retired=sizes[index % len(sizes)])
            index += 1
            state.regs.load(core.architectural_registers())
            state.pc = core.committed_pc
            state.halted = core.halted
            interp.retired += core.retired
            warm.note_redirect()

        assert interp.retired == ref.retired
        assert state.regs.snapshot() == ref.state.regs.snapshot()
        assert state.memory.snapshot() == ref.state.memory.snapshot()


# ----------------------------------------------------------------------
# Warm-state contract: fast_forward and the functional profiler drive
# the shared models identically (they share WarmState.observe).


class TestWarmContract:
    def test_fast_forward_warms_like_functional_profiler(self):
        program = suite_program("compress", scale=1)
        profiler = FunctionalProfiler(program)
        profiler.run()

        interp = Interpreter(program)
        warm = WarmState()
        fast_forward(interp, warm, 10**9)

        assert warm.signature() == profiler.warm.signature()

    def test_signature_covers_predictor_and_hierarchy(self):
        program = suite_program("compress", scale=1)
        interp = Interpreter(program)
        warm = WarmState()
        fast_forward(interp, warm, 10**9)
        cold = WarmState()
        assert warm.signature() != cold.signature()


# ----------------------------------------------------------------------
# Two-speed sessions: final state, accounting, and validation.


def _two_speed_spec(program, **overrides):
    kwargs = dict(program=program,
                  profile=ProfileMeConfig(mean_interval=500, seed=9),
                  exec_mode="two-speed", window=400, keep_records=False)
    kwargs.update(overrides)
    return SessionSpec(**kwargs)


class TestTwoSpeedSession:
    def test_final_state_matches_reference_interpreter(self):
        program = suite_program("compress", scale=1)
        result = run_session(_two_speed_spec(program))
        ref = Interpreter(program)
        ref.run_to_halt()

        final = result.two_speed.final_state
        assert final.halted
        assert final.regs == ref.state.regs.snapshot()
        assert final.memory == ref.state.memory.snapshot()
        assert result.stats.retired == ref.retired

    @pytest.mark.parametrize("name", ["compress", "li", "go"])
    def test_truncated_run_matches_interpreter_exactly(self, name):
        # A max_retired cut lands mid-program; the committed state must
        # still equal the interpreter's after the same retired count.
        program = suite_program(name, scale=4)
        result = run_session(_two_speed_spec(
            program, profile=ProfileMeConfig(mean_interval=61, seed=13),
            window=300, max_retired=25_000))
        ref = Interpreter(program)
        for _ in ref.run(max_instructions=result.stats.retired):
            pass
        reference = ref.state.snapshot()

        final = result.two_speed.final_state
        assert not final.halted
        assert final.regs == reference.regs
        assert final.pc == reference.pc
        assert final.memory == reference.memory

    def test_accounting_is_consistent(self):
        program = suite_program("compress", scale=1)
        result = run_session(_two_speed_spec(program))
        stats = result.two_speed
        assert stats.windows > 0
        assert stats.fast_forwarded > 0
        assert stats.fast_forwarded + stats.detailed_retired \
            == result.stats.retired
        assert 0.0 < stats.detailed_fraction < 1.0
        assert result.cycles == stats.detailed_cycles
        assert stats.warmup == 400 // 4
        # The only clock is the detailed one.
        assert result.stats.ipc == pytest.approx(
            stats.detailed_retired / stats.detailed_cycles)

    def test_two_speed_is_deterministic(self):
        program = suite_program("compress", scale=1)
        a = run_session(_two_speed_spec(program))
        b = run_session(_two_speed_spec(program))
        assert a.database.to_dict() == b.database.to_dict()
        assert a.sampling_stats == b.sampling_stats

    def test_max_retired_bounds_the_run(self):
        program = suite_program("compress", scale=1)
        result = run_session(_two_speed_spec(program, max_retired=3000))
        # A window may overshoot by at most the retire width.
        assert result.stats.retired >= 3000
        assert result.stats.retired < 3000 + 400

    def test_sampling_stats_account_for_skipped_points(self):
        program = suite_program("compress", scale=1)
        spec = _two_speed_spec(
            program, profile=ProfileMeConfig(mean_interval=100, seed=9),
            window=400)
        result = run_session(spec)
        stats = result.two_speed
        # S << window forces sample points inside already-run windows.
        assert stats.skipped_samples > 0
        assert result.sampling_stats.dropped_busy >= stats.skipped_samples
        # Every dropped draw was still a selection of the free-running
        # counter.
        assert (result.sampling_stats.selections
                >= result.sampling_stats.dropped_busy)

    def test_validation_rejects_bad_two_speed_specs(self):
        program = counting_loop(iterations=20)
        profile = ProfileMeConfig(mean_interval=50, seed=1)
        with pytest.raises(ConfigError):
            SessionSpec(program=program, profile=profile,
                        exec_mode="two-speed", core_kind="inorder")
        with pytest.raises(ConfigError):
            SessionSpec(program=program, exec_mode="two-speed")
        with pytest.raises(ConfigError):
            SessionSpec(program=program, profile=profile,
                        exec_mode="two-speed", window=2)
        with pytest.raises(ConfigError):
            SessionSpec(program=program, profile=profile,
                        exec_mode="two-speed", max_cycles=1000)
        with pytest.raises(ConfigError):
            SessionSpec(program=program, profile=profile,
                        exec_mode="two-speed", collect_truth=True)
        with pytest.raises(ConfigError):
            SessionSpec(program=program, profile=profile,
                        exec_mode="unheard-of")


# ----------------------------------------------------------------------
# Estimate fidelity: two-speed samples against a full detailed run at
# the same sampling configuration (the Figure 3 envelope).


@pytest.fixture(scope="module")
def fidelity_runs():
    program = suite_program("compress", scale=2)
    profile = ProfileMeConfig(mean_interval=500, seed=11)
    two_speed = run_session(SessionSpec(
        program=program, profile=profile, exec_mode="two-speed",
        window=400, keep_records=False))
    detailed = run_session(SessionSpec(
        program=program, profile=profile, keep_records=False,
        collect_truth=True))
    return two_speed, detailed


@pytest.fixture(scope="module")
def miss_runs():
    # 16K nodes = 128KB of chase footprint: enough D-cache misses that
    # the sampled miss *rate* is statistically meaningful on both sides.
    program = classic_kernel("pointer_chase", nodes=16384, hops=25000)[0]
    profile = ProfileMeConfig(mean_interval=300, seed=11)
    two_speed = run_session(SessionSpec(
        program=program, profile=profile, exec_mode="two-speed",
        window=200, keep_records=False))
    detailed = run_session(SessionSpec(
        program=program, profile=profile, keep_records=False))
    return two_speed, detailed


class TestEstimateFidelity:
    def test_per_pc_retire_estimates_within_envelope(self, fidelity_runs):
        two_speed, detailed = fidelity_runs
        truth = detailed.truth.per_pc
        pairs = []
        for pc, profile in two_speed.database.per_pc.items():
            if profile.samples < 4 or pc not in truth:
                continue
            pairs.append((profile.samples * 500, truth[pc].fetched,
                          profile.samples))
        assert len(pairs) >= 5
        # Windowed placement adds bias on top of sampling noise, so ask
        # for half inside the 1-sigma envelope rather than Figure 3's
        # two thirds.
        assert ratio_within_envelope(pairs) >= 0.5

    def test_cache_miss_rates_agree(self, miss_runs):
        two_speed, detailed = miss_runs

        def miss_fraction(database):
            misses = sum(p.event_count(Event.DCACHE_MISS)
                         for p in database.per_pc.values())
            return misses / database.total_samples

        fast = miss_fraction(two_speed.database)
        slow = miss_fraction(detailed.database)
        assert slow > 0
        assert 0.4 < fast / slow < 2.5

    def test_mean_latency_registers_agree(self, fidelity_runs):
        two_speed, detailed = fidelity_runs

        def mean_latency(database, name):
            total = count = 0
            for profile in database.per_pc.values():
                aggregate = profile.latencies.get(name)
                if aggregate is not None:
                    total += aggregate.total
                    count += aggregate.count
            return total / count if count else None

        for name in ("fetch_to_map", "issue_to_retire_ready"):
            fast = mean_latency(two_speed.database, name)
            slow = mean_latency(detailed.database, name)
            assert fast is not None and slow is not None
            assert 0.4 < fast / slow < 2.5

    def test_total_sample_volume_is_comparable(self, fidelity_runs):
        two_speed, detailed = fidelity_runs
        selected_fast = two_speed.sampling_stats.selections
        selected_slow = detailed.unit.stats.selections
        assert selected_fast > 20
        assert 0.5 < selected_fast / selected_slow < 2.0


# ----------------------------------------------------------------------
# One-shot unit mode (auto_rearm=False) used by the window scheduler.


class TestOneShotUnit:
    def test_one_shot_fires_exactly_once(self):
        program = suite_program("compress", scale=1)
        delivered = []
        unit = ProfileMeUnit(ProfileMeConfig(mean_interval=50, seed=2),
                             handler=delivered.extend, auto_rearm=False)
        core = OutOfOrderCore(program)
        core.add_probe(unit)
        unit.arm_major_at(25)
        core.run(max_retired=2000)
        unit.finalize()
        assert unit.stats.selections == 1
        assert len(delivered) == 1

    def test_auto_rearm_default_still_resamples(self):
        program = suite_program("compress", scale=1)
        unit = ProfileMeUnit(ProfileMeConfig(mean_interval=50, seed=2),
                             handler=lambda batch: None)
        core = OutOfOrderCore(program)
        core.add_probe(unit)
        core.run(max_retired=2000)
        unit.finalize()
        assert unit.stats.selections > 5

"""Tests for time-multiplexed event counters."""

import pytest

from repro.counters.counter import CounterEvent
from repro.counters.multiplex import MultiplexConfig, MultiplexedCounters
from repro.cpu.ooo.core import OutOfOrderCore
from repro.errors import ConfigError
from repro.isa.builder import ProgramBuilder

from tests.conftest import counting_loop


def phased_program(phase_a_iters=400, phase_b_iters=400):
    """Phase A: D-cache-miss heavy; phase B: mispredict heavy.

    The event kinds are anti-correlated in time — the worst case for
    multiplexing, the trivial case for ProfileMe.
    """
    b = ProgramBuilder(name="phased")
    b.alloc("arr", 65536)
    b.begin_function("main")
    # Phase A: strided loads (misses, no mispredicts).
    b.ldi(1, phase_a_iters)
    b.li_addr(2, "arr")
    b.label("phase_a")
    b.ld(4, 2, 0)
    b.lda(2, 2, 64)
    b.lda(1, 1, -1)
    b.bne(1, "phase_a")
    # Phase B: LCG-random branches (mispredicts, no memory traffic).
    b.ldi(1, phase_b_iters)
    b.ldi(16, 777)
    b.ldi(27, 6364136223846793005)
    b.ldi(28, 1442695040888963407)
    b.label("phase_b")
    b.mul(16, 16, 27)
    b.add(16, 16, 28)
    b.srl(4, 16, 33)
    b.ldi(5, 1)
    b.and_(4, 4, 5)
    b.beq(4, "b_skip")
    b.lda(6, 6, 1)
    b.label("b_skip")
    b.lda(1, 1, -1)
    b.bne(1, "phase_b")
    b.halt()
    b.end_function()
    return b.build(entry="main")


EVENTS = (CounterEvent.DCACHE_MISS, CounterEvent.BRANCH_MISPREDICT,
          CounterEvent.DCACHE_REF, CounterEvent.RETIRED_INST)


def run_multiplexed(program, rotation=500, physical=1):
    core = OutOfOrderCore(program)
    counters = core.add_probe(MultiplexedCounters(MultiplexConfig(
        events=EVENTS, physical_counters=physical,
        rotation_cycles=rotation)))
    core.run()
    return core, counters


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MultiplexConfig(events=())
        with pytest.raises(ConfigError):
            MultiplexConfig(events=EVENTS, physical_counters=0)
        with pytest.raises(ConfigError):
            MultiplexConfig(events=(CounterEvent.DCACHE_REF,) * 2)

    def test_fully_covered(self):
        assert MultiplexConfig(events=EVENTS,
                               physical_counters=4).fully_covered
        assert not MultiplexConfig(events=EVENTS,
                                   physical_counters=2).fully_covered


class TestCounting:
    def test_fully_covered_counts_exactly(self):
        program = counting_loop(iterations=600)
        core, counters = run_multiplexed(program, physical=len(EVENTS))
        assert (counters.counts[CounterEvent.RETIRED_INST]
                == core.retired)
        assert (counters.estimate(CounterEvent.RETIRED_INST)
                == core.retired)

    def test_duty_cycles_split_fairly(self):
        program = counting_loop(iterations=2000)
        _, counters = run_multiplexed(program, rotation=100, physical=1)
        fractions = [counters.active_cycles[e] / counters.total_cycles
                     for e in EVENTS]
        for fraction in fractions:
            assert 0.1 < fraction < 0.5  # ~1/4 each

    def test_stationary_event_estimated_well(self):
        # Retired instructions flow steadily: multiplexing works fine.
        program = counting_loop(iterations=4000)
        core, counters = run_multiplexed(program, rotation=100, physical=1)
        estimate = counters.estimate(CounterEvent.RETIRED_INST)
        assert abs(estimate / core.retired - 1.0) < 0.25

    def test_phased_events_misestimated(self):
        """The section 2.2 failure mode: phase-aliased rotation."""
        from repro.analysis.groundtruth import GroundTruthCollector
        from repro.events import Event

        program = phased_program()
        core = OutOfOrderCore(program)
        truth = core.add_probe(GroundTruthCollector())
        # Rotation so slow each event kind is watched in one long slice:
        # whichever slice misses phase A sees (almost) no D-misses.
        counters = core.add_probe(MultiplexedCounters(MultiplexConfig(
            events=EVENTS, physical_counters=1, rotation_cycles=4000)))
        core.run()

        true_misses = sum(t.count_event(Event.DCACHE_MISS)
                          for t in truth.per_pc.values())
        estimate = counters.estimate(CounterEvent.DCACHE_MISS)
        assert true_misses > 300
        error = abs(estimate / true_misses - 1.0)
        assert error > 0.5  # badly wrong on phased behaviour

    def test_profileme_handles_the_same_phases(self):
        """ProfileMe sees every event kind in one run, phases and all."""
        from repro.analysis.convergence import effective_interval
        from repro.events import Event
        from repro.engine.session import SessionSpec, run_session
        from repro.profileme.unit import ProfileMeConfig

        # Larger phases so the miss-sample count escapes small-k noise
        # (k ~ misses/S; 1/sqrt(k) needs k >= ~30 for a 30% bound), and
        # replicated register sets so the miss-heavy phase's long sample
        # flights don't cause correlated selection drops.
        program = phased_program(phase_a_iters=1500, phase_b_iters=1500)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=40,
                                    register_sets=4,
                                    seed=3),
            collect_truth=True))
        s_eff = effective_interval(run.truth.total_fetched,
                                   run.database.total_samples)
        true_misses = sum(t.count_event(Event.DCACHE_MISS)
                          for t in run.truth.per_pc.values())
        sampled = sum(p.event_count(Event.DCACHE_MISS)
                      for p in run.database.per_pc.values())
        estimate = sampled * s_eff
        assert abs(estimate / true_misses - 1.0) < 0.3

"""Section 2.2 baseline: counter multiplexing vs ProfileMe's event field.

"There are typically many more events of interest than there are hardware
counters" — so real tools rotate event selections through the counter
file and scale by duty cycle.  On *phased* programs the rotation aliases
with the phases and the scaled estimates go badly wrong; ProfileMe
records the complete event bit-field with every sample, so one run
estimates every event (with correlations) at once.

The benchmark runs a two-phase program (miss-heavy phase, then
mispredict-heavy phase) and compares per-event estimation error:
multiplexed counters at several rotation quanta vs ProfileMe sampling.
"""

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.convergence import effective_interval
from repro.analysis.reports import format_table
from repro.counters.counter import CounterEvent
from repro.counters.multiplex import MultiplexConfig, MultiplexedCounters
from repro.cpu.ooo.core import OutOfOrderCore
from repro.analysis.groundtruth import GroundTruthCollector
from repro.events import Event
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig

from tests.counters.test_multiplex import phased_program

EVENTS = (CounterEvent.DCACHE_MISS, CounterEvent.BRANCH_MISPREDICT,
          CounterEvent.DCACHE_REF, CounterEvent.RETIRED_INST)
TRUTH_FLAGS = {
    CounterEvent.DCACHE_MISS: Event.DCACHE_MISS,
    CounterEvent.BRANCH_MISPREDICT: Event.MISPREDICT,
}


def _truth_counts(truth):
    counts = {}
    for event_kind, flag in TRUTH_FLAGS.items():
        counts[event_kind] = sum(t.count_event(flag)
                                 for t in truth.per_pc.values())
    counts[CounterEvent.RETIRED_INST] = truth.total_retired
    return counts


def _experiment():
    scale = bench_scale()
    program = phased_program(phase_a_iters=1500 * scale,
                             phase_b_iters=1500 * scale)

    rows = []
    for rotation in (200, 1000, 5000):
        core = OutOfOrderCore(program)
        truth = core.add_probe(GroundTruthCollector())
        counters = core.add_probe(MultiplexedCounters(MultiplexConfig(
            events=EVENTS, physical_counters=1,
            rotation_cycles=rotation)))
        core.run()
        truth_counts = _truth_counts(truth)
        errors = {}
        for event_kind in TRUTH_FLAGS:
            true_value = truth_counts[event_kind]
            estimate = counters.estimate(event_kind)
            errors[event_kind] = abs(estimate / true_value - 1.0) \
                if true_value else 0.0
        rows.append(("multiplex@%d" % rotation, errors))

    run = run_session(SessionSpec(
        program=program,
        profile=ProfileMeConfig(mean_interval=40, register_sets=4, seed=3),
        collect_truth=True, keep_records=False))
    s_eff = effective_interval(run.truth.total_fetched,
                               run.database.total_samples)
    truth_counts = _truth_counts(run.truth)
    errors = {}
    for event_kind, flag in TRUTH_FLAGS.items():
        sampled = sum(p.event_count(flag)
                      for p in run.database.per_pc.values())
        true_value = truth_counts[event_kind]
        errors[event_kind] = abs(sampled * s_eff / true_value - 1.0) \
            if true_value else 0.0
    rows.append(("profileme", errors))
    return rows


def test_baseline_multiplexing(benchmark):
    rows = run_once(benchmark, _experiment)

    print("\n=== Section 2.2: event-estimation error on a phased "
          "program ===")
    print(format_table(
        ["method", "|err| dcache_miss", "|err| mispredict"],
        [[name,
          "%.2f" % errors[CounterEvent.DCACHE_MISS],
          "%.2f" % errors[CounterEvent.BRANCH_MISPREDICT]]
         for name, errors in rows]))

    by_name = dict(rows)
    profileme = by_name["profileme"]
    worst_mux = max(
        max(errors.values()) for name, errors in rows
        if name.startswith("multiplex"))
    best_profileme = max(profileme.values())
    # ProfileMe's worst event error beats the multiplexer's worst case
    # by a wide margin on phased behaviour.
    assert best_profileme < 0.35
    assert worst_mux > 2 * best_profileme

"""Ablation (section 4.1.1): instruction counting vs fetch opportunities.

The paper weighs two implementations of the Fetched Instruction Counter:
counting predicted-path instructions (every selection profiles a real
instruction, at some hardware cost) vs counting fetch opportunities
(simpler hardware, but selections may land on off-path instructions or
empty slots, "effectively reducing the useful sampling rate").

This benchmark quantifies that trade-off: the useful-sample yield of each
mode across workloads with different fetch behaviour.
"""

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, run_session
from repro.profileme.fetch_counter import CountMode
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

BENCHMARKS = ("compress", "gcc", "go", "vortex")


def _experiment():
    scale = bench_scale()
    results = {}
    for name in BENCHMARKS:
        program = suite_program(name, scale=scale)
        per_mode = {}
        for mode in (CountMode.INSTRUCTIONS, CountMode.FETCH_OPPORTUNITIES):
            run = run_session(SessionSpec(
                program=program,
                profile=ProfileMeConfig(mean_interval=60, mode=mode, seed=19),
                keep_records=False))
            per_mode[mode] = run.unit.stats
        results[name] = per_mode
    return results


def test_ablation_fetch_modes(benchmark):
    results = run_once(benchmark, _experiment)

    rows = []
    for name, per_mode in sorted(results.items()):
        inst = per_mode[CountMode.INSTRUCTIONS]
        opp = per_mode[CountMode.FETCH_OPPORTUNITIES]
        rows.append([
            name,
            "%.2f" % inst.useful_fraction,
            "%.2f" % opp.useful_fraction,
            opp.empty_selections,
            opp.offpath_selections,
        ])
    print("\n=== Ablation: useful-sample yield by counting mode ===")
    print(format_table(
        ["benchmark", "instr-mode yield", "opportunity-mode yield",
         "empty selections", "off-path selections"], rows))

    for name, per_mode in results.items():
        inst = per_mode[CountMode.INSTRUCTIONS]
        opp = per_mode[CountMode.FETCH_OPPORTUNITIES]
        # Instruction counting never wastes a selection.
        assert inst.useful_fraction == 1.0
        assert inst.empty_selections == 0
        # Opportunity counting always wastes some.
        assert opp.useful_fraction < 1.0
        assert opp.empty_selections + opp.offpath_selections > 0
        # ...but the yield is still the same order of magnitude (the
        # paper's motivation for considering the simpler hardware), with
        # the worst yields on fetch-stall-heavy workloads like vortex,
        # whose empty opportunities dominate.
        assert opp.useful_fraction > 0.1

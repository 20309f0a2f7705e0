"""Ablation (section 4.3): amortizing interrupt delivery with buffering.

"ProfileMe makes it possible to reduce this overhead by providing
additional hardware copies of profile registers and by buffering multiple
samples before delivering a performance interrupt."

The benchmark runs the same workload at a fixed sampling rate with an
expensive interrupt (fixed fetch-stall cost per delivery) while sweeping
the buffer depth, and reports interrupts taken, total overhead cycles,
and run-time dilation vs an unprofiled run.
"""

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, build_core, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

DEPTHS = (1, 2, 4, 8, 16)
INTERRUPT_COST = 60  # cycles of fetch stall per delivery


def _experiment():
    scale = bench_scale()
    program = suite_program("compress", scale=2 * scale)

    baseline = build_core(program)
    baseline_cycles = baseline.run()

    rows = []
    for depth in DEPTHS:
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=50, buffer_depth=depth,
                                    interrupt_cost_cycles=INTERRUPT_COST,
                                    seed=23),
            keep_records=False))
        stats = run.unit.stats
        rows.append({
            "depth": depth,
            "samples": stats.records_delivered,
            "interrupts": stats.interrupts,
            "overhead_cycles": stats.overhead_cycles,
            "cycles": run.cycles,
            "dilation": run.cycles / baseline_cycles,
        })
    return baseline_cycles, rows


def test_ablation_buffering(benchmark):
    baseline_cycles, rows = run_once(benchmark, _experiment)

    print("\n=== Ablation: interrupt amortization vs buffer depth "
          "(baseline %d cycles) ===" % baseline_cycles)
    print(format_table(
        ["buffer depth", "samples", "interrupts", "overhead cycles",
         "total cycles", "dilation"],
        [[r["depth"], r["samples"], r["interrupts"], r["overhead_cycles"],
          r["cycles"], "%.3f" % r["dilation"]] for r in rows]))

    by_depth = {r["depth"]: r for r in rows}
    # Deeper buffers take proportionally fewer interrupts...
    assert by_depth[16]["interrupts"] * 8 <= by_depth[1]["interrupts"]
    # ...for a comparable number of samples...
    assert (by_depth[16]["samples"]
            > 0.5 * by_depth[1]["samples"])
    # ...and materially less profiling overhead.
    assert (by_depth[16]["overhead_cycles"]
            < 0.25 * by_depth[1]["overhead_cycles"])
    assert by_depth[16]["dilation"] < by_depth[1]["dilation"]
    # Profiling with per-sample interrupts is visibly intrusive.
    assert by_depth[1]["dilation"] > 1.05

"""Ablation (sections 4, 5.1): sampling rate vs overhead and accuracy.

"The run-time profiling overhead may be decreased arbitrarily by reducing
the sampling rate" — at the cost of slower convergence (error grows like
sqrt(1/E[k])).  The benchmark sweeps the mean sampling interval S and
reports, for a fixed workload: profiling overhead (run-time dilation with
a fixed interrupt cost) and estimation error of per-PC retire counts.
"""

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.convergence import (convergence_points,
                                        effective_interval,
                                        retired_property)
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, build_core, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

INTERVALS = (100, 300, 1000, 3000)
INTERRUPT_COST = 60


def _experiment():
    scale = bench_scale()
    program = suite_program("compress", scale=4 * scale)

    baseline = build_core(program)
    baseline_cycles = baseline.run()

    rows = []
    for interval in INTERVALS:
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=interval,
                                    interrupt_cost_cycles=INTERRUPT_COST,
                                    seed=41),
            collect_truth=True, keep_records=False))
        s_eff = effective_interval(run.truth.total_fetched,
                                   run.database.total_samples)
        points = convergence_points(run.database, run.truth, s_eff,
                                    retired_property, min_actual=50)
        errors = [abs(p.ratio - 1.0) for p in points if p.ratio is not None]
        mean_error = sum(errors) / len(errors) if errors else float("nan")
        rows.append({
            "interval": interval,
            "samples": run.database.total_samples,
            "dilation": run.cycles / baseline_cycles,
            "mean_abs_error": mean_error,
        })
    return rows


def test_ablation_sampling_rate(benchmark):
    rows = run_once(benchmark, _experiment)

    print("\n=== Ablation: sampling interval vs overhead and accuracy ===")
    print(format_table(
        ["mean interval S", "samples", "run-time dilation",
         "mean |ratio-1| (hot pcs)"],
        [[r["interval"], r["samples"], "%.3f" % r["dilation"],
          "%.3f" % r["mean_abs_error"]] for r in rows]))

    by_interval = {r["interval"]: r for r in rows}
    # Overhead falls monotonically as sampling slows.
    dilations = [r["dilation"] for r in rows]
    assert all(a >= b - 0.005 for a, b in zip(dilations, dilations[1:]))
    assert by_interval[100]["dilation"] > by_interval[3000]["dilation"]
    # Accuracy degrades as sampling slows.
    assert (by_interval[3000]["mean_abs_error"]
            > by_interval[100]["mean_abs_error"])
    # Dense sampling estimates hot counts tightly.
    assert by_interval[100]["mean_abs_error"] < 0.3

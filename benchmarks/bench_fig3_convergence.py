"""Figure 3: convergence of sampled estimates to exact counts.

The paper samples SPECint95 traces and plots per-static-instruction
estimate/actual ratios against the number of samples, for two properties:
retire counts (left column) and D-cache miss counts (right column).  The
ratios converge inside the ``1 +- 1/sqrt(k)`` envelope, with roughly two
thirds of the points inside.

Scaling (DESIGN.md): traces are 10^5-10^6 instructions with S scaled so
that the expected samples-per-instruction matches the regimes the paper
plots; convergence depends only on E[k].
"""

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.convergence import (convergence_points,
                                        dcache_miss_property,
                                        effective_interval,
                                        envelope_fraction, retired_property,
                                        summarize)
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

BENCHMARKS = ("compress", "vortex")  # vortex supplies the D-miss column


def _experiment():
    scale = bench_scale()
    all_points = {"retired": [], "dcache_miss": []}
    for name in BENCHMARKS:
        program = suite_program(name, scale=6 * scale)
        # S=120 with +-50% uniform jitter: the minimum interval exceeds
        # the typical sample flight time, so no selections are dropped
        # and the average interval is exactly S (see unit.py on drops).
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=120, seed=17),
            collect_truth=True, keep_records=False))
        s_eff = effective_interval(run.truth.total_fetched,
                                   run.database.total_samples)
        all_points["retired"].extend(convergence_points(
            run.database, run.truth, s_eff, retired_property))
        all_points["dcache_miss"].extend(convergence_points(
            run.database, run.truth, s_eff, dcache_miss_property,
            min_actual=5))
    return all_points


def test_fig3_convergence(benchmark):
    all_points = run_once(benchmark, _experiment)

    for prop, points in all_points.items():
        print("\n=== Figure 3 (%s): estimate/actual ratio vs samples ==="
              % prop)
        rows = [[row["k_low"], row["k_high"], row["points"],
                 "%.3f" % row["mean_abs_error"],
                 "%.3f" % row["predicted_error"],
                 "%.2f" % row["envelope_fraction"]]
                for row in summarize(points)]
        print(format_table(
            ["k >=", "k <", "points", "mean|ratio-1|", "1/sqrt(k)",
             "in envelope"], rows))
        print("overall envelope fraction: %.2f (expect ~2/3)"
              % envelope_fraction(points))

    retired = all_points["retired"]
    assert len(retired) > 50
    # Convergence: hot instructions are estimated within a few sigma
    # (loop-period correlation of uniform intervals inflates the
    # per-PC variance somewhat beyond the Bernoulli envelope).
    hot = [p for p in retired if p.matching_samples >= 40]
    assert hot
    for p in hot:
        assert abs(p.ratio - 1.0) < 0.5
    # Error shrinks with k like 1/sqrt(k).
    rows = summarize(retired, buckets=(1, 16, 10 ** 9))
    if len(rows) == 2:
        assert rows[1]["mean_abs_error"] < rows[0]["mean_abs_error"]
    # A healthy share of points inside the one-sigma envelope (paper:
    # about two thirds).
    assert envelope_fraction(retired) > 0.45
    # The D-cache-miss property converges too (fewer matching samples,
    # so just require the hot ones to be in the right ballpark).
    misses = all_points["dcache_miss"]
    hot_misses = [p for p in misses if p.matching_samples >= 64]
    for p in hot_misses:
        assert abs(p.ratio - 1.0) < 0.5

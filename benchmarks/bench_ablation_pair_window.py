"""Ablation (section 5.2.1): sizing the paired-sampling window W.

"The window size is conservatively chosen to include any pair of
instructions that may be simultaneously in flight."

Sweeping W on the Figure 7 workload shows why: with W far below the
machine's in-flight capacity, pairs that would have exhibited useful
overlap are never sampled beyond W, and the wasted-slot estimator loses
accuracy vs the simulator's exact count; once W covers the in-flight
window, growing it further mostly just dilutes the pair budget.
"""

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.bottlenecks import instruction_metrics
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import fig7_three_loops

WINDOWS = (8, 32, 96, 192)


def _experiment():
    scale = bench_scale()
    program, regions = fig7_three_loops(iterations=500 * scale)
    rows = []
    for window in WINDOWS:
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=60, paired=True,
                                    pair_window=window, seed=37),
            collect_truth=True,
            truth_options={"collect_intervals": True,
                           "collect_issue_series": True}))
        analyzer = run.pair_analyzer
        pair_interval = (run.truth.total_fetched
                         / max(1, analyzer.pairs_usable))
        analyzer.mean_interval = pair_interval
        metrics = instruction_metrics(run.database, pair_interval / 2.0,
                                      pair_analyzer=analyzer)

        # Accuracy of the waste estimate on the serial loop (where waste
        # is large and the exact value is stable).
        start, end = regions["serial"]
        estimated = sum(m.wasted_slots for m in metrics
                        if start <= m.pc < end
                        and m.wasted_slots is not None)
        exact = sum(run.truth.wasted_issue_slots(
            pc, run.core.config.issue_width)
            for pc in run.truth.per_pc if start <= pc < end)
        overlaps = sum(s.useful_overlaps
                       for s in analyzer.per_pc.values())
        rows.append({
            "window": window,
            "pairs": analyzer.pairs_usable,
            "useful_overlaps": overlaps,
            "estimated_waste": estimated,
            "exact_waste": exact,
            "ratio": estimated / exact if exact else float("nan"),
        })
    return rows


def test_ablation_pair_window(benchmark):
    rows = run_once(benchmark, _experiment)

    print("\n=== Ablation: wasted-slot estimate vs pair window W "
          "(serial loop) ===")
    print(format_table(
        ["W", "usable pairs", "useful overlaps", "estimated waste",
         "exact waste", "est/exact"],
        [[r["window"], r["pairs"], r["useful_overlaps"],
          "%.0f" % r["estimated_waste"], r["exact_waste"],
          "%.2f" % r["ratio"]] for r in rows]))

    by_window = {r["window"]: r for r in rows}
    # Every configuration produces usable pairs.
    assert all(r["pairs"] > 50 for r in rows)
    # The conservative window (>= max in-flight, here 96) estimates the
    # serial loop's waste within a factor of two.
    assert 0.5 < by_window[96]["ratio"] < 2.0
    # Tiny windows see overlap only among immediately-adjacent
    # instructions; per-overlap weight W*S shrinks accordingly, and the
    # estimate stays in the same ballpark only because the serial loop
    # has so little useful overlap to miss.  The estimator must not
    # collapse entirely anywhere:
    assert all(r["ratio"] > 0.2 for r in rows)

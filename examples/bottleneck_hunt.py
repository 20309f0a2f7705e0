"""Bottleneck hunting with paired sampling (sections 5.2 and 6).

Runs the Figure 7 three-loop program with paired sampling, then ranks
instructions two ways — by estimated total latency (available from plain
instruction sampling) and by estimated wasted issue slots (needs paired
sampling) — and shows how the rankings diverge, with Table 1 diagnoses
for the top offenders.

Run:  python examples/bottleneck_hunt.py
"""

from repro.analysis.bottlenecks import (instruction_metrics, rank_agreement,
                                        top_bottlenecks)
from repro.analysis.reports import bottleneck_report
from repro.engine.session import SessionSpec, run_session
from repro.profileme import ProfileMeConfig
from repro.workloads import fig7_three_loops


def region_name(regions, pc):
    for name, (start, end) in regions.items():
        if start <= pc < end:
            return name
    return "-"


def main():
    program, regions = fig7_three_loops(iterations=800)
    run = run_session(SessionSpec(
        program=program,
        profile=ProfileMeConfig(mean_interval=60, paired=True,
                                pair_window=96, seed=2),
        collect_truth=True))

    analyzer = run.pair_analyzer
    # Calibrate with the measured pair rate (see benchmarks/).
    analyzer.mean_interval = (run.truth.total_fetched
                              / max(1, analyzer.pairs_usable))
    metrics = instruction_metrics(run.database,
                                  analyzer.mean_interval / 2.0,
                                  pair_analyzer=analyzer)

    print("Usable sample pairs: %d\n" % analyzer.pairs_usable)

    print("Rank by TOTAL LATENCY (single-instruction sampling):")
    for metric in top_bottlenecks(metrics, key="total_latency", limit=5):
        print("  %-8s %#06x %-20s latency=%.0f"
              % (region_name(regions, metric.pc), metric.pc,
                 program.fetch(metric.pc).disassemble(),
                 metric.total_latency))

    print("\nRank by WASTED ISSUE SLOTS (paired sampling):")
    for metric in top_bottlenecks(metrics, key="wasted_slots", limit=5):
        print("  %-8s %#06x %-20s wasted=%.0f"
              % (region_name(regions, metric.pc), metric.pc,
                 program.fetch(metric.pc).disassemble(),
                 metric.wasted_slots))

    pearson_r, spearman_r = rank_agreement(metrics)
    print("\nAgreement between the two rankings: pearson=%.2f "
          "spearman=%.2f" % (pearson_r, spearman_r))
    print("(Section 6: latency alone does not pinpoint bottlenecks when "
          "concurrency varies.)\n")

    print(bottleneck_report(metrics, run.database, program=program,
                            limit=4))


if __name__ == "__main__":
    main()

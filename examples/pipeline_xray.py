"""Pipeline X-ray: statistical state reconstruction from paired samples.

Section 5.2 suggests paired samples could "statistically reconstruct
detailed processor pipeline states".  This example does it: it profiles
the Figure 7 three-loop program with 4-way sampling, estimates the
probability of finding a concurrent instruction in each pipeline stage
around a typical instruction, and then runs the section 5.2.4 clustering
suggestion — comparing useful concurrency when loads hit vs miss the
D-cache.

Run:  python examples/pipeline_xray.py
"""

from repro.analysis.pipeline_state import (PipelineStateEstimator,
                                           conditional_concurrency,
                                           memory_shadow_overlap)
from repro.engine.session import SessionSpec, run_session
from repro.profileme import ProfileMeConfig
from repro.workloads import fig7_three_loops

BAR = 40


def render_series(label, series, step=4):
    cells = []
    for index in range(0, len(series), step):
        window = series[index:index + step]
        value = sum(window) / len(window)
        cells.append("#" if value > 0.5 else
                     "+" if value > 0.2 else
                     "." if value > 0.05 else " ")
    print("  %-15s |%s|" % (label, "".join(cells)))


def main():
    program, regions = fig7_three_loops(iterations=400)
    run = run_session(SessionSpec(
        program=program,
        profile=ProfileMeConfig(mean_interval=40, group_size=4,
                                pair_window=12, seed=13)))
    print("Collected %d four-way sample groups (%d member pairs).\n"
          % (len(run.driver.groups), run.pair_analyzer.pairs_usable))

    estimator = PipelineStateEstimator(max_offset=64)
    for sample in run.driver.groups:
        estimator.add(sample)

    profile = estimator.profile()
    print("Probability of finding a concurrent instruction in each stage,")
    print("by cycle offset after a random instruction's fetch "
          "(each cell = 4 cycles):")
    for stage in ("frontend", "queue", "execute", "waiting_retire"):
        render_series(stage, profile[stage])
    print()
    for stage in ("frontend", "queue", "execute", "waiting_retire"):
        print("  mean %-15s occupancy: %.2f"
              % (stage, estimator.mean_occupancy(stage)))

    # Section 5.2.4's clustering example: concurrency when loads hit vs
    # miss, using the load's *memory shadow* (its outstanding fill) as
    # the overlap window.
    buckets = conditional_concurrency(run.driver.groups,
                                      overlap=memory_shadow_overlap)
    print("\nUseful work issued under the load's memory shadow:")
    for key in sorted(buckets):
        split = buckets[key]
        print("  D-cache %-5s anchors=%4d shadow-overlap rate=%.2f"
              % (key, split.anchors, split.rate))
    if "miss" in buckets and "hit" in buckets:
        print("(a missing load's long shadow is where useful overlap "
              "comes from -- or fails to)")


if __name__ == "__main__":
    main()

"""Memory-behaviour analysis from sampled effective addresses (section 7).

Profiles the vortex-like workload (large footprint, random access) with
address retention enabled and produces the section 7 memory feedback:

* load classification (Abraham & Rau): always-hit / always-miss /
  bimodal loads, for scheduling and prefetch decisions;
* per-page miss reports (the CML-buffer equivalent) for page recoloring;
* superpage candidates from DTB-miss runs.

Run:  python examples/cache_hotspots.py
"""

from repro.analysis.optimize import (classify_loads, page_reports,
                                     superpage_candidates)
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, run_session
from repro.profileme import ProfileMeConfig
from repro.workloads import suite_program


def main():
    program = suite_program("vortex", scale=2)
    print("Profiling %r (%d static instructions) with address "
          "retention..." % (program.name, len(program)))
    run = run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=40, seed=5),
        keep_addresses=64))
    print("Collected %d samples over %d cycles.\n"
          % (run.driver.delivered, run.cycles))

    classes = classify_loads(run.database, min_samples=5)
    rows = [["%#06x" % c.pc, c.category, c.samples,
             "%.0f%%" % (100 * c.miss_fraction),
             "%.1f" % c.mean_latency]
            for c in classes[:8]]
    print(format_table(
        ["load pc", "class", "samples", "miss rate", "mean latency"],
        rows, title="Load classification (Abraham & Rau)"))

    print()
    reports = page_reports(run.database)
    rows = [["%#x" % (r.page * 8192), r.references, r.dcache_misses,
             r.dtb_misses] for r in reports[:8]]
    print(format_table(
        ["page", "sampled refs", "D-miss samples", "DTB-miss samples"],
        rows, title="Hot pages (CML-buffer equivalent)"))

    print()
    candidates = superpage_candidates(reports, min_run=2)
    if candidates:
        for first_page, count, misses in candidates[:4]:
            print("superpage candidate: %d contiguous pages at %#x "
                  "(%d DTB-miss samples)"
                  % (count, first_page * 8192, misses))
    else:
        print("no contiguous DTB-miss page runs found")


if __name__ == "__main__":
    main()

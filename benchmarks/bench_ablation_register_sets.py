"""Ablation (sections 4.1.2 / 4.3): N-way sampling and register sets.

Two extensions the paper sketches but does not evaluate:

* **Replicated register sets** — with one register set, selections that
  land while a sample is in flight are dropped, thinning aggressive
  sampling rates and biasing them toward fast-flight code regions.
  Replication lets groups overlap; the benchmark measures drop rate and
  estimation bias vs the number of sets at an aggressive interval.
* **N-way sampling** — an N-member group yields N(N-1)/2 concurrent
  pairs per interrupt; the benchmark measures pairs obtained per
  interrupt (the §4.3 cost that matters) at equal sampling rates.
"""

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.convergence import (convergence_points,
                                        effective_interval,
                                        retired_property)
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program


def _register_set_sweep(scale):
    program = suite_program("compress", scale=2 * scale)
    rows = []
    for sets in (1, 2, 4, 8):
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=25, register_sets=sets,
                                    seed=43),
            collect_truth=True, keep_records=False))
        stats = run.unit.stats
        s_eff = effective_interval(run.truth.total_fetched,
                                   run.database.total_samples)
        points = convergence_points(run.database, run.truth, s_eff,
                                    retired_property, min_actual=100)
        errors = [abs(p.ratio - 1.0) for p in points]
        rows.append({
            "sets": sets,
            "drop_rate": stats.dropped_busy / max(1, stats.selections),
            "samples": stats.records_delivered,
            "concurrent": stats.max_concurrent_groups,
            "mean_error": sum(errors) / len(errors) if errors else 0.0,
        })
    return rows


def _nway_sweep(scale):
    program = suite_program("go", scale=scale)
    rows = []
    for size in (2, 3, 4):
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=60, group_size=size,
                                    pair_window=32, seed=47),
            keep_records=False))
        analyzer = run.pair_analyzer
        interrupts = run.unit.stats.interrupts
        rows.append({
            "group_size": size,
            "interrupts": interrupts,
            "usable_pairs": analyzer.pairs_usable,
            "pairs_per_interrupt": analyzer.pairs_usable / max(1, interrupts),
        })
    return rows


def test_ablation_register_sets_and_nway(benchmark):
    scale = bench_scale()
    sets_rows, nway_rows = run_once(
        benchmark, lambda: (_register_set_sweep(scale), _nway_sweep(scale)))

    print("\n=== Ablation: replicated register sets at S=25 ===")
    print(format_table(
        ["register sets", "drop rate", "samples", "max concurrent",
         "mean |ratio-1| (hot)"],
        [[r["sets"], "%.2f" % r["drop_rate"], r["samples"], r["concurrent"],
          "%.3f" % r["mean_error"]] for r in sets_rows]))

    print("\n=== Ablation: N-way sampling pair yield ===")
    print(format_table(
        ["group size", "interrupts", "usable pairs", "pairs/interrupt"],
        [[r["group_size"], r["interrupts"], r["usable_pairs"],
          "%.2f" % r["pairs_per_interrupt"]] for r in nway_rows]))

    by_sets = {r["sets"]: r for r in sets_rows}
    assert by_sets[1]["drop_rate"] > 0.2
    assert by_sets[8]["drop_rate"] < 0.3 * by_sets[1]["drop_rate"]
    assert by_sets[8]["samples"] > 1.3 * by_sets[1]["samples"]

    by_size = {r["group_size"]: r for r in nway_rows}
    # Pair yield per interrupt grows superlinearly with N (C(N,2)).
    assert (by_size[4]["pairs_per_interrupt"]
            > 2.0 * by_size[2]["pairs_per_interrupt"])

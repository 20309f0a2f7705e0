"""Continuous profiling: merge profiles across runs (DCPI-style).

The paper's software sibling, DCPI, runs continuously and accumulates
samples across many executions.  This example profiles the same workload
several times (different sampling seeds standing in for separate
production runs), persists each profile, merges them, and shows the
estimator error shrinking like 1/sqrt(samples) as profiles accumulate —
the practical payoff of cheap always-on sampling.

Run:  python examples/continuous_profiling.py
"""

import os
import tempfile

from repro.analysis.convergence import (convergence_points,
                                        effective_interval,
                                        retired_property)
from repro.analysis.database import ProfileDatabase
from repro.analysis.persistence import load_database, save_database
from repro.engine.session import SessionSpec, run_session
from repro.profileme import ProfileMeConfig
from repro.workloads import suite_program

RUNS = 6
INTERVAL = 300


def main():
    program = suite_program("compress", scale=2)

    merged = ProfileDatabase()
    truth = None
    total_fetched = 0
    with tempfile.TemporaryDirectory(prefix="repro-profiles-") as workdir:
        print("Profiling %r %d times (S=%d), profiles in %s\n"
              % (program.name, RUNS, INTERVAL, workdir))

        for run_index in range(RUNS):
            run = run_session(SessionSpec(
                program=program,
                profile=ProfileMeConfig(mean_interval=INTERVAL,
                                        seed=100 + run_index),
                collect_truth=True, keep_records=False))
            truth = run.truth  # identical every run (same program)
            total_fetched += run.truth.total_fetched

            path = os.path.join(workdir, "run%d.json" % run_index)
            save_database(run.database, path)
            merged.merge(load_database(path))

            s_eff = effective_interval(total_fetched, merged.total_samples)
            points = convergence_points(merged, truth, s_eff / (run_index + 1),
                                        retired_property, min_actual=100)
            errors = sorted(abs(p.ratio - 1.0) for p in points)
            mean_error = sum(errors) / len(errors)
            print("after run %d: %5d samples, mean |ratio-1| = %.3f "
                  "(median %.3f)"
                  % (run_index + 1, merged.total_samples, mean_error,
                     errors[len(errors) // 2]))

    print("\nEstimates sharpen as profiles accumulate — no instrumentation,")
    print("no recompilation, just merged sample databases.")


if __name__ == "__main__":
    main()

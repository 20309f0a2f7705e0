"""Section 5.1: the stochastic error model of the k*S estimator.

Monte-Carlo validation of the paper's analysis (credited to Broder and
Mitzenmacher): for sampling interval S over N fetched instructions of
which a fraction f have property P,

    E[kS] = f * N           (the estimator is unbiased)
    cv(kS) = sqrt(1/N) * sqrt((S - f) / f) ~= sqrt(1 / E[k])

The benchmark sweeps f and S, prints predicted vs observed cv, and
asserts agreement — first against a pure Bernoulli sampler (the model's
own assumptions), then against the actual ProfileMe hardware model
running a synthetic workload.
"""

import math
import random

from benchmarks.conftest import bench_scale, run_once
from repro.analysis.estimators import (approx_coefficient_of_variation,
                                       coefficient_of_variation)
from repro.analysis.reports import format_table
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

POPULATION = 200_000
TRIALS = 200


def _monte_carlo():
    rng = random.Random(11)
    rows = []
    for fraction in (0.002, 0.01, 0.05, 0.2):
        for interval in (50, 200):
            estimates = []
            draws = POPULATION // interval
            for _ in range(TRIALS):
                k = sum(1 for _ in range(draws)
                        if rng.random() < fraction)
                estimates.append(k * interval)
            mean = sum(estimates) / TRIALS
            var = (sum((e - mean) ** 2 for e in estimates)
                   / (TRIALS - 1))
            observed_cv = math.sqrt(var) / mean if mean else 0.0
            predicted = coefficient_of_variation(POPULATION, interval,
                                                 fraction)
            approx = approx_coefficient_of_variation(
                fraction * POPULATION / interval)
            truth = fraction * POPULATION
            rows.append((fraction, interval, mean / truth, observed_cv,
                         predicted, approx))
    return rows


def _hardware_check():
    """cv of repeated ProfileMe runs on one workload, vs prediction."""
    program = suite_program("compress", scale=bench_scale())
    interval = 100
    estimates = []
    truth_retired = None
    for seed in range(12):
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=interval, seed=seed),
            collect_truth=True, keep_records=False))
        from repro.events import Event

        k = sum(p.event_count(Event.RETIRED)
                for p in run.database.per_pc.values())
        estimates.append(k * interval)
        truth_retired = run.truth.total_retired
        total_fetched = run.truth.total_fetched
    mean = sum(estimates) / len(estimates)
    var = sum((e - mean) ** 2 for e in estimates) / (len(estimates) - 1)
    observed_cv = math.sqrt(var) / mean
    fraction = truth_retired / total_fetched
    predicted = coefficient_of_variation(total_fetched, interval, fraction)
    return mean, truth_retired, observed_cv, predicted


def test_sec51_estimator_error(benchmark):
    rows, hardware = run_once(
        benchmark, lambda: (_monte_carlo(), _hardware_check()))

    print("\n=== Section 5.1: predicted vs observed estimator error ===")
    table = [["%.3f" % f, s, "%.3f" % bias, "%.4f" % obs, "%.4f" % pred,
              "%.4f" % approx]
             for f, s, bias, obs, pred, approx in rows]
    print(format_table(["f", "S", "E[kS]/fN", "observed cv",
                        "exact cv", "sqrt(1/E[k])"], table))

    for fraction, interval, bias, observed, predicted, approx in rows:
        assert abs(bias - 1.0) < 0.05  # unbiased
        assert abs(observed / predicted - 1.0) < 0.35
        assert abs(approx / predicted - 1.0) < 0.05  # S >> f regime

    mean, truth, observed_cv, predicted = hardware
    print("\nProfileMe hardware, retired-count estimate over 12 seeds: "
          "mean=%.0f truth=%d observed cv=%.4f predicted cv=%.4f"
          % (mean, truth, observed_cv, predicted))
    assert abs(mean / truth - 1.0) < 0.05
    # Whole-program sample counts are near-deterministic with interval
    # sampling (intervals sum to N regardless of seed), so the observed
    # cv may sit well below the Bernoulli prediction; it must not exceed
    # it materially.
    assert observed_cv < 2.0 * predicted

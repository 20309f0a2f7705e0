"""Tests for the Figure 3 convergence machinery."""

import pytest

from repro.analysis.convergence import (convergence_points,
                                        dcache_miss_property,
                                        envelope_fraction, retired_property,
                                        summarize)
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig

from tests.conftest import counting_loop


@pytest.fixture(scope="module")
def loop_run():
    program = counting_loop(iterations=4000)
    return run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=13, seed=21),
        collect_truth=True))


def test_points_have_expected_shape(loop_run):
    points = convergence_points(loop_run.database, loop_run.truth, 13,
                                retired_property)
    assert points
    for p in points:
        assert p.actual > 0
        assert p.matching_samples <= p.total_samples
        assert p.estimate == p.matching_samples * 13


def test_estimates_converge_on_hot_instructions(loop_run):
    points = convergence_points(loop_run.database, loop_run.truth, 13,
                                retired_property)
    hot = [p for p in points if p.matching_samples >= 100]
    assert hot, "loop body must accumulate >= 100 samples"
    for p in hot:
        assert abs(p.ratio - 1.0) < 0.35


def test_envelope_fraction_near_two_thirds(loop_run):
    points = convergence_points(loop_run.database, loop_run.truth, 13,
                                retired_property)
    fraction = envelope_fraction(points)
    # Exactly 2/3 needs many independent points; just require the
    # envelope to be meaningful (most estimates inside or near).
    assert fraction >= 0.4


def test_dcache_property_on_memory_program(memory_program):
    run = run_session(SessionSpec(
        program=memory_program,
        profile=ProfileMeConfig(mean_interval=3, seed=2), collect_truth=True))
    points = convergence_points(run.database, run.truth, 3,
                                dcache_miss_property)
    # The array walk has at least some D-cache misses to estimate.
    assert all(p.actual >= 1 for p in points)


def test_summarize_buckets(loop_run):
    points = convergence_points(loop_run.database, loop_run.truth, 13,
                                retired_property)
    rows = summarize(points, buckets=(1, 10, 100, 1000))
    assert rows
    for row in rows:
        assert 0.0 <= row["envelope_fraction"] <= 1.0
        assert row["points"] >= 1
    # Error shrinks in higher buckets (when both ends populated).
    if len(rows) >= 2:
        assert rows[-1]["mean_abs_error"] <= rows[0]["mean_abs_error"] + 0.05

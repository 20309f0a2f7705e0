"""Tests for structural profile aggregation (function/loop rollups)."""

import pytest

from repro.analysis.aggregate import (by_function, by_loop,
                                      hierarchy_report)
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

from tests.isa.test_loops import nested_loop_program


@pytest.fixture(scope="module")
def profiled_compress():
    program = suite_program("compress", scale=1)
    run = run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=30, seed=2)))
    return program, run


class TestByFunction:
    def test_rollup_is_lossless(self, profiled_compress):
        program, run = profiled_compress
        summaries = by_function(run.database, program)
        assert (sum(s.samples for s in summaries.values())
                == run.database.total_samples)

    def test_hot_phase_dominates(self, profiled_compress):
        program, run = profiled_compress
        summaries = by_function(run.database, program)
        hottest = max(summaries.values(), key=lambda s: s.samples)
        assert hottest.name.startswith("phase_")

    def test_estimated_cycles_scale_with_interval(self, profiled_compress):
        program, run = profiled_compress
        summaries = by_function(run.database, program)
        any_summary = next(iter(summaries.values()))
        assert (any_summary.estimated_cycles(60)
                == 2 * any_summary.estimated_cycles(30))


class TestByLoop:
    def test_rollup_is_lossless(self, profiled_compress):
        program, run = profiled_compress
        summaries = by_loop(run.database, program)
        assert (sum(s.samples for s in summaries.values())
                == run.database.total_samples)

    def test_loop_units_present(self, profiled_compress):
        program, run = profiled_compress
        summaries = by_loop(run.database, program)
        loop_units = [name for name in summaries if "/loop@" in name]
        straightline = [name for name in summaries
                        if name.endswith("/straightline")]
        assert loop_units
        assert straightline

    def test_inner_loop_attribution(self):
        program = nested_loop_program()
        run = run_session(SessionSpec(
            program=program, profile=ProfileMeConfig(mean_interval=5, seed=1)))
        summaries = by_loop(run.database, program)
        inner_name = "main/loop@%#x" % program.pc_of_label("inner")
        outer_name = "main/loop@%#x" % program.pc_of_label("outer")
        assert inner_name in summaries
        # The inner loop executes 4x as often as the outer-only code.
        assert (summaries[inner_name].samples
                > summaries.get(outer_name,
                                type(summaries[inner_name])("x")).samples)


class TestHierarchyReport:
    def test_report_renders(self, profiled_compress):
        program, run = profiled_compress
        text = hierarchy_report(run.database, program, mean_interval=30)
        assert "By function" in text
        assert "By loop (innermost)" in text
        assert "phase_" in text

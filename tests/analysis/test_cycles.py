"""Tests for whole-program cycle accounting."""

import pytest

from repro.analysis.cycles import (event_attribution, format_breakdown,
                                   per_pc_breakdown, program_breakdown)
from repro.analysis.database import ProfileDatabase
from repro.errors import AnalysisError
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import stall_kernel

from tests.analysis.test_database import make_record
from tests.conftest import counting_loop


class TestPerPcBreakdown:
    def test_minimums_subtracted(self):
        db = ProfileDatabase()
        # fetch_to_map == frontend depth, map_to_data_ready == 1: no stall.
        db.add(make_record(latencies={"fetch_to_map": 2,
                                      "map_to_data_ready": 1,
                                      "data_ready_to_issue": 0,
                                      "issue_to_retire_ready": 1}))
        rows = per_pc_breakdown(db, mean_interval=10)
        cycles = rows[0].cycles
        assert cycles["frontend"] == 0.0
        assert cycles["dependences"] == 0.0
        assert cycles["execution"] == 10.0

    def test_stalls_attributed(self):
        db = ProfileDatabase()
        db.add(make_record(latencies={"fetch_to_map": 12,
                                      "map_to_data_ready": 41,
                                      "data_ready_to_issue": 3,
                                      "issue_to_retire_ready": 7,
                                      "retire_ready_to_retire": 9}))
        rows = per_pc_breakdown(db, mean_interval=1)
        cycles = rows[0].cycles
        assert cycles["frontend"] == 10.0
        assert cycles["dependences"] == 40.0
        assert cycles["fu_contention"] == 3.0
        assert cycles["execution"] == 7.0
        assert cycles["retire_wait"] == 9.0
        assert rows[0].total_in_progress == 60.0


class TestProgramBreakdown:
    def test_fractions_sum_to_one(self):
        db = ProfileDatabase()
        for _ in range(5):
            db.add(make_record(latencies={"map_to_data_ready": 21}))
        totals, fractions = program_breakdown(db, mean_interval=100)
        shares = [f for c, f in fractions.items() if f is not None]
        assert sum(shares) == pytest.approx(1.0)
        assert fractions["dependences"] > 0.5

    def test_empty_database_raises(self):
        with pytest.raises(AnalysisError):
            program_breakdown(ProfileDatabase(), 10)

    def test_dep_chain_kernel_is_dependence_bound(self):
        program = stall_kernel("dep_chain", iterations=150)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=15, seed=1)))
        totals, fractions = program_breakdown(run.database, 15)
        assert fractions["dependences"] > 0.4

    def test_fu_kernel_shows_contention(self):
        program = stall_kernel("fu_contention", iterations=150)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=15, seed=1)))
        totals, fractions = program_breakdown(run.database, 15)
        assert fractions["fu_contention"] > 0.1


class TestEventAttribution:
    def test_fractions_of_samples(self):
        from repro.events import Event

        db = ProfileDatabase()
        db.add(make_record(events=Event.RETIRED | Event.DCACHE_MISS))
        db.add(make_record())
        fractions = event_attribution(db)
        assert fractions["dcache_miss"] == pytest.approx(0.5)
        assert fractions["mispredict"] == 0.0


class TestFormatting:
    def test_format_breakdown_text(self):
        program = counting_loop(iterations=400)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=10, seed=1)))
        totals, fractions = program_breakdown(run.database, 10)
        text = format_breakdown(totals, fractions,
                                event_attribution(run.database))
        assert "Where have all the cycles gone?" in text
        assert "dependences" in text

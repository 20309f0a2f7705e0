"""Tests for the ProfileMe unit: selection, capture, delivery."""

import pytest

from repro.errors import ConfigError
from repro.events import AbortReason, Event
from repro.engine.session import SessionSpec, run_session
from repro.profileme.fetch_counter import CountMode
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

from tests.conftest import counting_loop


@pytest.fixture(scope="module")
def gcc_run():
    """One moderately branchy profiled run shared by read-only tests."""
    program = suite_program("gcc", scale=1)
    return run_session(SessionSpec(
        program=program, profile=ProfileMeConfig(mean_interval=40, seed=11)))


class TestSingleSampling:
    def test_samples_delivered(self, gcc_run):
        assert gcc_run.driver.delivered > 100
        assert gcc_run.database.total_samples == gcc_run.driver.delivered

    def test_sample_rate_tracks_configured_interval(self, gcc_run):
        # The counter only runs between samples (it is re-armed when the
        # previous sample completes), so the effective interval is S plus
        # the instructions fetched while the sample was in flight; the
        # delivered rate must be below fetched/S but the same order.
        fetched = gcc_run.core.fetched
        ceiling = fetched / 40
        delivered = gcc_run.driver.delivered
        assert delivered <= 1.1 * ceiling
        assert delivered >= 0.25 * ceiling

    def test_records_are_valid(self, gcc_run):
        program = gcc_run.spec.program
        for record in gcc_run.records:
            assert program.contains_pc(record.pc)
            assert record.retired != bool(record.events & Event.ABORTED)
            assert record.done_cycle >= record.fetch_cycle

    def test_samples_include_aborted_instructions(self, gcc_run):
        aborted = [r for r in gcc_run.records if not r.retired]
        assert aborted, "speculative workload must yield aborted samples"
        reasons = {r.abort_reason for r in aborted}
        assert AbortReason.MISPREDICT_SQUASH in reasons

    def test_retired_samples_have_full_latency_chain(self, gcc_run):
        retired = [r for r in gcc_run.records if r.retired]
        assert retired
        for record in retired:
            assert record.fetch_to_map is not None
            assert record.issue_to_retire_ready is not None
            assert record.retire_ready_to_retire is not None

    def test_load_samples_have_address_and_completion(self, gcc_run):
        loads = [r for r in gcc_run.records
                 if r.retired and r.op is not None and r.op.value == "ld"]
        assert loads
        for record in loads:
            assert record.addr is not None
            assert record.load_issue_to_completion is not None


class TestSamplingIsUnbiased:
    def test_pc_coverage_matches_execution_profile(self):
        """Sampled PC frequencies track true fetch frequencies."""
        program = counting_loop(iterations=3000)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(mean_interval=11, seed=5),
            collect_truth=True))
        truth = run.truth
        db = run.database
        for pc, profile in db.per_pc.items():
            true_fetches = truth.per_pc[pc].fetched
            estimate = profile.samples * 11
            if profile.samples >= 30:
                assert abs(estimate / true_fetches - 1.0) < 0.5


class TestPairedSampling:
    def test_pairs_have_intra_latency(self):
        program = suite_program("compress", scale=1)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=60, paired=True, pair_window=32, seed=2)))
        complete = [p for p in run.pairs if p.complete]
        assert complete
        for pair in complete:
            assert pair.intra_pair_cycles is not None
            assert pair.intra_pair_cycles >= 0
            assert 1 <= pair.intra_pair_distance <= 32
            assert pair.second.fetch_cycle >= pair.first.fetch_cycle

    def test_minor_interval_spans_window(self):
        program = suite_program("compress", scale=1)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=50, paired=True, pair_window=8, seed=4)))
        distances = {p.intra_pair_distance for p in run.pairs
                     if p.intra_pair_distance is not None}
        assert len(distances) >= 6  # draws cover most of [1, 8]


class TestBuffering:
    def test_buffer_depth_reduces_interrupts(self):
        program = counting_loop(iterations=2000)
        runs = {}
        for depth in (1, 8):
            run = run_session(SessionSpec(
                program=program,
                profile=ProfileMeConfig(
                    mean_interval=20, buffer_depth=depth, seed=3)))
            runs[depth] = run.unit.stats
        assert runs[1].interrupts > runs[8].interrupts * 4
        assert runs[1].records_delivered == pytest.approx(
            runs[8].records_delivered, rel=0.2)

    def test_interrupt_cost_slows_machine(self):
        program = counting_loop(iterations=2000)
        cheap = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=20, interrupt_cost_cycles=0, seed=3)))
        costly = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=20, interrupt_cost_cycles=100, seed=3)))
        assert costly.cycles > cheap.cycles
        assert costly.unit.stats.overhead_cycles > 0

    def test_finalize_flushes_partial_buffer(self):
        program = counting_loop(iterations=500)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=30, buffer_depth=64, seed=3)))
        # Far fewer samples than the buffer: without finalize they'd be lost.
        assert run.driver.delivered > 0
        assert run.unit.stats.records_delivered == run.driver.delivered


class TestFetchModes:
    def test_opportunity_mode_wastes_selections(self):
        program = suite_program("gcc", scale=1)
        inst_run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=50, mode=CountMode.INSTRUCTIONS, seed=8)))
        opp_run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=50, mode=CountMode.FETCH_OPPORTUNITIES, seed=8)))
        assert inst_run.unit.stats.useful_fraction == 1.0
        assert opp_run.unit.stats.useful_fraction < 1.0
        wasted = (opp_run.unit.stats.empty_selections
                  + opp_run.unit.stats.offpath_selections)
        assert wasted > 0

    def test_offpath_selections_produce_discard_records(self):
        program = suite_program("go", scale=1)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=50, mode=CountMode.FETCH_OPPORTUNITIES, seed=8)))
        discards = [r for r in run.records
                    if r.abort_reason is AbortReason.FETCH_DISCARD]
        if run.unit.stats.offpath_selections:
            assert discards
            for record in discards:
                assert record.op is None
                assert not record.retired


class TestConfigValidation:
    def test_bad_interval(self):
        with pytest.raises(ConfigError):
            ProfileMeConfig(mean_interval=0)

    def test_bad_window(self):
        with pytest.raises(ConfigError):
            ProfileMeConfig(pair_window=0)

    def test_bad_path_bits(self):
        with pytest.raises(ConfigError):
            ProfileMeConfig(path_bits=40)

    def test_bad_buffer(self):
        with pytest.raises(ConfigError):
            ProfileMeConfig(buffer_depth=0)

"""Tests for N-way sampling and replicated register sets."""

import pytest

from repro.errors import ConfigError
from repro.engine.session import SessionSpec, run_session
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import suite_program

from tests.conftest import counting_loop


class TestConfig:
    def test_effective_group_size(self):
        assert ProfileMeConfig().effective_group_size == 1
        assert ProfileMeConfig(paired=True).effective_group_size == 2
        assert ProfileMeConfig(group_size=4).effective_group_size == 4

    def test_paired_conflicts_with_other_sizes(self):
        with pytest.raises(ConfigError):
            ProfileMeConfig(paired=True, group_size=3)
        # group_size=2 is just an explicit spelling of paired.
        assert ProfileMeConfig(paired=True,
                               group_size=2).effective_group_size == 2

    def test_tag_bits(self):
        # Section 4.1.2: ceil(log(N+1)) bits.
        assert ProfileMeConfig().tag_bits == 1
        assert ProfileMeConfig(paired=True).tag_bits == 2
        assert ProfileMeConfig(group_size=4).tag_bits == 3
        assert ProfileMeConfig(register_sets=4).tag_bits == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProfileMeConfig(group_size=9)
        with pytest.raises(ConfigError):
            ProfileMeConfig(register_sets=0)


class TestNWaySampling:
    @pytest.fixture(scope="class")
    def nway_run(self):
        program = suite_program("compress", scale=1)
        return run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=80, group_size=4, pair_window=24, seed=5)))

    def test_groups_delivered(self, nway_run):
        assert nway_run.driver.groups
        assert not nway_run.driver.pairs  # size-4 groups, not pairs
        for group in nway_run.driver.groups:
            assert len(group.records) == 4
            assert len(group.fetch_offsets) == 4

    def test_offsets_monotonic(self, nway_run):
        for group in nway_run.driver.groups:
            offsets = [o for o in group.fetch_offsets if o is not None]
            assert offsets == sorted(offsets)
            assert offsets and offsets[0] == 0

    def test_distances_within_window(self, nway_run):
        for group in nway_run.driver.groups:
            assert len(group.distances) <= 3
            assert all(1 <= d <= 24 for d in group.distances)

    def test_member_pairs_decomposition(self, nway_run):
        complete = [g for g in nway_run.driver.groups if g.complete]
        assert complete
        for group in complete:
            pairs = group.member_pairs()
            assert len(pairs) == 6  # C(4, 2)
            for earlier, later, offset in pairs:
                assert offset >= 0

    def test_pair_analyzer_fed_from_groups(self, nway_run):
        analyzer = nway_run.pair_analyzer
        assert analyzer is not None
        assert analyzer.pairs_usable > 0
        # Each complete 4-way group contributes 6 pairs.
        complete = sum(1 for g in nway_run.driver.groups if g.complete)
        assert analyzer.pairs_usable >= 6 * complete * 0.5

    def test_database_counts_all_members(self, nway_run):
        members = sum(
            sum(1 for r in g.records if r is not None)
            for g in nway_run.driver.groups)
        assert nway_run.database.total_samples == members


class TestRegisterSets:
    def test_replication_reduces_drops(self):
        program = counting_loop(iterations=4000)
        drops = {}
        for sets in (1, 4):
            run = run_session(SessionSpec(
                program=program,
                profile=ProfileMeConfig(
                    mean_interval=10, register_sets=sets, seed=9)))
            drops[sets] = run.unit.stats.dropped_busy
            if sets == 4:
                assert run.unit.stats.max_concurrent_groups > 1
        assert drops[1] > 0
        assert drops[4] < drops[1] * 0.25

    def test_replication_raises_delivered_rate(self):
        program = counting_loop(iterations=4000)
        delivered = {}
        for sets in (1, 4):
            run = run_session(SessionSpec(
                program=program,
                profile=ProfileMeConfig(
                    mean_interval=10, register_sets=sets, seed=9)))
            delivered[sets] = run.driver.delivered
        assert delivered[4] > delivered[1]

    def test_samples_remain_valid_with_replication(self):
        program = suite_program("go", scale=1)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=15, register_sets=8, seed=3)))
        assert run.driver.delivered > 300
        for record in run.records:
            assert program.contains_pc(record.pc)
            assert record.done_cycle >= record.fetch_cycle

    def test_paired_with_replication(self):
        program = suite_program("compress", scale=1)
        run = run_session(SessionSpec(
            program=program,
            profile=ProfileMeConfig(
                mean_interval=40, paired=True, pair_window=16,
                register_sets=4, seed=7)))
        complete = [p for p in run.pairs if p.complete]
        assert complete
        for pair in complete:
            assert pair.intra_pair_cycles >= 0

"""Tests for the Session layer: SessionSpec, run_session, results."""

import pickle

import pytest

from repro.engine.session import (
    SessionSpec,
    build_core,
    profile_config_for_context,
    run_session,
)
from repro.errors import ConfigError
from repro.profileme.unit import ProfileMeConfig

from tests.conftest import counting_loop


def _spec(**kw):
    defaults = dict(
        program=counting_loop(iterations=60),
        core_kind="ooo",
        profile=ProfileMeConfig(mean_interval=25, seed=7),
    )
    defaults.update(kw)
    return SessionSpec(**defaults)


class TestSessionSpec:
    def test_rejects_unknown_core(self):
        with pytest.raises(ConfigError):
            _spec(core_kind="vliw")

    def test_multi_context_kinds_require_programs(self):
        with pytest.raises(ConfigError):
            _spec(core_kind="smt", program=counting_loop(5), programs=())

    def test_single_context_kinds_require_program(self):
        with pytest.raises(ConfigError):
            _spec(core_kind="ooo", program=None)

    def test_smt_accepts_multiple_programs(self):
        two = (counting_loop(iterations=5), counting_loop(iterations=5))
        spec = _spec(core_kind="smt", program=None, programs=two)
        assert spec.resolved_programs() == two

    def test_spec_round_trips_through_pickle(self):
        spec = _spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.profile == spec.profile
        assert clone.core_kind == spec.core_kind


class TestBuildCore:
    def test_kinds(self, tiny_program):
        from repro.cpu.inorder.core import InOrderCore
        from repro.cpu.ooo.core import OutOfOrderCore

        assert isinstance(build_core(tiny_program, "ooo"), OutOfOrderCore)
        assert isinstance(build_core(tiny_program, "inorder"), InOrderCore)
        with pytest.raises(ConfigError):
            build_core(tiny_program, "vliw")


class TestProfileConfigForContext:
    def test_context_zero_keeps_seed(self):
        profile = ProfileMeConfig(mean_interval=50, seed=3)
        stamped = profile_config_for_context(profile, 0)
        assert stamped.context == 0
        assert stamped.seed == 3

    def test_contexts_get_distinct_seeds(self):
        profile = ProfileMeConfig(mean_interval=50, seed=3)
        seeds = {profile_config_for_context(profile, i).seed
                 for i in range(4)}
        assert len(seeds) == 4
        assert profile_config_for_context(profile, 2).seed == 3 + 2000

    def test_original_config_untouched(self):
        profile = ProfileMeConfig(mean_interval=50, seed=3)
        profile_config_for_context(profile, 5)
        assert profile.context is None
        assert profile.seed == 3


class TestRunSession:
    @pytest.mark.parametrize("kind", ["ooo", "inorder"])
    def test_profiled_session_produces_samples(self, kind):
        result = run_session(_spec(core_kind=kind))
        assert result.cycles > 0
        assert result.stats.retired > 0
        assert result.unit is not None
        assert result.unit.stats.records_delivered > 0
        assert result.database.total_samples > 0
        assert result.pair_analyzer is None  # unpaired sampling

    def test_paired_session_wires_pair_analyzer(self, memory_program):
        result = run_session(_spec(
            program=memory_program,
            profile=ProfileMeConfig(mean_interval=5, paired=True,
                                    pair_window=16, seed=1)))
        assert result.pair_analyzer is not None
        assert result.pair_analyzer.pairs_seen == len(result.pairs)

    def test_truth_collection_honours_options(self, tiny_program):
        result = run_session(_spec(
            program=tiny_program, collect_truth=True,
            truth_options={"collect_retire_series": True}))
        assert result.truth is not None
        assert result.truth.retire_series

    def test_keep_records_off(self):
        result = run_session(_spec(program=counting_loop(iterations=500),
                                   keep_records=False))
        assert result.records == []
        assert result.database.total_samples > 0

    def test_max_retired_respected(self):
        result = run_session(_spec(program=counting_loop(iterations=1000),
                                   max_retired=50))
        assert result.core.retired <= 50 + result.core.config.retire_width

    def test_smt_session(self):
        two = (counting_loop(iterations=40), counting_loop(iterations=40))
        result = run_session(_spec(core_kind="smt", program=None,
                                   programs=two))
        assert result.cycles > 0
        assert result.stats.retired > 0
        assert result.database.total_samples > 0

    def test_multiprog_session_merges_contexts(self):
        two = (counting_loop(iterations=40), counting_loop(iterations=40))
        result = run_session(_spec(core_kind="multiprog", program=None,
                                   programs=two))
        assert result.cycles > 0
        assert len(result.multi.contexts) == 2
        assert all(ctx.database.total_samples > 0
                   for ctx in result.multi.contexts)
        # Merged database keys on (context << 32) | pc: both contexts'
        # samples are present and disambiguated.
        assert result.database.total_samples == sum(
            ctx.database.total_samples for ctx in result.multi.contexts)
        contexts_seen = {pc >> 32 for pc in result.database.pcs()}
        assert contexts_seen == {0, 1}

    def test_session_without_profile_runs_bare(self):
        result = run_session(_spec(profile=None))
        assert result.unit is None
        assert result.database is None
        assert result.stats.retired > 0

    def test_deterministic_across_runs(self):
        a = run_session(_spec())
        b = run_session(_spec())
        assert a.cycles == b.cycles
        assert a.unit.stats.records_delivered == b.unit.stats.records_delivered
        assert a.database.total_samples == b.database.total_samples

    def test_detach_is_picklable(self):
        result = run_session(_spec()).detach()
        assert result.core is None and result.unit is None
        assert result.sampling_stats is not None
        clone = pickle.loads(pickle.dumps(result))
        assert clone.cycles == result.cycles
        assert clone.stats.retired == result.stats.retired
        assert (clone.sampling_stats.records_delivered
                == result.sampling_stats.records_delivered)


"""Property-based tests for spec hashing and cache round-trips.

The sweep layer's result cache is only sound if :func:`spec_key` is a
*semantic* hash: invariant under representation details (dict insertion
order, tuple vs list, the presentation-only label) and sensitive to
every field that changes what gets simulated (seeds, intervals, limits,
configs, program text).  Hypothesis drives the pure hash properties;
the simulation round-trip uses a small seeded grid.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.persistence import (result_from_dict, result_to_dict,
                                        save_result, load_result)
from repro.engine.session import SessionSpec, run_session
from repro.engine.sweep import ResultStore, spec_key
from repro.profileme.unit import ProfileMeConfig

from tests.conftest import counting_loop


def _base_spec(**overrides):
    kwargs = dict(program=counting_loop(iterations=30),
                  profile=ProfileMeConfig(mean_interval=50, seed=3),
                  label="base")
    kwargs.update(overrides)
    return SessionSpec(**kwargs)


# ----------------------------------------------------------------------
# Invariance: representation details must not move the key.


def test_same_spec_built_twice_hashes_identically():
    assert spec_key(_base_spec()) == spec_key(_base_spec())


def test_rebuilt_program_hashes_identically():
    # Two distinct Program objects with identical text are the same key.
    a = _base_spec(program=counting_loop(iterations=30))
    b = _base_spec(program=counting_loop(iterations=30))
    assert a.program is not b.program
    assert spec_key(a) == spec_key(b)


def test_label_is_excluded_from_the_key():
    assert (spec_key(_base_spec(label="one"))
            == spec_key(_base_spec(label="two")))


@given(st.dictionaries(
    st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]),
    st.integers(min_value=0, max_value=10), min_size=2, max_size=5))
def test_hash_is_invariant_under_dict_ordering(options):
    forward = dict(options.items())
    backward = dict(reversed(list(options.items())))
    assert list(forward) == list(reversed(list(backward)))  # real reorder
    a = _base_spec(collect_truth=True, truth_options=None)
    # truth_options feeds GroundTruthCollector kwargs; for hashing we
    # only care that the *same mapping* in any insertion order is the
    # same key, so build the spec around each ordering.
    a = dataclasses.replace(a, truth_options=forward)
    b = dataclasses.replace(a, truth_options=backward)
    assert spec_key(a) == spec_key(b)


def test_uninterruptible_tuple_vs_list_is_invariant():
    a = _base_spec(uninterruptible=[(0, 16), (32, 64)])
    b = _base_spec(uninterruptible=((0, 16), (32, 64)))
    assert spec_key(a) == spec_key(b)


# ----------------------------------------------------------------------
# Sensitivity: every simulated field must move the key.


@given(base=st.integers(min_value=1, max_value=10_000),
       changed=st.integers(min_value=1, max_value=10_000))
def test_mean_interval_moves_the_key(base, changed):
    a = _base_spec(profile=ProfileMeConfig(mean_interval=base, seed=3))
    b = _base_spec(profile=ProfileMeConfig(mean_interval=changed, seed=3))
    assert (spec_key(a) == spec_key(b)) == (base == changed)


@given(base=st.integers(min_value=0, max_value=2**31),
       changed=st.integers(min_value=0, max_value=2**31))
def test_profile_seed_moves_the_key(base, changed):
    a = _base_spec(profile=ProfileMeConfig(mean_interval=50, seed=base))
    b = _base_spec(profile=ProfileMeConfig(mean_interval=50, seed=changed))
    assert (spec_key(a) == spec_key(b)) == (base == changed)


@given(limit=st.one_of(st.none(),
                       st.integers(min_value=1, max_value=10**9)),
       other=st.one_of(st.none(),
                       st.integers(min_value=1, max_value=10**9)))
def test_limits_move_the_key(limit, other):
    a = _base_spec(max_cycles=limit)
    b = _base_spec(max_cycles=other)
    assert (spec_key(a) == spec_key(b)) == (limit == other)


@settings(max_examples=30)
@given(st.sampled_from([
    ("quantum", 200, 400),
    ("partition", True, False),
    ("keep_addresses", 0, 4),
    ("collect_truth", False, True),
    ("max_retired", None, 5000),
    ("core_kind", "ooo", "inorder"),
]), st.booleans())
def test_each_spec_field_moves_the_key(case, flip):
    name, first, second = case
    if flip:
        first, second = second, first
    a = dataclasses.replace(_base_spec(), **{name: first})
    b = dataclasses.replace(_base_spec(), **{name: second})
    assert spec_key(a) != spec_key(b)
    assert spec_key(a) == spec_key(dataclasses.replace(b, **{name: first}))


def test_program_text_moves_the_key():
    a = _base_spec(program=counting_loop(iterations=30))
    b = _base_spec(program=counting_loop(iterations=31))
    assert spec_key(a) != spec_key(b)


def test_profile_config_knobs_move_the_key():
    base = ProfileMeConfig(mean_interval=50, seed=3)
    for change in (dict(paired=True), dict(pair_window=48),
                   dict(register_sets=2), dict(jitter=0.25),
                   dict(distribution="geometric"), dict(buffer_depth=2)):
        assert (spec_key(_base_spec(profile=base))
                != spec_key(_base_spec(
                    profile=dataclasses.replace(base, **change)))), change


# ----------------------------------------------------------------------
# Backward compatibility: adding the two-speed fields must not move the
# key of any pre-existing (detailed-mode) spec, or every cached sweep
# result on disk silently invalidates.  These hex digests were captured
# from the tree *before* exec_mode/window existed; regenerating them to
# make this test pass defeats its purpose.

PINNED_PRE_TWO_SPEED_KEYS = {
    "plain": "05c1f0e5a9c2c68ea7d7886d148047f4bcf7faa2d60d36cc136a878b7d15690d",
    "profiled": "e5cbcaecb95ed84e37ca6f45bb59a698982618da96db3d47c872a99ad6e6442b",
    "inorder": "f3f860ca9a083040fdcf16f01a76781483c7530bda6c633e16cbc53e3a7d0f5c",
    "paired": "02b5d7f3a124a70e5510b8f8b58ba87768f66fd86ffd0a8b2f7fa82ba0a0ef0e",
}


def _pinned_specs():
    return {
        "plain": _base_spec(profile=None),
        "profiled": _base_spec(),
        "inorder": _base_spec(profile=None, core_kind="inorder",
                              max_retired=500),
        "paired": _base_spec(
            profile=ProfileMeConfig(mean_interval=25, paired=True, seed=7),
            keep_records=False, max_cycles=10_000),
    }


def test_detailed_mode_keys_match_pre_two_speed_pins():
    for name, spec in _pinned_specs().items():
        assert spec_key(spec) == PINNED_PRE_TWO_SPEED_KEYS[name], name


def test_detailed_canonical_form_omits_two_speed_fields():
    for name, spec in _pinned_specs().items():
        canonical = spec.canonical()
        assert "exec_mode" not in canonical, name
        assert "window" not in canonical, name


# Two-speed keys name sweep checkpoints too: a change to canonical()
# must not move them, or every cached two-speed result silently
# invalidates.  These hex digests were captured from the tree that
# still had the batched-window scheduler (and its canonical() branch);
# regenerating them to make this test pass defeats its purpose.

PINNED_TWO_SPEED_KEYS = {
    "chained": "716c551698bdf135b97ba956e836776f732d7ce022461a8f0e440f752a863b74",
    "paired_window": "8ccd0e91ca49294da11b76a9a3e7f03d44d2de1baccae0db47d42d4f6250b442",
}


def _pinned_two_speed_specs():
    return {
        "chained": _base_spec(exec_mode="two-speed"),
        "paired_window": _base_spec(
            profile=ProfileMeConfig(mean_interval=25, paired=True, seed=7),
            exec_mode="two-speed", window=1000, keep_records=False,
            max_retired=10_000),
    }


def test_two_speed_keys_match_pins():
    for name, spec in _pinned_two_speed_specs().items():
        assert spec_key(spec) == PINNED_TWO_SPEED_KEYS[name], name


def test_two_speed_fields_move_the_key():
    base = _base_spec()
    two_speed = dataclasses.replace(base, exec_mode="two-speed")
    assert spec_key(base) != spec_key(two_speed)
    assert (spec_key(dataclasses.replace(two_speed, window=1000))
            != spec_key(two_speed))
    # But window is presentation-irrelevant while the mode is detailed.
    assert spec_key(dataclasses.replace(base, window=1000)) == spec_key(base)


def test_two_speed_cache_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    spec = _base_spec(program=counting_loop(iterations=400),
                      profile=ProfileMeConfig(mean_interval=120, seed=5),
                      exec_mode="two-speed", window=64)
    key = spec_key(spec)
    fresh_result = run_session(spec).detach()
    fresh = result_to_dict(fresh_result, spec_key=key)
    assert fresh["two_speed"]["windows"] > 0
    store.store(key, fresh)
    assert _canonical_bytes(store.load_payload(key)) == _canonical_bytes(fresh)
    again = result_to_dict(run_session(spec).detach(), spec_key=key)
    assert _canonical_bytes(again) == _canonical_bytes(fresh)
    loaded = store.load(key, spec=spec)
    assert loaded.two_speed.windows == fresh_result.two_speed.windows
    assert loaded.two_speed.final_state is None  # verification hook only
    assert _canonical_bytes(result_to_dict(loaded, spec_key=key)) \
        == _canonical_bytes(fresh)


# ----------------------------------------------------------------------
# Cache round-trip: stored bytes == fresh bytes, and loads are faithful.


def _canonical_bytes(payload):
    return json.dumps(payload, sort_keys=True)


def test_cache_round_trip_is_byte_equal_to_fresh_run(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    # Seeded grid instead of hypothesis: each case runs a simulation.
    for interval, seed in ((20, 1), (50, 2), (120, 3)):
        spec = _base_spec(profile=ProfileMeConfig(mean_interval=interval,
                                                  seed=seed))
        key = spec_key(spec)
        fresh = result_to_dict(run_session(spec).detach(), spec_key=key)
        store.store(key, fresh)
        assert _canonical_bytes(store.load_payload(key)) \
            == _canonical_bytes(fresh)
        # A second simulation of the same spec reproduces the bytes too
        # (the cache can stand in for the simulator).
        again = result_to_dict(run_session(spec).detach(), spec_key=key)
        assert _canonical_bytes(again) == _canonical_bytes(fresh)
        # Loading and re-serializing is lossless.
        loaded = store.load(key, spec=spec)
        assert _canonical_bytes(result_to_dict(loaded, spec_key=key)) \
            == _canonical_bytes(fresh)


def test_save_and_load_result_file(tmp_path):
    spec = _base_spec()
    result = run_session(spec).detach()
    path = str(tmp_path / "result.json")
    save_result(result, path, spec_key=spec_key(spec))
    loaded = load_result(path, spec=spec)
    assert loaded.stats == result.stats
    assert loaded.cycles == result.cycles
    assert loaded.sampling_stats == result.sampling_stats
    assert loaded.database.total_samples == result.database.total_samples


def test_result_from_dict_rejects_foreign_documents():
    import pytest

    from repro.errors import AnalysisError

    with pytest.raises(AnalysisError):
        result_from_dict({"format": "something-else"})
    with pytest.raises(AnalysisError):
        result_from_dict({"format": "repro-session-result", "version": 99})


# ----------------------------------------------------------------------
# static_branch_hints (the PGO measurement field).


def test_static_branch_hints_none_is_the_default_key():
    # Omitted-when-None keeps every pre-existing cached result valid:
    # the default spec hashes identically whether the field existed or
    # not (the pinned digests above also enforce this).
    assert (spec_key(_base_spec())
            == spec_key(_base_spec(static_branch_hints=None)))


def test_static_branch_hints_move_the_key():
    gshare = _base_spec()
    btfn = _base_spec(static_branch_hints=())
    hinted = _base_spec(static_branch_hints=((8, 1),))
    other = _base_spec(static_branch_hints=((8, 0),))
    keys = {spec_key(s) for s in (gshare, btfn, hinted, other)}
    assert len(keys) == 4  # all four machines are distinct


def test_static_branch_hints_list_vs_tuple_is_invariant():
    a = _base_spec(static_branch_hints=[(8, 1), (16, 0)])
    b = _base_spec(static_branch_hints=((8, 1), (16, 0)))
    assert spec_key(a) == spec_key(b)

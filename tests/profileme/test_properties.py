"""Property-based tests over the ProfileMe configuration space.

Hypothesis drives the sampling hardware through random configurations on
a fixed workload and asserts the accounting invariants that must hold for
*any* configuration — the kind of bugs (lost groups, double delivery,
leaked tags) that slip through example-based tests.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.session import SessionSpec, run_session
from repro.profileme.fetch_counter import CountMode
from repro.profileme.registers import GroupRecord, PairedRecord
from repro.profileme.unit import ProfileMeConfig

from tests.conftest import counting_loop

# One shared, moderately speculative workload for every example.
_PROGRAM = counting_loop(iterations=400)

configs = st.builds(
    ProfileMeConfig,
    mean_interval=st.integers(min_value=5, max_value=200),
    jitter=st.sampled_from([0.0, 0.3, 0.5, 0.9]),
    distribution=st.sampled_from(["uniform", "geometric"]),
    mode=st.sampled_from(list(CountMode)),
    group_size=st.integers(min_value=0, max_value=4),
    pair_window=st.integers(min_value=1, max_value=64),
    register_sets=st.integers(min_value=1, max_value=4),
    path_bits=st.integers(min_value=1, max_value=30),
    buffer_depth=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs)
def test_accounting_invariants(config):
    run = run_session(SessionSpec(program=_PROGRAM, profile=config))
    stats = run.unit.stats
    size = config.effective_group_size

    # Selection accounting: every group member chosen is tagged,
    # off-path, or empty; every major expiration either started a group
    # or was dropped.
    assert (stats.tagged + stats.offpath_selections
            + stats.empty_selections) == stats.member_selections
    groups_started = stats.selections - stats.dropped_busy
    assert groups_started <= stats.member_selections
    assert stats.member_selections <= groups_started * size

    # Delivery accounting: the driver saw exactly what the unit says it
    # delivered, and nothing is still buffered after finalize().
    assert run.driver.delivered == stats.records_delivered
    assert run.unit.buffer == []

    # No leaked tags or pending captures.
    assert run.unit._pending == {}
    assert run.unit._awaiting_fill == []

    # Concurrency never exceeds the register-set budget.
    assert stats.max_concurrent_groups <= config.register_sets

    # Record shapes match the configured group size.
    for record in run.driver.records:
        assert size == 1 or isinstance(record, (PairedRecord, GroupRecord))
    for pair in run.driver.pairs:
        assert size == 2
        if pair.intra_pair_distance is not None:
            assert 1 <= pair.intra_pair_distance <= config.pair_window
    for group in run.driver.groups:
        assert size >= 3
        assert len(group.records) == size


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs)
def test_records_are_well_formed(config):
    run = run_session(SessionSpec(program=_PROGRAM, profile=config))
    for record in run.driver.all_single_records():
        if record.op is not None:  # off-path selections have no opcode
            assert _PROGRAM.contains_pc(record.pc)
        assert record.done_cycle >= record.fetch_cycle
        assert record.history < (1 << config.path_bits)
        assert record.retired != bool(record.abort_reason.value != "none")
        for name in ("fetch_to_map", "map_to_data_ready",
                     "data_ready_to_issue", "issue_to_retire_ready",
                     "retire_ready_to_retire"):
            value = getattr(record, name)
            assert value is None or value >= 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000),
       interval=st.integers(min_value=5, max_value=50))
def test_sampling_is_repeatable(seed, interval):
    """Identical config + workload => identical sample stream."""
    config = ProfileMeConfig(mean_interval=interval, seed=seed)
    first = run_session(SessionSpec(program=_PROGRAM, profile=config))
    second = run_session(SessionSpec(program=_PROGRAM, profile=config))
    assert [r.pc for r in first.records] == [r.pc for r in second.records]
    assert first.cycles == second.cycles
